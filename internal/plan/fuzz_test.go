package plan

import (
	"context"
	"reflect"
	"testing"

	"mddm/internal/query"
)

// FuzzPlanDifferential feeds arbitrary query text to both execution
// paths and requires identical outcomes: the planner may never panic,
// may never accept what the algebra rejects (or vice versa), and must
// produce identical results when both succeed. The seed corpus unions
// the FuzzParse and FuzzCacheKey corpora so every historically
// interesting parser shape immediately exercises the planner.
func FuzzPlanDifferential(f *testing.F) {
	seeds := []string{
		// docs/QUERY.md examples (FuzzParse corpus).
		`SELECT SETCOUNT(*) AS Count FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Family" ASOF VALID '15/06/1975'`,
		`SELECT EXPECTED(*) AS N FROM patients WHERE Diagnosis IN ('E10', 'E11') AND Age >= 40 GROUP BY Residence."Region" ORDER BY N DESC LIMIT 10`,
		`SELECT AVG(Age) FROM patients WHERE Residence = 'R1'`,
		`DESCRIBE patients Diagnosis`,
		`SELECT SETCOUNT(*) FROM patients`,
		`SELECT SUM(Age) FROM patients WHERE Residence = 'R1' AND Age > 40`,
		`SELECT FACTS FROM patients WHERE (A = 'x' OR B.Code = 'y') AND NOT C >= 3`,
		`SELECT AVG(Age) FROM patients ASOF VALID '15/06/1975' WITH PROB >= 0.9`,
		`SELECT EXPECTED(*) FROM patients ORDER BY N DESC LIMIT 3`,
		`SELECT MIN(DOB) FROM patients GROUP BY Age."Ten-year Group", Residence`,
		// Cache-key corpus extras.
		`select   setcount( * )   from   patients`,
		`SELECT SETCOUNT(*) AS SETCOUNT FROM "patients"`,
		`SELECT SETCOUNT(*) FROM patients WHERE Age != 040.50`,
		`SELECT SETCOUNT(*) FROM patients WHERE Diagnosis NOT IN ('E10') WITH PROB >= 0 LIMIT 0`,
		`SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis HAVING >= 2 ASOF TRANS '01/01/1998' ASOF VALID '15/06/1975'`,
		`SELECT SETCOUNT(*) FROM patients WHERE "Di""m" = 'it''s'`,
		`SELECT SETCOUNT(*) FROM patients ASOF VALID 'NOW'`,
		// Planner-specific shapes.
		`SELECT MEDIAN(Age) FROM patients GROUP BY Residence."Region"`,
		`SELECT MAX(Age) FROM patients GROUP BY Diagnosis."⊤", Diagnosis."⊤"`,
		`SELECT SETCOUNT(*) FROM patients WHERE NOT (Diagnosis = 'E10' OR Diagnosis = 'E11')`,
		// Context views: timeslices, thresholds and probabilistic functions
		// over temporal, uncertain hierarchies (wardsMO) and attachments.
		`SELECT SETCOUNT(*) FROM wards GROUP BY Site."Hospital" ASOF VALID '15/06/1996' ASOF TRANS '15/06/1993' WITH PROB >= 0.45`,
		`SELECT EXPECTED(*) FROM wards WHERE Site.Code = 'A' GROUP BY Site."Clinic", Cost ASOF VALID '15/06/1987'`,
		`SELECT MINCOUNT(*) AS N FROM gen GROUP BY Diagnosis."Diagnosis Family" HAVING >= 1 ASOF VALID '15/06/1988' ORDER BY N DESC LIMIT 3`,
		`SELECT MAXCOUNT(*) FROM gen WHERE Residence = 'R0' WITH PROB >= 0.95`,
		`SELECT FACTS FROM wards WHERE Site = '⊤' OR NOT Site = 'H1' ASOF TRANS '15/06/1991' WITH PROB >= 0.85 LIMIT 5`,
		`SELECT AVG(Cost) FROM wards GROUP BY Site."Ward" WITH PROB >= 0.75`,
		`SELECT LEASTSURE(*) FROM wards GROUP BY Site."Clinic" ASOF VALID '15/06/1996'`,
		`SELECT SUM(Age) FROM patients WHERE Diagnosis.Code = 'P11' GROUP BY Diagnosis."Diagnosis Family" ASOF VALID '15/06/1975'`,
		// Malformed.
		`'unclosed`,
		`SELECT ((((`,
		"SELECT \x00 FROM x",
		`ORDER LIMIT ASOF`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	cat := testCatalog(f)
	engines := NewCatalogEngines(cat, testRef)
	f.Fuzz(func(t *testing.T, src string) {
		if _, err := query.Parse(src); err != nil {
			return // rejected input is fine; panics are not
		}
		ctx := context.Background()
		r1, err1 := ExecContext(ctx, src, cat, testRef, engines)
		r2, err2 := query.ExecContext(ctx, src, cat, testRef)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%q: planner err %v, algebra err %v", src, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("%q: error text diverged:\n planner: %s\n algebra: %s", src, err1, err2)
			}
			return
		}
		if !reflect.DeepEqual(r1.Columns, r2.Columns) ||
			!reflect.DeepEqual(r1.Rows, r2.Rows) ||
			r1.Summarizable != r2.Summarizable ||
			!reflect.DeepEqual(r1.Reasons, r2.Reasons) ||
			!reflect.DeepEqual(r1.Warnings, r2.Warnings) {
			t.Fatalf("%q: results diverged:\n planner: %+v\n algebra: %+v", src, r1, r2)
		}
	})
}
