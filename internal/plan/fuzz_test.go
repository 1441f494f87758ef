package plan

import (
	"context"
	"encoding/binary"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"mddm/internal/agg"
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
		// Headers: named in schema order whatever the GROUP BY order, ⊤
		// legs showing no column, a dimension named twice an error.
		`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Residence."Region", Diagnosis."Diagnosis Group"`,
		`SELECT SUM(Age) AS N FROM gen GROUP BY Residence."Region", Diagnosis."Diagnosis Group" HAVING > 1 ORDER BY N DESC LIMIT 2`,
		`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis, Diagnosis."Diagnosis Group" HAVING >= 1`,
		`SELECT SETCOUNT(*) AS N FROM gen GROUP BY Diagnosis."⊤", Residence."Region" HAVING >= 1 ORDER BY N DESC`,
		`SELECT AVG(Age) AS N FROM gen GROUP BY Residence."⊤" ORDER BY N`,
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

// fuzzKeys are group values for FuzzFinishDifferential: numeric-looking
// and not, so an ORDER BY of a group column mixes both comparisons.
var fuzzKeys = []string{"", "0", "1", "10", "9", "-1", "1e3", "NaN", "+Inf", "2.5", "0x10", "a", "A0", "b", "é"}

// fuzzValues are aggregate values for FuzzFinishDifferential: integers
// beyond 2^53 and past int64, fractions, ±Inf, NaN and −0, which formats
// as 0.
var fuzzValues = []float64{
	0, math.Copysign(0, -1), 1, -1, 0.5, 1.0 / 3, 2.5, 100, 1e21,
	1 << 53, 1<<53 + 2, 1<<60 + 1<<10, 1 << 63, -(1 << 63), 1e300,
	math.MaxFloat64, math.SmallestNonzeroFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
}

// FuzzFinishDifferential checks the planner's typed finish against the
// algebra's string one on generated groups: format every group, sort the
// rows canonically, nil for none, then query.ApplyHaving and
// query.OrderAndLimit. data encodes the groups, three bytes each — two key
// indexes and a value index, where an index past fuzzValues takes the next
// eight bytes as the value's bits; width is the number of group columns
// (0 to 2, duplicates allowed); op picks the HAVING operator, an unknown
// one or none, against the fuzzValues entry having picks (an index, not a
// float argument: the fuzzer's minimizer spins on a NaN float); order picks ORDER BY nothing, the aggregate, the first
// group column or no output column, ascending or descending.
func FuzzFinishDifferential(f *testing.F) {
	ops := []string{"=", "<>", "!=", "<", "<=", ">", ">=", "~"}
	f.Add([]byte{}, uint8(1), uint8(5), uint8(0), uint8(1), int8(3))                  // no groups: nil rows
	f.Add([]byte{1, 0, 2, 2, 0, 3}, uint8(1), uint8(5), uint8(15), uint8(0), int8(0)) // HAVING removes all: []
	f.Add([]byte{3, 0, 9, 4, 0, 10, 5, 0, 9, 6, 0, 19, 7, 0, 1, 8, 0, 0}, uint8(1), uint8(6), uint8(3), uint8(3), int8(2))
	f.Add([]byte{3, 1, 7, 4, 2, 7, 5, 3, 7, 11, 4, 2}, uint8(2), uint8(8), uint8(0), uint8(5), int8(0))
	f.Add([]byte{1, 0, 17, 2, 0, 18, 3, 0, 12, 4, 0, 13, 9, 0, 99, 0, 0, 0, 0, 0, 0, 0xf0, 0x7f}, uint8(1), uint8(1), uint8(6), uint8(4), int8(4))
	f.Add([]byte{0, 0, 3, 0, 0, 3}, uint8(0), uint8(9), uint8(0), uint8(2), int8(1))
	f.Fuzz(func(t *testing.T, data []byte, width, op, having, order uint8, limit int8) {
		k := int(width % 3)
		columns := []string{"A", "B", "N"}[2-k:]
		if len(data) > 3*64 {
			return // long inputs find nothing short ones do, and minimize for a minute each
		}
		var groups []row
		for len(data) >= 3 {
			keys := []string{fuzzKeys[int(data[0])%len(fuzzKeys)], fuzzKeys[int(data[1])%len(fuzzKeys)]}[:k]
			sel := int(data[2])
			data = data[3:]
			var v float64
			if sel < len(fuzzValues) {
				v = fuzzValues[sel]
			} else if len(data) >= 8 {
				v = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			}
			groups = append(groups, row{keys: keys, v: v})
		}
		q := &query.Query{Limit: int(limit)}
		if int(op) < len(ops) {
			q.Having, q.HavingOp, q.HavingVal = true, ops[op], fuzzValues[int(having)%len(fuzzValues)]
		}
		switch order % 4 {
		case 1:
			q.OrderBy = "N"
		case 2:
			q.OrderBy = columns[0]
		case 3:
			q.OrderBy = "missing"
		}
		q.OrderDesc = order&4 != 0

		want := &query.Result{Columns: columns, Summarizable: true}
		for _, g := range groups {
			want.Rows = append(want.Rows, append(slices.Clone(g.keys), agg.FormatResult(g.v)))
		}
		sort.Slice(want.Rows, func(i, j int) bool { return slices.Compare(want.Rows[i], want.Rows[j]) < 0 })
		wantErr := query.ApplyHaving(q, want)
		if wantErr == nil {
			wantErr = query.OrderAndLimit(q, want)
		}

		got, err := assemble(q, columns, groups, false, agg.Report{Summarizable: true})
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("error diverged: typed %v, string %v", err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: results diverged:\n typed:  %q (nil %v)\n string: %q (nil %v)", *q, got.Rows, got.Rows == nil, want.Rows, want.Rows == nil)
		}
	})
}
