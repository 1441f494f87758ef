package query

import (
	"context"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/temporal"
)

// FuzzParse checks that the parser never panics and that accepted queries
// re-execute deterministically. Under plain `go test` the seed corpus
// runs; `go test -fuzz=FuzzParse` explores further.
func FuzzParse(f *testing.F) {
	// The first block mirrors the Examples section of docs/QUERY.md
	// verbatim, so every documented query shape is in the corpus.
	seeds := []string{
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
		`'unclosed`,
		`SELECT ((((`,
		"SELECT \x00 FROM x",
		`ORDER LIMIT ASOF`,
	}
	for _, s := range seeds {
		f.Add(s)
	}
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		f.Fatal(err)
	}
	cat := Catalog{"patients": m}
	ref := temporal.MustDate("01/01/1999")
	f.Fuzz(func(t *testing.T, src string) {
		q, err := Parse(src)
		if err != nil {
			return // rejected input is fine; panics are not
		}
		r1, err1 := RunContext(context.Background(), q, cat, ref)
		r2, err2 := RunContext(context.Background(), q, cat, ref)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("non-deterministic error for %q: %v vs %v", src, err1, err2)
		}
		if err1 != nil {
			return
		}
		if len(r1.Rows) != len(r2.Rows) {
			t.Fatalf("non-deterministic result for %q: %d vs %d rows", src, len(r1.Rows), len(r2.Rows))
		}
		for i := range r1.Rows {
			for j := range r1.Rows[i] {
				if r1.Rows[i][j] != r2.Rows[i][j] {
					t.Fatalf("non-deterministic cell for %q", src)
				}
			}
		}
	})
}
