package cache

import (
	"reflect"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/query"
	"mddm/internal/temporal"
)

// FuzzCacheKey pushes on the two properties the result cache's keying
// stands on:
//
//  1. Semantic preservation (collision safety): the canonical key is
//     itself a valid query that executes to the identical result as the
//     source text, so two sources sharing a key share a result — a
//     collision can never serve the wrong answer.
//  2. Stability: canonicalization is a fixpoint (QueryKey of a key
//     returns the key), so a key is one name, not a chain of renames.
//  3. Memory: Cache.Resolve answers QueryKey — the same key and MO the
//     first time, keying the text, and every time after, from the alias
//     it remembered; an unkeyable text stays unkeyable and unremembered.
//
// Injectivity on distinct parameters is pinned by the table-driven
// TestQueryKeyDistinctions; the fuzzer's contribution there is finding
// sources whose canonical form fails to re-parse or drifts, which is
// exactly what the fixpoint check catches.
func FuzzCacheKey(f *testing.F) {
	// Every example from docs/QUERY.md (the FuzzParse corpus), plus the
	// normalization-sensitive spellings the collision tests pin.
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
		`select   setcount( * )   from   patients`,
		`SELECT SETCOUNT(*) AS SETCOUNT FROM "patients"`,
		`SELECT SETCOUNT(*) FROM patients WHERE Age != 040.50`,
		`SELECT SETCOUNT(*) FROM patients WHERE Diagnosis NOT IN ('E10') WITH PROB >= 0 LIMIT 0`,
		`SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis HAVING >= 2 ASOF TRANS '01/01/1998' ASOF VALID '15/06/1975'`,
		`SELECT SETCOUNT(*) FROM patients WHERE "Di""m" = 'it''s'`,
		`SELECT SETCOUNT(*) FROM patients ASOF VALID 'NOW'`,
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
	cat := query.Catalog{"patients": m}
	ref := temporal.MustDate("01/01/1999")
	c := New(1 << 20)
	f.Fuzz(func(t *testing.T, src string) {
		key, mo, err := QueryKey(src)
		for i := 0; i < 2; i++ {
			rkey, rmo, rerr := c.Resolve(src)
			if (rerr == nil) != (err == nil) || rkey != key || rmo != mo {
				t.Fatalf("Resolve #%d of %q = %q, %q, %v; QueryKey = %q, %q, %v", i+1, src, rkey, rmo, rerr, key, mo, err)
			}
			// A keyable text is remembered unless its alias alone outgrows a shard.
			fits := int64(len(src)+len(key)+len(mo))+entrySize <= c.aliases[0].maxBytes
			if remembered(c, src) != (err == nil && fits) {
				t.Fatalf("after Resolve #%d of %q: remembered %v, keyable %v", i+1, src, remembered(c, src), err == nil)
			}
		}
		if err != nil {
			return // unkeyable input is fine; panics are not
		}
		// Fixpoint: the key names itself.
		key2, mo2, err := QueryKey(key)
		if err != nil {
			t.Fatalf("canonical form of %q does not re-parse: %v\nkey: %s", src, err, key)
		}
		if key2 != key {
			t.Fatalf("canonicalization drifts for %q:\n  %q\n  %q", src, key, key2)
		}
		if mo2 != mo {
			t.Fatalf("MO attribution drifts for %q: %q vs %q", src, mo, mo2)
		}
		// Semantic preservation: source and key execute identically (both
		// failing identically also counts — the cache never stores errors).
		r1, err1 := query.Exec(src, cat, ref)
		r2, err2 := query.Exec(key, cat, ref)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("source and canonical form disagree on error for %q: %v vs %v\nkey: %s", src, err1, err2, key)
		}
		if err1 != nil {
			return
		}
		if !reflect.DeepEqual(r1.Columns, r2.Columns) || !reflect.DeepEqual(r1.Rows, r2.Rows) {
			t.Fatalf("source and canonical form disagree for %q\nkey: %s\nsrc result: %+v\nkey result: %+v", src, key, r1, r2)
		}
	})
}
