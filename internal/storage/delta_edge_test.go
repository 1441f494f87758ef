package storage

import (
	"context"
	"testing"

	"mddm/internal/casestudy"
)

// TestRangeFoldEdges pins the range folds' boundary behavior: ranges are
// clamped rather than trusted (a caller holding a slightly-stale hi must
// not read past the universe, and a negative lo must not panic), an
// unknown dimension is an empty answer from every entry point rather than a
// nil-dereference crash, and
// cancellation surfaces as an error on both the grouped and global
// paths.
func TestRangeFoldEdges(t *testing.T) {
	e, grow := growEngine(t, 30)
	grow(10)
	n := e.NumFacts()
	ctx := context.Background()

	// hi past the end clamps to the universe; lo < 0 clamps to 0.
	vals, counts, _, err := e.AggregateByRange(ctx, casestudy.DimDiagnosis, casestudy.CatGroup, "", nil, 0, n+100)
	if err != nil {
		t.Fatal(err)
	}
	full, fullCounts, _, err := e.AggregateByRange(ctx, casestudy.DimDiagnosis, casestudy.CatGroup, "", nil, 0, n)
	if err != nil {
		t.Fatal(err)
	}
	if len(vals) != len(full) {
		t.Fatalf("clamped fold diverged: %v vs %v", vals, full)
	}
	for i := range counts {
		if counts[i] != fullCounts[i] {
			t.Fatalf("clamped counts diverged: %v vs %v", counts, fullCounts)
		}
	}
	// The ⊤ leg clamps the same way, and a selection restricts its count.
	if v, c, _, err := e.AggregateByRange(ctx, "", "", "", nil, -5, n+100); err != nil || len(v) != 1 || v[0] != "" || c[0] != n {
		t.Fatalf("clamped ⊤ fold = %v %v %v, want one group of %d", v, c, err, n)
	}
	two := NewBitmap(n)
	two.Set(0)
	two.Set(n - 1)
	if _, c, _, err := e.AggregateByRange(ctx, "", "", "", two, 0, n+1000); err != nil || len(c) != 1 || c[0] != 2 {
		t.Fatalf("selected ⊤ count = %v %v, want 2", c, err)
	}
	if e.MultiValuedRange(casestudy.DimDiagnosis, casestudy.CatGroup, nil, -5, n+100) !=
		e.MultiValuedRange(casestudy.DimDiagnosis, casestudy.CatGroup, nil, 0, n) {
		t.Fatal("clamped multi-valued probe diverged from the exact range")
	}

	// Empty range: empty answers, no error.
	if v, c, a, err := e.AggregateByRange(ctx, casestudy.DimDiagnosis, casestudy.CatGroup, "", nil, n, n); err != nil || v != nil || c != nil || a != nil {
		t.Fatalf("empty range = %v %v %v %v", v, c, a, err)
	}
	// Unknown dimension: every entry point answers empty, none panics.
	for name, empty := range map[string]func() bool{
		"AggregateByRange": func() bool {
			v, _, _, err := e.AggregateByRange(ctx, "Nope", "Nada", "", nil, 0, n)
			return err == nil && v == nil
		},
		"AggregateBy": func() bool {
			v, _, _, err := e.AggregateBy(ctx, "Nope", "Nada", "", nil)
			return err == nil && v == nil
		},
		"CountDistinctByContext": func() bool {
			m, err := e.CountDistinctByContext(ctx, "Nope", "Nada")
			return err == nil && len(m) == 0
		},
		"CountDistinctScan": func() bool { return len(e.CountDistinctScan("Nope", "Nada")) == 0 },
		"CrossCount":        func() bool { return e.CrossCount("Nope", "Nada", casestudy.DimResidence, casestudy.CatRegion) == nil },
		"MultiValuedRange":  func() bool { return !e.MultiValuedRange("Nope", "Nada", nil, 0, n) },
		"MultiValued":       func() bool { return !e.MultiValued("Nope", "Nada", nil) },
		"Values":            func() bool { return len(e.Values("Nope", "Nada")) == 0 },
		"ValueLists": func() bool {
			l, err := e.ValueLists(ctx, "Nope", "Nada", nil)
			return err == nil && l == nil
		},
	} {
		if !empty() {
			t.Errorf("unknown dimension: %s is not an empty answer", name)
		}
	}
	if e.MultiValuedRange(casestudy.DimDiagnosis, casestudy.CatGroup, nil, n, n) {
		t.Fatal("empty range reported multi-valued")
	}

	// A selection restricts the probe exactly as it restricts the fold: an
	// empty selection can never see two values for one fact.
	if e.MultiValuedRange(casestudy.DimDiagnosis, casestudy.CatGroup, NewBitmap(n), 0, n) {
		t.Fatal("empty selection reported multi-valued")
	}

	// Cancellation is honored on both fold paths.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := e.AggregateByRange(canceled, casestudy.DimDiagnosis, casestudy.CatGroup, "", nil, 0, n); err == nil {
		t.Fatal("canceled grouped fold did not error")
	}
	if _, _, _, err := e.AggregateByRange(canceled, "", "", "", nil, 0, n); err == nil {
		t.Fatal("canceled ⊤ fold did not error")
	}
}
