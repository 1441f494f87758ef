package storage

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
)

// growEngine builds a synthetic engine and returns it with its MO and a
// helper that relates-and-appends n new facts (each with a Diagnosis and
// an Age, so argument folds have values to extend).
func growEngine(t *testing.T, patients int) (*Engine, func(n int)) {
	t.Helper()
	cfg := casestudy.DefaultGen()
	cfg.Patients = patients
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	appended := 0
	return e, func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("delta%d", appended)
			appended++
			if err := m.Relate(casestudy.DimDiagnosis, id, lows[appended%len(lows)]); err != nil {
				t.Fatal(err)
			}
			ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), 20+appended%60)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Relate(casestudy.DimAge, id, ageID); err != nil {
				t.Fatal(err)
			}
			if err := e.AppendFact(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEpochJournal pins the journal contract delta maintenance stands
// on: the journal resolves exactly the epochs this engine issued, DeltaRange
// returns the appended dense range as one consistent observation, and a
// foreign engine's epoch is unknown (ok=false), never misresolved.
func TestEpochJournal(t *testing.T) {
	e, grow := growEngine(t, 20)
	e0, n0 := e.EpochFacts()
	if lo, hi, cur, ok := e.DeltaRange(e0); !ok || lo != n0 || hi != n0 || cur != e0 {
		t.Fatalf("DeltaRange(current) = [%d,%d)@%d,%v want empty range at %d", lo, hi, cur, ok, e0)
	}

	grow(3)
	e1, n1 := e.EpochFacts()
	if n1 != n0+3 || e1 == e0 {
		t.Fatalf("after 3 appends: epoch %d→%d facts %d→%d", e0, e1, n0, n1)
	}
	lo, hi, cur, ok := e.DeltaRange(e0)
	if !ok || lo != n0 || hi != n1 || cur != e1 {
		t.Fatalf("DeltaRange(old) = [%d,%d)@%d,%v want [%d,%d)@%d", lo, hi, cur, ok, n0, n1, e1)
	}
	// Intermediate epochs resolve too: each append journaled one window.
	if got, _, _, ok := e.DeltaRange(e1); !ok || got != n1 {
		t.Fatalf("DeltaRange(e1) starts at %d,%v", got, ok)
	}

	// An epoch this engine never issued — e.g. another engine's — must be
	// unknown, not approximated: a wrong lo would double-count or drop.
	other := patientEngine(t)
	if _, _, _, ok := e.DeltaRange(other.Epoch()); ok {
		t.Fatal("DeltaRange resolved a foreign epoch")
	}
	if _, _, _, ok := e.DeltaRange(0); ok {
		t.Fatal("DeltaRange resolved epoch 0 (the no-engine sentinel)")
	}
}

// TestEpochJournalTrim: the journal is bounded; epochs that fell out of
// the window report unknown (the caller falls back to invalidation,
// which is always sound), while recent epochs keep resolving.
func TestEpochJournalTrim(t *testing.T) {
	if testing.Short() {
		t.Skip("appends >maxEpochWindows facts")
	}
	e, grow := growEngine(t, 5)
	first, _ := e.EpochFacts()
	grow(maxEpochWindows + 10)
	if _, _, _, ok := e.DeltaRange(first); ok {
		t.Fatal("trimmed epoch still resolves")
	}
	recent, n := e.EpochFacts()
	if got, _, _, ok := e.DeltaRange(recent); !ok || got != n {
		t.Fatalf("recent epoch lost by trim: %d,%v", got, ok)
	}
	e.mu.RLock()
	w := len(e.windows)
	e.mu.RUnlock()
	if w > maxEpochWindows {
		t.Fatalf("journal grew past the bound: %d windows", w)
	}
}

// TestAggregateByRangeComposition pins the decomposition the delta fold
// relies on: the fold over [0, n) equals AggregateBy, and splitting at
// any lo reproduces it value for value, count for count, and argument
// value for argument value in the same order — the bit-identity
// precondition for continuing a cached fold.
func TestAggregateByRangeComposition(t *testing.T) {
	e, grow := growEngine(t, 40)
	_, lo := e.EpochFacts()
	grow(15)
	_, n := e.EpochFacts()
	ctx := context.Background()

	for _, q := range []struct{ dim, cat, arg string }{
		{casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimAge},
		{casestudy.DimDiagnosis, casestudy.CatFamily, ""},
		{casestudy.DimResidence, casestudy.CatRegion, casestudy.DimAge},
		{"", "", casestudy.DimAge}, // ⊤: the ungrouped fold is the leg of one value
	} {
		label := q.dim + "/" + q.cat
		fullV, fullC, fullA, err := e.AggregateBy(ctx, q.dim, q.cat, q.arg, nil)
		if err != nil {
			t.Fatal(err)
		}
		rangeV, rangeC, rangeA, err := e.AggregateByRange(ctx, q.dim, q.cat, q.arg, nil, 0, n)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fullV, rangeV) || !reflect.DeepEqual(fullC, rangeC) || !reflect.DeepEqual(fullA, rangeA) {
			t.Fatalf("%s: AggregateByRange(0,n) != AggregateBy", label)
		}

		preV, preC, preA, err := e.AggregateByRange(ctx, q.dim, q.cat, q.arg, nil, 0, lo)
		if err != nil {
			t.Fatal(err)
		}
		dV, dC, dA, err := e.AggregateByRange(ctx, q.dim, q.cat, q.arg, nil, lo, n)
		if err != nil {
			t.Fatal(err)
		}
		// Stitch prefix + delta per value and compare to the full fold.
		counts := map[string]int{}
		args := map[string][]float64{}
		for j, v := range preV {
			counts[v] += preC[j]
			args[v] = append(args[v], preA[j]...)
		}
		for j, v := range dV {
			counts[v] += dC[j]
			args[v] = append(args[v], dA[j]...)
		}
		for j, v := range fullV {
			if counts[v] != fullC[j] {
				t.Fatalf("%s %s: stitched count %d != full %d", label, v, counts[v], fullC[j])
			}
			if !reflect.DeepEqual(args[v], fullA[j]) && !(len(args[v]) == 0 && len(fullA[j]) == 0) {
				t.Fatalf("%s %s: stitched args %v != full %v", label, v, args[v], fullA[j])
			}
			delete(counts, v)
		}
		if len(counts) != 0 {
			t.Fatalf("%s: stitched values not in the full fold: %v", label, counts)
		}
	}
}

// TestMultiValuedRangeIdentity pins the strictness-continuation
// identity: MultiValued(all) == MultiValued([0,lo)) || delta probe.
// The generator's MixedGranularity plants facts with multiple admitted
// ancestors at Family, so both verdict polarities occur.
func TestMultiValuedRangeIdentity(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 50
	cfg.DiagnosesPerPatient = 3
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	n := e.NumFacts()

	for _, q := range []struct{ dim, cat string }{
		{casestudy.DimDiagnosis, casestudy.CatFamily},
		{casestudy.DimDiagnosis, casestudy.CatGroup},
		{casestudy.DimResidence, casestudy.CatRegion},
	} {
		full := e.MultiValued(q.dim, q.cat, nil)
		for _, lo := range []int{0, n / 3, n / 2, n} {
			split := e.MultiValuedRange(q.dim, q.cat, nil, 0, lo) || e.MultiValuedRange(q.dim, q.cat, nil, lo, n)
			if split != full {
				t.Fatalf("%s/%s split at %d: %v != full %v", q.dim, q.cat, lo, split, full)
			}
		}
	}
	if e.MultiValuedRange(casestudy.DimDiagnosis, casestudy.CatFamily, nil, n, n) {
		t.Fatal("empty range reported multi-valued")
	}
}

// TestPreaggFreshAfterAppend pins invalidation on append: a cache built
// before an append must not serve the old rows. After the append,
// RollupFrom answers exactly what a cache built fresh answers, and a
// materialization the rollup did not rebuild is gone — Lookup, the
// non-refreshing read, misses: an epoch move drops, it does not merge.
func TestPreaggFreshAfterAppend(t *testing.T) {
	e, grow := growEngine(t, 25)
	c := NewCache(e)
	dim, from, to := casestudy.DimDiagnosis, casestudy.CatLowLevel, casestudy.CatGroup

	before, err := c.Materialize(dim, from, KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	var totalBefore float64
	for _, v := range before.Rows {
		totalBefore += v
	}
	if _, err := c.Materialize(dim, from, KindSum, casestudy.DimAge); err != nil {
		t.Fatal(err)
	}

	grow(7)
	got, err := c.RollupFrom(dim, from, to, KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	want, err := NewCache(e).RollupFrom(dim, from, to, KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rollup after append != a cache built fresh\n%v\n%v", got, want)
	}
	after, ok := c.Lookup(dim, from, KindCount, "")
	if !ok {
		t.Fatal("rollup did not re-materialize its source")
	}
	var totalAfter float64
	for _, v := range after.Rows {
		totalAfter += v
	}
	if totalAfter != totalBefore+7 {
		t.Fatalf("re-materialized total = %v, want %v (stale pre-aggregate served?)", totalAfter, totalBefore+7)
	}
	if _, ok := c.Lookup(dim, from, KindSum, casestudy.DimAge); ok {
		t.Fatal("a pre-append materialization survived the epoch move")
	}
}
