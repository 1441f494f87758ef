package storage

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/qos"
)

// TestBuildEngineRejectsUnknownFact covers the silent-corruption bug the
// robustness pass fixed: a fact–dimension pair naming a fact absent from
// the MO's fact set used to be indexed at position 0 (the zero value of
// the index map), polluting the first fact's bitmaps. BuildEngine must
// reject it with a typed error instead.
func TestBuildEngineRejectsUnknownFact(t *testing.T) {
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Smuggle a pair for a fact the MO does not contain, bypassing the
	// MO-level validation the same way a corrupt load would.
	r := m.Relation(casestudy.DimDiagnosis)
	pairs := r.Pairs()
	if len(pairs) == 0 {
		t.Fatal("no pairs")
	}
	r.AddAnnot("ghost", pairs[0].ValueID, pairs[0].Annot)

	_, err = BuildEngine(context.Background(), m, dimension.CurrentContext(ref))
	if err == nil {
		t.Fatal("unknown fact must be rejected")
	}
	if !errors.Is(err, ErrUnknownFact) {
		t.Fatalf("want ErrUnknownFact, got %v", err)
	}
	var ue *UnknownFactError
	if !errors.As(err, &ue) {
		t.Fatalf("want *UnknownFactError, got %T", err)
	}
	if ue.FactID != "ghost" || ue.Dim != casestudy.DimDiagnosis {
		t.Fatalf("error fields: %+v", ue)
	}
}

// TestBuildEngineCanceled checks that engine construction itself honors
// cancellation.
func TestBuildEngineCanceled(t *testing.T) {
	m := casestudy.MustGenerate(casestudy.DefaultGen())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := BuildEngine(ctx, m, dimension.CurrentContext(ref))
	if !errors.Is(err, qos.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestConcurrentAppendAndRead mixes incremental appends with concurrent
// readers on one engine; run under -race this is the engine's
// concurrency contract. The MO itself is fully prepared up front (the
// appended facts' relations included), so the only shared mutable state
// is the engine.
func TestConcurrentAppendAndRead(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 80
	m := casestudy.MustGenerate(cfg)
	c := dimension.CurrentContext(ref)
	e := NewEngine(m, c)
	// Warm closures so appends propagate into memoized bitmaps while
	// readers clone them.
	e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)

	// Prepare the extra facts single-threaded: once the goroutines start,
	// the MO is read-only.
	diag := m.Dimension(casestudy.DimDiagnosis)
	lows := diag.Category(casestudy.CatLowLevel)
	const extra = 40
	ids := make([]string, extra)
	for i := range ids {
		ids[i] = fmt.Sprintf("new%d", i)
		if err := m.Relate(casestudy.DimDiagnosis, ids[i], lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
		if err := m.Relate(casestudy.DimResidence, ids[i], "A0"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			if err := e.AppendFact(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				counts := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
				total := 0
				for _, n := range counts {
					total += n
				}
				if total < cfg.Patients {
					t.Errorf("lost facts: %d < %d", total, cfg.Patients)
					return
				}
				bm := e.Characterizing(casestudy.DimResidence, "A0")
				if bm != nil {
					_ = bm.Count()
				}
			}
		}()
	}
	wg.Wait()

	// Quiesced: the engine must answer exactly like a fresh rebuild.
	fresh := NewEngine(m, c)
	inc := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	reb := fresh.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	if len(inc) != len(reb) {
		t.Fatalf("%v vs %v", inc, reb)
	}
	for v, n := range reb {
		if inc[v] != n {
			t.Errorf("%s: incremental %d, rebuild %d", v, inc[v], n)
		}
	}
}

// TestMaterializeContextBudget checks the storage-level scan budget: a
// fact budget smaller than the dataset stops the base computation with
// the typed error.
func TestMaterializeContextBudget(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 200
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	cache := NewCache(e)
	ctx := qos.WithFactBudget(context.Background(), 10)
	_, err := cache.MaterializeContext(ctx, casestudy.DimDiagnosis, casestudy.CatGroup, KindCount, "")
	if !errors.Is(err, qos.ErrResourceExhausted) {
		t.Fatalf("want ErrResourceExhausted, got %v", err)
	}
}

// TestQueryCancellation pins cooperative cancellation: a canceled context
// stops the count and the bitmap cross-tab with qos.ErrCanceled.
func TestQueryCancellation(t *testing.T) {
	m := casestudy.MustGenerate(casestudy.DefaultGen())
	e := NewEngine(m, dimension.CurrentContext(ref))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CountDistinctByContext(ctx, casestudy.DimDiagnosis, casestudy.CatGroup); !errors.Is(err, qos.ErrCanceled) {
		t.Errorf("canceled count = %v, want ErrCanceled", err)
	}
	if _, err := e.crossCount(qos.NewGuard(ctx), casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimResidence, casestudy.CatCounty); !errors.Is(err, qos.ErrCanceled) {
		t.Errorf("canceled cross-count = %v, want ErrCanceled", err)
	}
}

// TestConcurrentQueriesRaceWithAppends is the stress mix the race detector
// watches: concurrent counting and cross-tab readers interleaved with
// incremental appends. The MO is fully prepared single-threaded (the MO
// itself is read-only once goroutines start); the engine is the only
// shared mutable state. Counts are checked to never go below the base
// population — every read must be a consistent snapshot — and the quiesced
// engine must answer like a fresh rebuild.
func TestConcurrentQueriesRaceWithAppends(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 80
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup) // warm closures

	diag := m.Dimension(casestudy.DimDiagnosis)
	lows := diag.Category(casestudy.CatLowLevel)
	const extra = 40
	ids := make([]string, extra)
	for i := range ids {
		ids[i] = fmt.Sprintf("pnew%d", i)
		if err := m.Relate(casestudy.DimDiagnosis, ids[i], lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
		if err := m.Relate(casestudy.DimResidence, ids[i], "A0"); err != nil {
			t.Fatal(err)
		}
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, id := range ids {
			if err := e.AppendFact(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 30; i++ {
				counts, err := e.CountDistinctByContext(ctx, casestudy.DimDiagnosis, casestudy.CatGroup)
				if err != nil {
					t.Error(err)
					return
				}
				total := 0
				for _, n := range counts {
					total += n
				}
				if total < cfg.Patients {
					t.Errorf("lost facts: %d < %d", total, cfg.Patients)
					return
				}
				if _, err := e.crossCount(qos.NewGuard(ctx), casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimResidence, casestudy.CatCounty); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()

	fresh := NewEngine(m, dimension.CurrentContext(ref))
	got, err := e.CountDistinctByContext(context.Background(), casestudy.DimDiagnosis, casestudy.CatGroup)
	if err != nil {
		t.Fatal(err)
	}
	if want := fresh.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("post-append count: %v, want %v", got, want)
	}
	gotCross := e.CrossCount(casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimResidence, casestudy.CatCounty)
	if want := fresh.CrossCount(casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimResidence, casestudy.CatCounty); fmt.Sprint(gotCross) != fmt.Sprint(want) {
		t.Errorf("post-append cross-count: %v, want %v", gotCross, want)
	}
}
