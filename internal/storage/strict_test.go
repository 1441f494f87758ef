package storage

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
)

// strictOracle counts, per dense fact of e, the distinct values of the
// category that characterize it — read off the model (MO.CharacterizedBy
// over CategoryAt, under the context e answers under), never off the
// engine's bitmaps or columns.
func strictOracle(e *Engine, dim, cat string) []int {
	m, ectx := e.MO(), e.Answers()
	vals := m.Dimension(dim).CategoryAt(cat, ectx)
	facts := e.ExportFacts()
	out := make([]int, len(facts))
	for i, f := range facts {
		for _, v := range vals {
			if ok, _ := m.CharacterizedBy(dim, f, v, ectx); ok {
				out[i]++
			}
		}
	}
	return out
}

// strictLegs lists every (dimension, category) of e's schema.
func strictLegs(e *Engine) [][2]string {
	var out [][2]string
	for _, dim := range e.MO().Schema().DimensionNames() {
		for _, cat := range e.MO().Dimension(dim).Type().CategoryTypes() {
			out = append(out, [2]string{dim, cat})
		}
	}
	return out
}

// checkStrictness checks MultiValuedRange (and MultiValued) against the
// oracle on every leg of e's schema, under a nil, an empty, a WHERE-
// compiled and a multi-free selection, over the whole range, a prefix, a
// suffix from k and the empty range at k. It returns how many legs the
// oracle found non-strict over all facts.
func checkStrictness(t *testing.T, label string, e *Engine, k int) (nonStrict int) {
	t.Helper()
	n := e.NumFacts()
	// What WHERE Residence = '<first county>' compiles to.
	where := NewBitmap(n)
	if counties := e.MO().Dimension(casestudy.DimResidence).CategoryAt(casestudy.CatCounty, e.Answers()); len(counties) > 0 {
		where = e.Characterizing(casestudy.DimResidence, counties[0])
	}
	for _, leg := range strictLegs(e) {
		dim, cat := leg[0], leg[1]
		counts := strictOracle(e, dim, cat)
		single := NewBitmap(n)
		for i, c := range counts {
			if c < 2 {
				single.Set(i)
			}
		}
		want := func(sel *Bitmap, lo, hi int) bool {
			for i := max(lo, 0); i < min(hi, n); i++ {
				if counts[i] >= 2 && (sel == nil || sel.Has(i)) {
					return true
				}
			}
			return false
		}
		if want(nil, 0, n) {
			nonStrict++
		}
		sels := []struct {
			name string
			sel  *Bitmap
		}{{"nil", nil}, {"empty", NewBitmap(n)}, {"where", where}, {"multi-free", single}}
		ranges := [][2]int{{0, n}, {0, k}, {k, n}, {k, k}}
		for _, s := range sels {
			for _, r := range ranges {
				if got, exp := e.MultiValuedRange(dim, cat, s.sel, r[0], r[1]), want(s.sel, r[0], r[1]); got != exp {
					t.Errorf("%s: %s/%s sel=%s [%d,%d): probe %v, model %v", label, dim, cat, s.name, r[0], r[1], got, exp)
				}
			}
			if got, exp := e.MultiValued(dim, cat, s.sel), want(s.sel, 0, n); got != exp {
				t.Errorf("%s: %s/%s sel=%s: MultiValued %v, model %v", label, dim, cat, s.name, got, exp)
			}
		}
	}
	return nonStrict
}

// relateManyToMany relates a new fact to two low-level diagnoses of
// different groups and to two areas of different regions: non-strict at
// every category of both dimensions.
func relateManyToMany(t *testing.T, m *core.MO, id string) {
	t.Helper()
	for _, p := range manyToManyPairs(t, m) {
		if err := m.Relate(p.Dim, id, p.Value); err != nil {
			t.Fatal(err)
		}
	}
}

// manyToManyPairs is the pairs relateManyToMany relates.
func manyToManyPairs(t *testing.T, m *core.MO) []Pair {
	t.Helper()
	ctx := dimension.CurrentContext(ref)
	pick := func(dim, leaf, top string) []Pair {
		d := m.Dimension(dim)
		var out []Pair
		seen := map[string]bool{}
		for _, v := range d.CategoryAt(leaf, ctx) {
			for _, up := range d.CategoryAt(top, ctx) {
				if ok, _ := d.LessEq(v, up, ctx); ok && !seen[up] && len(out) < 2 {
					seen[up] = true
					out = append(out, Pair{Dim: dim, Value: v, Annot: dimension.Always()})
				}
			}
		}
		if len(out) < 2 {
			t.Fatalf("no two %s values in different %s values", leaf, top)
		}
		return out
	}
	return append(pick(casestudy.DimDiagnosis, casestudy.CatLowLevel, casestudy.CatGroup),
		pick(casestudy.DimResidence, casestudy.CatArea, casestudy.CatRegion)...)
}

// TestMultiValuedMatchesModel checks the strictness probe against a model
// oracle on the case-study engine, strict and non-strict generated engines,
// an ASOF view and a WITH PROB view; then again after appending a
// many-to-many fact, and on an engine whose columns were installed from a
// pre-append export through InstallColumn and then maintained by the
// same append.
func TestMultiValuedMatchesModel(t *testing.T) {
	caseMO, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	strictCfg := casestudy.DefaultGen()
	strictCfg.Patients, strictCfg.DiagnosesPerPatient = 60, 1
	strictCfg.NonStrict, strictCfg.MixedGranularity, strictCfg.Churn = false, false, false
	nonStrictCfg := casestudy.DefaultGen()
	nonStrictCfg.Patients = 60
	uncertain := uncertainMO(t, 60)
	uncertainBase := NewEngine(uncertain, dimension.CurrentContext(ref))
	asOf, _ := uncertainBase.View(dimension.CurrentContext(ref).AtValid(viewInstant), false)
	withProb, _ := uncertainBase.View(dimension.CurrentContext(ref).WithMinProb(0.75), true)

	engines := []struct {
		name string
		e    *Engine
	}{
		{"case-study", NewEngine(caseMO, dimension.CurrentContext(ref))},
		{"strict", NewEngine(casestudy.MustGenerate(strictCfg), dimension.CurrentContext(ref))},
		{"non-strict", NewEngine(casestudy.MustGenerate(nonStrictCfg), dimension.CurrentContext(ref))},
		{"asof", asOf},
		{"with-prob", withProb},
	}
	nonStrict := map[string]int{}
	for _, c := range engines {
		nonStrict[c.name] = checkStrictness(t, c.name, c.e, c.e.NumFacts()/2)
	}
	if nonStrict["strict"] != 0 || nonStrict["non-strict"] == 0 {
		t.Fatalf("fixtures: non-strict legs %v — want none on the strict engine, some on the non-strict one", nonStrict)
	}

	// Append a many-to-many fact; the suffix range [n-1, n) is exactly
	// the delta an upgrade probes.
	base := engines[2].e
	saved := base.ExportColumns()
	m := base.MO()
	relateManyToMany(t, m, "m2m")
	if err := base.AppendFact("m2m"); err != nil {
		t.Fatal(err)
	}
	n := base.NumFacts()
	checkStrictness(t, "appended", base, n-1)
	for _, leg := range [][2]string{{casestudy.DimDiagnosis, casestudy.CatGroup}, {casestudy.DimResidence, casestudy.CatRegion}} {
		if !base.MultiValuedRange(leg[0], leg[1], nil, n-1, n) {
			t.Errorf("%s/%s: the appended many-to-many fact is not multi-valued", leg[0], leg[1])
		}
	}

	// Install the pre-append columns into a fresh engine over the same
	// model — the dense order a snapshot's columns assume — then grow it
	// the same way: AppendFact carries every installed column through the
	// append, as recovery does for the records a snapshot postdates.
	m2 := casestudy.MustGenerate(nonStrictCfg)
	restored := NewEngine(m2, dimension.CurrentContext(ref))
	for _, c := range saved {
		if err := restored.InstallColumn(c.Dim, c.Cat, c.Vals, slices.Clone(c.Codes), c.Over); err != nil {
			t.Fatal(err)
		}
	}
	relateManyToMany(t, m2, "m2m")
	if err := restored.AppendFact("m2m"); err != nil {
		t.Fatal(err)
	}
	if n := len(restored.ExportColumns()); n != len(strictLegs(restored)) {
		t.Fatalf("restored %d columns, schema has %d legs", n, len(strictLegs(restored)))
	}
	checkStrictness(t, "restored", restored, n-1)
}

// TestMultiValuedNoAllocs pins the probe's cost on a warm column: no
// allocation, with or without a selection.
func TestMultiValuedNoAllocs(t *testing.T) {
	e := NewEngine(casestudy.MustGenerate(casestudy.DefaultGen()), dimension.CurrentContext(ref))
	sel := e.Characterizing(casestudy.DimResidence, e.MO().Dimension(casestudy.DimResidence).Category(casestudy.CatCounty)[0])
	for _, cat := range []string{casestudy.CatLowLevel, casestudy.CatFamily, casestudy.CatGroup} {
		e.MultiValued(casestudy.DimDiagnosis, cat, nil) // warm the column
		for _, s := range []*Bitmap{nil, sel} {
			if a := testing.AllocsPerRun(100, func() { e.MultiValued(casestudy.DimDiagnosis, cat, s) }); a != 0 {
				t.Errorf("%s (sel %v): %v allocs per probe, want 0", cat, s != nil, a)
			}
		}
	}
}

// TestMultiValuedConcurrentAppend runs the probe on cold low-cardinality
// columns — so it builds them under the write lock from reader goroutines
// — concurrently with AppendFact and ScanLeg; under -race this is the
// probe's share of the engine's concurrency contract. Quiesced, every
// probe agrees with the model.
func TestMultiValuedConcurrentAppend(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 80
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	const extra = 20
	ids := make([]string, extra)
	for i := range ids {
		ids[i] = fmt.Sprintf("strict%d", i)
		relateManyToMany(t, m, ids[i])
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
	legs := [][2]string{
		{casestudy.DimDiagnosis, casestudy.CatGroup},
		{casestudy.DimResidence, casestudy.CatRegion},
		{casestudy.DimResidence, casestudy.CatCounty},
	}
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				leg := legs[(r+i)%len(legs)]
				e.MultiValued(leg[0], leg[1], nil)
				e.MultiValuedRange(leg[0], leg[1], e.Characterizing(casestudy.DimResidence, "A0"), cfg.Patients, e.NumFacts())
				if _, err := e.ScanLeg(context.Background(), leg[0], leg[1], []SharedScanMember{{}}); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	checkStrictness(t, "quiesced", e, cfg.Patients)
}

// TestExportOverflowSharedUnderAppends pins the shared overflow tables:
// ExportColumns hands out each column's own overflow slice and
// InstallColumn keeps the one it is given, so an engine, its export and
// an engine restored from that export share one array. Many-to-many
// appends to both engines run while the export is read and the columns
// are scanned: the export never changes, and afterwards the two engines
// answer alike on every leg.
func TestExportOverflowSharedUnderAppends(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 200
	ctx := context.Background()
	live := NewEngine(casestudy.MustGenerate(cfg), dimension.CurrentContext(ref))
	if err := live.WarmColumns(ctx, 2); err != nil {
		t.Fatal(err)
	}
	saved := live.ExportColumns()
	want, entries := make([][]OverflowEntry, len(saved)), 0
	for i, c := range saved {
		want[i] = slices.Clone(c.Over)
		entries += len(c.Over)
	}
	if entries == 0 {
		t.Fatal("fixture: no column has an overflow entry")
	}
	restored := NewEngine(casestudy.MustGenerate(cfg), dimension.CurrentContext(ref))
	for _, c := range saved {
		if err := restored.InstallColumn(c.Dim, c.Cat, c.Vals, c.Codes, c.Over); err != nil {
			t.Fatal(err)
		}
	}
	pairs := manyToManyPairs(t, live.MO())

	done := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			for i, c := range saved {
				if !slices.Equal(c.Over, want[i]) {
					t.Errorf("%s/%s: an append rewrote the exported overflow table", c.Dim, c.Cat)
					return
				}
			}
			for _, e := range []*Engine{live, restored} {
				for _, c := range e.ExportColumns() {
					for k := 1; k < len(c.Over); k++ {
						if c.Over[k].Fact < c.Over[k-1].Fact {
							t.Errorf("%s/%s: exported overflow table out of order", c.Dim, c.Cat)
							return
						}
					}
				}
				if _, err := e.CountDistinctByContext(ctx, casestudy.DimDiagnosis, casestudy.CatGroup); err != nil {
					t.Error(err)
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
		}
	}()
	var writers sync.WaitGroup
	for _, e := range []*Engine{live, restored} {
		writers.Add(1)
		go func(e *Engine) {
			defer writers.Done()
			for i := 0; i < 50; i++ {
				if err := e.AppendFact(fmt.Sprintf("m2m%03d", i), pairs...); err != nil {
					t.Error(err)
					return
				}
			}
		}(e)
	}
	writers.Wait()
	close(done)
	readers.Wait()

	for _, leg := range strictLegs(live) {
		got, err := restored.CountDistinctByContext(ctx, leg[0], leg[1])
		if err != nil {
			t.Fatal(err)
		}
		ref, err := live.CountDistinctByContext(ctx, leg[0], leg[1])
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(ref) {
			t.Errorf("%s/%s: restored engine answers %v, live %v", leg[0], leg[1], got, ref)
		}
	}
}
