package storage

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/algebra"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// uncertainMO is the generator MO with a second, uncertain hierarchy edge:
// every third low-level diagnosis is in its user-defined second family with
// probability 0.8, so membership probabilities multiply along paths and
// differ per witness.
func uncertainMO(t testing.TB, patients int) *core.MO {
	t.Helper()
	cfg := casestudy.DefaultGen()
	cfg.Patients = patients
	cfg.NonStrict = false
	m := casestudy.MustGenerate(cfg)
	d := m.Dimension(casestudy.DimDiagnosis)
	fams := d.Category(casestudy.CatFamily)
	for k, low := range d.Category(casestudy.CatLowLevel) {
		if k%3 != 0 {
			continue
		}
		other := fams[(k+1)%len(fams)]
		if ok, _ := d.LessEq(low, other, dimension.CurrentContext(ref)); ok {
			continue
		}
		if err := d.AddEdgeAnnot(low, other, dimension.Always().WithProb(0.8)); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

var viewInstant = temporal.MustDate("15/06/1988")

// TestViewTimesliceMatchesSlicedModel: a view at a valid-time instant holds,
// for every dimension value, the closure an engine built over the algebra's
// ValidTimeslice of the model holds, the same measure column, and the same
// sliced dimensions.
func TestViewTimesliceMatchesSlicedModel(t *testing.T) {
	m := uncertainMO(t, 120)
	base := NewEngine(m, dimension.CurrentContext(ref))
	view, outcome := base.View(dimension.CurrentContext(ref).AtValid(viewInstant), false)
	if outcome != ViewBuilt || !view.IsView() || view == base {
		t.Fatalf("outcome %q, view %v", outcome, view)
	}
	sliced, err := algebra.ValidTimeslice(m, viewInstant, ref)
	if err != nil {
		t.Fatal(err)
	}
	want := NewEngine(sliced, dimension.CurrentContext(ref))
	if view.NumFacts() != want.NumFacts() {
		t.Fatalf("view has %d facts, sliced model %d", view.NumFacts(), want.NumFacts())
	}
	for _, dim := range m.Schema().DimensionNames() {
		if !view.Dimension(dim).Equal(sliced.Dimension(dim)) {
			t.Fatalf("%s: the view's dimension is not the sliced one", dim)
		}
		moved := 0
		for _, v := range sliced.Dimension(dim).Values() {
			got, exp := view.Characterizing(dim, v), want.Characterizing(dim, v)
			if !got.Equal(exp) {
				t.Fatalf("%s/%s: view closure %v, sliced model %v", dim, v, indices(got), indices(exp))
			}
			if !got.Equal(base.Characterizing(dim, v)) {
				moved++
			}
		}
		if dim != casestudy.DimAge && moved == 0 {
			t.Fatalf("%s: the timeslice moved no closure — the fixture has no churn", dim)
		}
	}
	if got, exp := view.ArgValues(casestudy.DimAge), want.ArgValues(casestudy.DimAge); !reflect.DeepEqual(got, exp) {
		t.Fatal("the view's measure column differs from the sliced model's")
	}
	// The kernels run over it unchanged, on either strategy.
	for _, cat := range []string{casestudy.CatGroup, casestudy.CatLowLevel} {
		got, err := view.CountByColumn(context.Background(), casestudy.DimDiagnosis, cat)
		if err != nil {
			t.Fatal(err)
		}
		if exp := want.CountDistinctBy(casestudy.DimDiagnosis, cat); !reflect.DeepEqual(got, exp) {
			t.Fatalf("%s: view counts %v, sliced model %v", cat, got, exp)
		}
	}
}

// TestViewProbMembers: a probability member of a view's scan folds, per
// value, the model's own P(f ⤳ value) over the value's facts in ascending
// order — for every reading, as an Acc and as a list, under a selection,
// on one leg, on ⊤ and on a cross-tab.
func TestViewProbMembers(t *testing.T) {
	mo := uncertainMO(t, 150)
	base := NewEngine(mo, dimension.CurrentContext(ref))
	for _, ectx := range []dimension.Context{
		dimension.CurrentContext(ref),
		dimension.CurrentContext(ref).AtValid(viewInstant).WithMinProb(0.75),
	} {
		view, _ := base.View(ectx, true)
		facts := view.ExportFacts()
		if !view.IsView() {
			t.Fatal("probabilities asked of a base engine")
		}
		oracle, octx := mo, view.Context()
		if ectx.Valid != nil {
			var err error
			if oracle, err = algebra.ValidTimeslice(mo, *ectx.Valid, ref); err != nil {
				t.Fatal(err)
			}
		}
		sel := NewBitmap(view.NumFacts())
		for i := 0; i < view.NumFacts(); i += 2 {
			sel.Set(i)
		}
		members := []SharedScanMember{
			{Prob: agg.ProbValue},
			{Prob: agg.ProbCertain, Sel: sel},
			{Prob: agg.ProbPossible},
			{Prob: agg.ProbValue, ListArgs: true, Sel: sel},
			{},
		}
		for _, leg := range []struct{ dim, cat string }{
			{casestudy.DimDiagnosis, casestudy.CatFamily},
			{casestudy.DimDiagnosis, casestudy.CatLowLevel},
			{"", ""},
		} {
			scan, err := view.ScanLeg(context.Background(), leg.dim, leg.cat, members)
			if err != nil {
				t.Fatal(err)
			}
			if scan.Kernel != KernelBitmap {
				t.Fatalf("%s/%s: a probability scan ran the %s strategy", leg.dim, leg.cat, scan.Kernel)
			}
			// The model's answer, once per leg: per value, its facts ascending
			// with P(f ⤳ value).
			type member struct {
				fact int
				p    float64
			}
			model, uncertain := map[string][]member{}, 0
			for i := 0; i < view.NumFacts(); i++ {
				if leg.dim == "" {
					model[""] = append(model[""], member{i, 1})
					continue
				}
				seen := map[string]bool{}
				for _, v := range factAncestors(oracle, leg.dim, facts[i], leg.cat, octx) {
					if seen[v] {
						continue
					}
					seen[v] = true
					_, p := oracle.CharacterizedBy(leg.dim, facts[i], v, octx)
					model[v] = append(model[v], member{i, p})
					if p != 1 {
						uncertain++
					}
				}
			}
			for j, v := range scan.Values {
				for k, m := range members {
					var acc agg.Acc
					var list []float64
					count := int64(0)
					for _, f := range model[v] {
						if m.Sel != nil && !m.Sel.Has(f.fact) {
							continue
						}
						count++
						acc.Add(m.Prob.Of(f.p))
						list = append(list, f.p)
					}
					got := scan.Members[k]
					if got.Counts[j] != count {
						t.Fatalf("%s/%s %s member %d: count %d, model %d", leg.dim, leg.cat, v, k, got.Counts[j], count)
					}
					switch {
					case m.Prob == agg.ProbNone:
					case m.ListArgs:
						if !reflect.DeepEqual(got.Args[j], list) {
							t.Fatalf("%s/%s %s: listed %v, model %v", leg.dim, leg.cat, v, got.Args[j], list)
						}
					case got.Folds[j] != acc:
						t.Fatalf("%s/%s %s member %d: fold %+v, model %+v", leg.dim, leg.cat, v, k, got.Folds[j], acc)
					}
				}
			}
			if leg.dim != "" && uncertain == 0 {
				t.Fatalf("%s/%s: every membership is certain — the fixture proves nothing", leg.dim, leg.cat)
			}
		}

		// The cross-tab: every cell its own group, folding the product of
		// the legs' membership probabilities.
		legs := []CrossLeg{{casestudy.DimDiagnosis, casestudy.CatFamily}, {casestudy.DimResidence, casestudy.CatCounty}}
		cells := 0
		err := view.CrossAggregateBy(context.Background(), legs, "", nil, false, agg.ProbValue, func(g *CrossGroup) error {
			cells++
			fam, county := g.Values[0][0], g.Values[1][0]
			if len(g.Values[0]) != 1 || len(g.Values[1]) != 1 {
				t.Fatalf("cell %v merged", g.Values)
			}
			var acc agg.Acc
			for i := 0; i < view.NumFacts(); i++ {
				f := facts[i]
				if !slices.Contains(factAncestors(oracle, legs[0].Dim, f, legs[0].Cat, octx), fam) ||
					!slices.Contains(factAncestors(oracle, legs[1].Dim, f, legs[1].Cat, octx), county) {
					continue
				}
				_, p1 := oracle.CharacterizedBy(legs[0].Dim, f, fam, octx)
				_, p2 := oracle.CharacterizedBy(legs[1].Dim, f, county, octx)
				acc.Add(1.0 * p1 * p2)
			}
			if g.Count != acc.N || g.Acc != acc {
				t.Fatalf("cell %s/%s: count %d fold %+v, model %+v", fam, county, g.Count, g.Acc, acc)
			}
			return nil
		})
		if err != nil || cells == 0 {
			t.Fatalf("cross: %d cells, err %v", cells, err)
		}
	}

	// Membership probabilities are a view's: the base engine refuses.
	if _, err := base.ScanLeg(context.Background(), casestudy.DimDiagnosis, casestudy.CatFamily, []SharedScanMember{{Prob: agg.ProbValue}}); err == nil {
		t.Fatal("a base engine scanned a probability member")
	}
	if err := base.CrossAggregateBy(context.Background(), []CrossLeg{{casestudy.DimDiagnosis, casestudy.CatFamily}}, "", nil, false, agg.ProbValue, func(*CrossGroup) error { return nil }); err == nil {
		t.Fatal("a base engine cross-tabbed probabilities")
	}
}

// factAncestors is the algebra's grouping rule: the category values that
// characterize the fact through an admitted pair and an admitted path.
func factAncestors(m *core.MO, dim, factID, cat string, ctx dimension.Context) []string {
	d, r := m.Dimension(dim), m.Relation(dim)
	var out []string
	for _, e := range r.ValuesOf(factID) {
		if a, _ := r.Annot(factID, e); ctx.Admits(a) {
			out = append(out, d.AncestorsIn(cat, e, ctx)...)
		}
	}
	return out
}

// viewContexts returns n distinct contexts.
func viewContexts(n int) []dimension.Context {
	out := make([]dimension.Context, n)
	for k := range out {
		out[k] = dimension.CurrentContext(ref).AtValid(viewInstant + temporal.Chronon(30*k))
	}
	return out
}

// TestViewTable pins the memo: one view per context while it fits, the
// least recently resolved one evicted when it does not, every one dropped
// by an append — after which a view holds the appended fact, and a view
// handed out before keeps answering without it.
func TestViewTable(t *testing.T) {
	m := uncertainMO(t, 60)
	base := NewEngine(m, dimension.CurrentContext(ref))
	if err := m.Relate(casestudy.DimDiagnosis, "pzz", m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)[0]); err != nil {
		t.Fatal(err)
	}
	own, outcome := base.View(dimension.CurrentContext(ref), false)
	if own != base || outcome != "" {
		t.Fatalf("the engine's own context resolved to %p (%q)", own, outcome)
	}
	probs, outcome := base.View(dimension.CurrentContext(ref), true)
	if probs == base || outcome != ViewBuilt || probs.Answers() != base.Answers() {
		t.Fatalf("probabilities of the own context: %p (%q)", probs, outcome)
	}
	if again, outcome := probs.View(dimension.CurrentContext(ref), true); again != probs || outcome != "" {
		t.Fatalf("a view resolved its own context to %p (%q)", again, outcome)
	}

	built, cached, dropped := mViewsBuilt.Value(), mViewsCached.Value(), mViewsDropped.Value()
	ctxs := viewContexts(maxViews) // with probs: one more than fits
	views := make([]*Engine, len(ctxs))
	for k, c := range ctxs {
		views[k], _ = base.View(c, false)
	}
	if mViewsBuilt.Value()-built != int64(len(ctxs)) || mViewsDropped.Value()-dropped != 1 {
		t.Fatalf("built %d dropped %d, want %d and 1", mViewsBuilt.Value()-built, mViewsDropped.Value()-dropped, len(ctxs))
	}
	if v, outcome := base.View(ctxs[len(ctxs)-1], false); v != views[len(ctxs)-1] || outcome != ViewCached {
		t.Fatalf("the last view was not kept (%q)", outcome)
	}
	if mViewsCached.Value()-cached != 1 {
		t.Fatalf("cached %d, want 1", mViewsCached.Value()-cached)
	}
	if v, outcome := base.View(dimension.CurrentContext(ref), true); v == probs || outcome != ViewBuilt {
		t.Fatalf("the least recently resolved view survived a full table (%q)", outcome)
	}
	// A view resolves any other context through its base.
	if v, _ := views[3].View(ctxs[5], false); v != views[5] {
		t.Fatal("a view resolved another context to a different engine than its base does")
	}

	old := views[len(ctxs)-1]
	before := old.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	dropped = mViewsDropped.Value()
	if err := base.AppendFact("pzz"); err != nil {
		t.Fatal(err)
	}
	if mViewsDropped.Value()-dropped != maxViews {
		t.Fatalf("the append dropped %d views, want %d", mViewsDropped.Value()-dropped, maxViews)
	}
	fresh, outcome := base.View(ctxs[len(ctxs)-1], false)
	if fresh == old || outcome != ViewBuilt || fresh.NumFacts() != old.NumFacts()+1 {
		t.Fatalf("after the append: %q, %d facts (before: %d)", outcome, fresh.NumFacts(), old.NumFacts())
	}
	after := fresh.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	total := func(c map[string]int) (n int) {
		for _, x := range c {
			n += x
		}
		return n
	}
	if total(after) != total(before)+1 {
		t.Fatalf("the appended fact is counted %d times in the new view", total(after)-total(before))
	}
	if again := old.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup); !reflect.DeepEqual(again, before) {
		t.Fatal("a view handed out before the append changed its answer")
	}
	if err := fresh.AppendFact("pzz2"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("a view accepted an append: %v", err)
	}
}

// TestViewRaceBuildAppendEvict is the race stress of the views' shared
// state: resolvers cycling through more contexts than the table holds
// (build, hit, evict), scanning what they resolve (lazy slicing, indexing,
// columns, measure columns), against AppendFact dropping the table. The MO
// is fully related before the goroutines start. A view never misses a
// fact its table's epoch had and counts none twice.
func TestViewRaceBuildAppendEvict(t *testing.T) {
	viewStorm(t, false)
}

// TestViewRaceBuildAppendRelate is the same storm with the appended facts'
// pairs handed to AppendFact, as a durable append does: the engine writes
// the MO's relations while views walk them.
func TestViewRaceBuildAppendRelate(t *testing.T) {
	viewStorm(t, true)
}

// viewStorm runs the view storm of TestViewRaceBuildAppendEvict. With
// relate, AppendFact records each appended fact's pairs during the storm;
// without, they are all related before it starts.
func viewStorm(t *testing.T, relate bool) {
	m := uncertainMO(t, 80)
	base := NewEngine(m, dimension.CurrentContext(ref))
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	const extra = 40
	ids := make([]string, extra)
	pairs := make([][]Pair, extra)
	for i := range ids {
		ids[i] = fmt.Sprintf("pnew%02d", i)
		pairs[i] = []Pair{
			{Dim: casestudy.DimDiagnosis, Value: lows[i%len(lows)], Annot: dimension.Always()},
			{Dim: casestudy.DimResidence, Value: "A0", Annot: dimension.Always()},
		}
		if relate {
			continue
		}
		for _, p := range pairs[i] {
			if err := m.Relate(p.Dim, ids[i], p.Value); err != nil {
				t.Fatal(err)
			}
		}
		pairs[i] = nil
	}
	// Contexts late enough that every appended fact — related without valid
	// time — and every base fact with an open-ended residence is admitted.
	ctxs := viewContexts(maxViews + 5)

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, id := range ids {
			if err := base.AppendFact(id, pairs[i]...); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 60; i++ {
				ectx := ctxs[(i*(r+1)+r)%len(ctxs)]
				atLeast := base.NumFacts()
				v, _ := base.View(ectx, i%2 == 0)
				n := v.NumFacts()
				if n < atLeast || n > 80+extra {
					t.Errorf("view of %d facts resolved when the engine had %d", n, atLeast)
					return
				}
				scan, err := v.ScanLeg(ctx, casestudy.DimResidence, casestudy.CatRegion,
					[]SharedScanMember{{}, {Prob: agg.ProbValue}, {ArgDim: casestudy.DimAge}})
				if err != nil {
					t.Error(err)
					return
				}
				total := int64(0)
				for _, c := range scan.Members[0].Counts {
					total += c
				}
				// Every patient lives in exactly one region at any instant.
				if total != int64(n) {
					t.Errorf("view of %d facts counts %d residents", n, total)
					return
				}
				if _, err := v.CountByColumn(ctx, casestudy.DimDiagnosis, casestudy.CatLowLevel); err != nil {
					t.Error(err)
					return
				}
				err = v.CrossAggregateBy(ctx, []CrossLeg{{casestudy.DimDiagnosis, casestudy.CatGroup}, {casestudy.DimResidence, casestudy.CatRegion}},
					"", nil, false, agg.ProbValue, func(g *CrossGroup) error {
						if g.Count <= 0 || math.IsNaN(g.Acc.Sum) {
							return fmt.Errorf("cell %v: count %d fold %+v", g.Values, g.Count, g.Acc)
						}
						return nil
					})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Quiescent: every context's view now holds every fact.
	for _, ectx := range ctxs {
		if v, _ := base.View(ectx, false); v.NumFacts() != 80+extra {
			t.Fatalf("after the storm a view has %d facts, want %d", v.NumFacts(), 80+extra)
		}
	}
}

// TestDictReadsRaceAppends pins the engine's reads of the shared fact
// dictionary against AppendFact, its one writer on a served model: views
// read fact ids and walk the relations by them for as long as appends
// intern new ids. A view's ids are a prefix of its base's order — the
// sorted base facts, then the appended ones in arrival order — whatever
// the dictionary grew to meanwhile.
func TestDictReadsRaceAppends(t *testing.T) {
	m := uncertainMO(t, 80)
	base := NewEngine(m, dimension.CurrentContext(ref))
	sorted := m.Facts().IDs()
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	const extra = 300
	ids := make([]string, extra)
	for i := range ids {
		ids[i] = fmt.Sprintf("a%03d", extra-i) // sorts before the base facts
	}
	want := append(slices.Clone(sorted), ids...)
	ctxs := viewContexts(4)
	var wg sync.WaitGroup
	var done atomic.Bool
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer done.Store(true)
		for i, id := range ids {
			if err := base.AppendFact(id, Pair{Dim: casestudy.DimDiagnosis, Value: lows[i%len(lows)], Annot: dimension.Always()}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; !done.Load() || i < 10; i++ {
				v, _ := base.View(ctxs[(i+r)%len(ctxs)], false)
				got := v.ExportFacts()
				sel := NewBitmap(len(got)).Fill()
				if !slices.Equal(got, want[:len(got)]) || !slices.Equal(v.SelectedFactIDs(sel), got) {
					t.Errorf("view of %d facts reads ids %v", len(got), got)
					return
				}
				if _, err := v.ScanLeg(context.Background(), casestudy.DimDiagnosis, casestudy.CatGroup, []SharedScanMember{{}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := base.ExportFacts(); !slices.Equal(got, want) {
		t.Fatalf("base order %v, want %v", got, want)
	}
}

// TestViewCoveringMatchesDimension checks the memoized covering verdict
// against the walk it stands for: for every pair of categories, on a base
// engine and on a timeslice, a threshold and a combined view, asked twice
// (the second answer read from the memo) and after an append, which
// leaves the verdicts standing.
func TestViewCoveringMatchesDimension(t *testing.T) {
	m := uncertainMO(t, 60)
	base := NewEngine(m, dimension.CurrentContext(ref))
	engines := []*Engine{base}
	for _, c := range []dimension.Context{
		dimension.CurrentContext(ref).AtValid(viewInstant),
		dimension.CurrentContext(ref).WithMinProb(0.9),
		dimension.CurrentContext(ref).AtValid(viewInstant).WithMinProb(0.9),
	} {
		v, _ := base.View(c, false)
		engines = append(engines, v)
	}
	check := func(stage string) {
		t.Helper()
		for k, e := range engines {
			for _, dim := range m.Schema().DimensionNames() {
				d := e.Dimension(dim)
				for _, below := range d.Type().CategoryTypes() {
					for _, cat := range d.Type().CategoryTypes() {
						if got, want := e.Covering(dim, below, cat), d.Covering(below, cat, e.Context()); got != want {
							t.Errorf("%s: engine %d: Covering(%s, %s, %s) = %v, the walk gives %v", stage, k, dim, below, cat, got, want)
						}
					}
				}
			}
		}
	}
	check("first")
	check("memoized")
	if err := base.AppendFact("appended", Pair{Dim: casestudy.DimDiagnosis, Value: dimension.TopValue, Annot: dimension.Always()}); err != nil {
		t.Fatal(err)
	}
	check("after an append")
}
