package storage

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/dimension"
)

// compactShared reduces one member's full-width shared-scan outputs to
// the solo AggregateBy view: zero-count values dropped, survivors in
// dictionary order.
func compactShared(values []string, counts []int64, args [][]float64) (vs []string, cs []int, as [][]float64) {
	for j, v := range values {
		if counts[j] == 0 {
			continue
		}
		vs = append(vs, v)
		cs = append(cs, int(counts[j]))
		if args != nil {
			as = append(as, args[j])
		} else {
			as = append(as, nil)
		}
	}
	return vs, cs, as
}

// foldOf replays agg.Acc.Add over a solo argument list — the reference
// for what an accumulator member's fold must equal, bit for bit.
func foldOf(list []float64) agg.Acc {
	var a agg.Acc
	for _, x := range list {
		a.Add(x)
	}
	return a
}

// foldEqual compares Accs bitwise: Sum must be the exact float the
// ascending left fold produces, not merely approximately equal.
func foldEqual(a, b agg.Acc) bool {
	return a.N == b.N && a.Seen == b.Seen &&
		math.Float64bits(a.Sum) == math.Float64bits(b.Sum) &&
		math.Float64bits(a.Min) == math.Float64bits(b.Min) &&
		math.Float64bits(a.Max) == math.Float64bits(b.Max)
}

// sharedMembers is the mixed member corpus: every combination of
// {selection, no selection} × {no argument, accumulator argument, list
// argument}, so one fused pass exercises count-only, accumulator, and
// per-fact list folds at once.
func sharedMembers(e *Engine) []SharedScanMember {
	sel := NewBitmap(e.NumFacts())
	for i := 0; i < e.NumFacts(); i += 2 {
		sel.Set(i)
	}
	return []SharedScanMember{
		{},
		{ArgDim: casestudy.DimAge},
		{ArgDim: casestudy.DimAge, ListArgs: true},
		{Sel: sel},
		{Sel: sel, ArgDim: casestudy.DimAge},
		{Sel: sel, ArgDim: casestudy.DimAge, ListArgs: true},
	}
}

// checkSharedMember asserts one member's fused outputs against its own
// solo AggregateBy: counts always, argument lists element-for-element for
// list members, and bitwise-equal Accs (replayed over the solo lists)
// for accumulator members.
func checkSharedMember(t *testing.T, tag string, e *Engine, dim, cat string, m SharedScanMember,
	values []string, counts []int64, args [][]float64, folds []agg.Acc) {
	t.Helper()
	gotV, gotC, gotA := compactShared(values, counts, args)
	wantV, wantC, wantA, err := e.AggregateBy(context.Background(), dim, cat, m.ArgDim, m.Sel)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotV) != fmt.Sprint(wantV) || fmt.Sprint(gotC) != fmt.Sprint(wantC) {
		t.Fatalf("%s: shared %v %v, solo %v %v", tag, gotV, gotC, wantV, wantC)
	}
	switch {
	case m.ArgDim == "":
	case m.ListArgs:
		if fmt.Sprint(gotA) != fmt.Sprint(wantA) {
			t.Fatalf("%s: shared args %v, solo %v", tag, gotA, wantA)
		}
	default:
		// Accumulator member: the scan's agg.Acc per value must be the
		// bitwise replay of folding the solo argument list in order.
		if folds == nil {
			t.Fatalf("%s: accumulator member got no folds", tag)
		}
		wi := 0
		for j, v := range values {
			if counts[j] == 0 {
				if folds[j].N != 0 || folds[j].Seen {
					t.Fatalf("%s: value %s has zero count but non-zero fold %+v", tag, v, folds[j])
				}
				continue
			}
			if want := foldOf(wantA[wi]); !foldEqual(folds[j], want) {
				t.Fatalf("%s: value %s fold %+v, solo replay %+v", tag, v, folds[j], want)
			}
			wi++
		}
	}
}

// TestSharedScanDifferential asserts that every member of a fused shared
// scan gets bit-identical outputs to its own solo AggregateBy — for every
// corpus engine and corpus (dim, cat). List members' argument lists are
// compared element-for-element (the fused scan must append in the same
// ascending dense-index order the solo kernels iterate); accumulator
// members' Accs are compared bitwise against a replay over the solo lists.
func TestSharedScanDifferential(t *testing.T) {
	for name, e := range genVariants(t) {
		members := sharedMembers(e)
		for _, dc := range columnDims {
			dim, cat := dc[0], dc[1]
			values, counts, args, folds, err := e.SharedAggregateBy(context.Background(), dim, cat, members, 1)
			if err != nil {
				t.Fatalf("%s %s/%s: %v", name, dim, cat, err)
			}
			for mi, m := range members {
				tag := fmt.Sprintf("%s %s/%s member=%d", name, dim, cat, mi)
				checkSharedMember(t, tag, e, dim, cat, m, values, counts[mi], args[mi], folds[mi])
			}
		}
	}
}

// TestSharedScanFullWidth pins the full-width contract the batch budget
// replay depends on: per member one count per dictionary value — zeros
// included — argument-list slots only for list members, and agg.Acc slots
// only for accumulator members.
func TestSharedScanFullWidth(t *testing.T) {
	e, _ := growEngine(t, 30)
	members := sharedMembers(e)
	dim, cat := casestudy.DimDiagnosis, casestudy.CatLowLevel
	values, counts, args, folds, err := e.SharedAggregateBy(context.Background(), dim, cat, members, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := len(e.mo.Dimension(dim).CategoryAt(cat, e.ctx))
	if len(values) != want {
		t.Fatalf("dictionary width %d, category has %d values", len(values), want)
	}
	for mi, m := range members {
		if len(counts[mi]) != want {
			t.Fatalf("member %d: %d counts, want %d", mi, len(counts[mi]), want)
		}
		if wantArgs := m.ArgDim != "" && m.ListArgs; (args[mi] != nil) != wantArgs {
			t.Fatalf("member %d: args non-nil=%v, want %v (ArgDim=%q ListArgs=%v)",
				mi, args[mi] != nil, wantArgs, m.ArgDim, m.ListArgs)
		}
		if wantFolds := m.ArgDim != "" && !m.ListArgs; (folds[mi] != nil) != wantFolds {
			t.Fatalf("member %d: folds non-nil=%v, want %v (ArgDim=%q ListArgs=%v)",
				mi, folds[mi] != nil, wantFolds, m.ArgDim, m.ListArgs)
		}
		if folds[mi] != nil && len(folds[mi]) != want {
			t.Fatalf("member %d: %d folds, want %d", mi, len(folds[mi]), want)
		}
	}
}

// TestStaleDictionaryAgreement is the regression test for the stale
// dictionary: a category that gains a value after its column was built
// (the column admits dictionary values only, so it codes the newer fact
// colNone) must still answer with the new group from every one-leg entry
// point — the kernel steps off the stale column onto the live dictionary —
// on a column-preferring engine and on a bitmap engine alike.
func TestStaleDictionaryAgreement(t *testing.T) {
	dim, cat := casestudy.DimAge, casestudy.CatTenYear
	bg := context.Background()
	for _, columns := range []bool{true, false} {
		e, grow := growEngine(t, 30)
		if columns {
			e.SetColumnMinValues(1) // the ten-year category has few values
			if err := e.BuildColumn(bg, dim, cat); err != nil {
				t.Fatal(err)
			}
			if e.columnFor(dim, cat) == nil {
				t.Fatal("fresh column not selected")
			}
		}
		// grow appends facts with ages in [20, 80); age 200 adds a ten-year
		// group the built column has never seen.
		m := e.MO()
		ageID, err := casestudy.AddAge(m.Dimension(dim), 200)
		if err != nil {
			t.Fatal(err)
		}
		lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
		if err := m.Relate(casestudy.DimDiagnosis, "old-timer", lows[0]); err != nil {
			t.Fatal(err)
		}
		if err := m.Relate(dim, "old-timer", ageID); err != nil {
			t.Fatal(err)
		}
		if err := e.AppendFact("old-timer"); err != nil {
			t.Fatal(err)
		}
		grow(2)
		if columns && (!e.HasColumn(dim, cat) || e.columnFor(dim, cat) != nil) {
			t.Fatal("a stale column must stay built but unselected")
		}
		group := casestudy.TenYearGroup(200)
		want := e.CountDistinctScan(dim, cat)
		if want[group] != 1 {
			t.Fatalf("model layer counts %d facts in %s, want 1", want[group], group)
		}
		n := e.NumFacts()
		tag := fmt.Sprintf("columns=%v", columns)

		check := func(entry string, got map[string]int, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", tag, entry, err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("%s %s: %v, want %v", tag, entry, got, want)
			}
		}
		compacted := func(values []string, cs []int) map[string]int {
			out := map[string]int{}
			for j, v := range values {
				out[v] = cs[j]
			}
			return out
		}
		checkSum := func(entry string, sums map[string]float64, err error) {
			t.Helper()
			if err != nil {
				t.Fatalf("%s %s: %v", tag, entry, err)
			}
			if len(sums) != len(want) || sums[group] != 200 {
				t.Fatalf("%s %s: %v, want %d groups with %s→200", tag, entry, sums, len(want), group)
			}
		}
		// First the entry points that take the engine as it is: over a stale
		// column they run the bitmap strategy on the live dictionary.
		counts, err := e.CountDistinctByContext(bg, dim, cat)
		check("CountDistinctByContext", counts, err)
		sums, err := e.SumByContext(bg, dim, cat, dim)
		checkSum("SumByContext", sums, err)
		vs, cs, _, err := e.AggregateBy(bg, dim, cat, "", nil)
		check("AggregateBy", compacted(vs, cs), err)
		vs, cs, _, err = e.AggregateByRange(bg, dim, cat, "", nil, 0, n)
		check("AggregateByRange", compacted(vs, cs), err)
		if columns && e.columnFor(dim, cat) != nil {
			t.Fatal("a scan that builds no column rebuilt the stale one")
		}
		// Then the ones that build the column they prefer: they replace the
		// stale one (BuildColumn's rule, the cross kernel's too), so the
		// leg is back on the column strategy afterwards.
		values, full, _, _, err := e.SharedAggregateBy(bg, dim, cat, []SharedScanMember{{}}, 1)
		if err == nil {
			vs, cs, _ = compactShared(values, full[0], nil)
		}
		check("SharedAggregateBy", compacted(vs, cs), err)
		if columns && e.columnFor(dim, cat) == nil {
			t.Fatal("ScanLeg left the stale column in place")
		}
		counts, err = e.CountByColumn(bg, dim, cat)
		check("CountByColumn", counts, err)
		sums, err = e.SumByColumn(bg, dim, cat, dim)
		checkSum("SumByColumn", sums, err)
	}
}

// TestColumnStaleAfterRemoveAndAdd pins the freshness probe: a category
// that lost one value and gained another has its old size but not its old
// dictionary, and the column must be rebuilt all the same.
func TestColumnStaleAfterRemoveAndAdd(t *testing.T) {
	dim, cat := casestudy.DimAge, casestudy.CatTenYear
	bg := context.Background()
	e, _ := growEngine(t, 30)
	e.SetColumnMinValues(1)
	d := e.MO().Dimension(dim)
	if err := d.AddValue(cat, "gone"); err != nil {
		t.Fatal(err)
	}
	if err := e.BuildColumn(bg, dim, cat); err != nil {
		t.Fatal(err)
	}
	if err := d.RemoveValue("gone"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddValue(cat, "come"); err != nil {
		t.Fatal(err)
	}
	if e.columnFor(dim, cat) != nil {
		t.Fatal("a column over a dictionary that swapped a value still passes as fresh")
	}
	s, err := e.ScanLeg(bg, dim, cat, []SharedScanMember{{}})
	if err != nil {
		t.Fatal(err)
	}
	if s.Kernel != KernelColumn || !reflect.DeepEqual(s.Values, d.CategoryAt(cat, e.ctx)) {
		t.Fatalf("ScanLeg ran %q over %v, want the rebuilt column over %v", s.Kernel, s.Values, d.CategoryAt(cat, e.ctx))
	}
}

// TestSharedScanUnknownDim asserts the kernel refuses (rather than
// panics) for a dimension the schema does not have.
func TestSharedScanUnknownDim(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 10
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	_, _, _, _, err := e.SharedAggregateBy(context.Background(), "NoSuchDim", "NoSuchCat", []SharedScanMember{{}}, 1)
	if err == nil {
		t.Fatal("unknown dimension: expected an error")
	}
}

// TestSharedScanGrownFacts asserts the fused kernel stays differential
// with solo after appends that do NOT grow the dictionary — the codes
// array and argument columns extend and both paths see the same facts.
func TestSharedScanGrownFacts(t *testing.T) {
	e, grow := growEngine(t, 30)
	dim, cat := casestudy.DimDiagnosis, casestudy.CatLowLevel
	if _, _, _, _, err := e.SharedAggregateBy(context.Background(), dim, cat, []SharedScanMember{{}}, 1); err != nil {
		t.Fatal(err)
	}
	grow(7)
	members := sharedMembers(e)
	values, counts, args, folds, err := e.SharedAggregateBy(context.Background(), dim, cat, members, 2)
	if err != nil {
		t.Fatal(err)
	}
	for mi, m := range members {
		tag := fmt.Sprintf("member %d after append", mi)
		checkSharedMember(t, tag, e, dim, cat, m, values, counts[mi], args[mi], folds[mi])
	}
}
