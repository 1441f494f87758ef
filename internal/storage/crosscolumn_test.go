package storage

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/qos"
)

// crossGroups runs CrossAggregateBy and renders every group as one
// canonical line (per-leg value sets sorted), sorted — comparable across
// cell stores and against the reference grouping.
func crossGroups(t *testing.T, e *Engine, legs []CrossLeg, argDim string, sel *Bitmap, listArgs bool) []string {
	t.Helper()
	var out []string
	err := e.CrossAggregateBy(context.Background(), legs, argDim, sel, listArgs, agg.ProbNone, func(g *CrossGroup) error {
		var b strings.Builder
		for _, vals := range g.Values {
			vs := append([]string(nil), vals...)
			sort.Strings(vs)
			fmt.Fprintf(&b, "%v ", vs)
		}
		fmt.Fprintf(&b, "n=%d acc=%+v args=%v", g.Count, g.Acc, g.Args)
		out = append(out, b.String())
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(out)
	return out
}

// refCrossGroups is the reference grouping: per-fact value lists,
// string-keyed cells, member-set merge — the algebra's aggregate formation
// spelled out — rendered like crossGroups.
func refCrossGroups(t *testing.T, e *Engine, legs []CrossLeg, argDim string, sel *Bitmap, listArgs bool) []string {
	t.Helper()
	lists := make([][][]string, len(legs))
	for d, l := range legs {
		var err error
		if lists[d], err = e.ValueLists(context.Background(), l.Dim, l.Cat, sel); err != nil {
			t.Fatal(err)
		}
	}
	var av [][]float64
	if argDim != "" {
		av = e.ArgValues(argDim)
	}
	members := map[string][]int{}
	for i := range lists[0] {
		combos := []string{""}
		for d := range legs {
			var next []string
			for _, c := range combos {
				for _, v := range lists[d][i] {
					next = append(next, c+v+"\x00")
				}
			}
			combos = next
		}
		for _, c := range combos {
			members[c] = append(members[c], i)
		}
	}
	type group struct {
		members []int
		perLeg  []map[string]bool
	}
	merged := map[string]*group{}
	for cell, ms := range members {
		key := fmt.Sprint(ms)
		g := merged[key]
		if g == nil {
			g = &group{members: ms, perLeg: make([]map[string]bool, len(legs))}
			for d := range g.perLeg {
				g.perLeg[d] = map[string]bool{}
			}
			merged[key] = g
		}
		for d, v := range strings.Split(strings.TrimSuffix(cell, "\x00"), "\x00") {
			g.perLeg[d][v] = true
		}
	}
	var out []string
	for _, g := range merged {
		var b strings.Builder
		for _, set := range g.perLeg {
			var vs []string
			for v := range set {
				vs = append(vs, v)
			}
			sort.Strings(vs)
			fmt.Fprintf(&b, "%v ", vs)
		}
		var acc agg.Acc
		var args []float64
		for _, i := range g.members {
			if i < len(av) {
				for _, x := range av[i] {
					acc.Add(x)
					if listArgs {
						args = append(args, x)
					}
				}
			}
		}
		fmt.Fprintf(&b, "n=%d acc=%+v args=%v", len(g.members), acc, args)
		out = append(out, b.String())
	}
	sort.Strings(out)
	return out
}

// forceSparseCells lowers the dense index cap so every cross product of
// the test corpus goes through the map index.
func forceSparseCells(t *testing.T) {
	t.Helper()
	old := maxCrossColumnCells
	maxCrossColumnCells = 1
	t.Cleanup(func() { maxCrossColumnCells = old })
}

var crossLegSets = [][]CrossLeg{
	{{casestudy.DimDiagnosis, casestudy.CatLowLevel}, {casestudy.DimResidence, casestudy.CatArea}},
	{{casestudy.DimDiagnosis, casestudy.CatFamily}, {casestudy.DimResidence, casestudy.CatCounty}},
	{{casestudy.DimDiagnosis, casestudy.CatGroup}, {casestudy.DimResidence, casestudy.CatRegion}},
	{{casestudy.DimDiagnosis, casestudy.CatFamily}, {casestudy.DimResidence, casestudy.CatRegion}, {casestudy.DimAge, casestudy.CatTenYear}},
}

// TestCrossAggregateDifferential asserts the cross kernel ≡ the reference
// grouping — groups, merged value sets, counts, argument folds and lists —
// on every corpus engine and leg set, unselected and selected, through the
// dense cell index and through the map index.
func TestCrossAggregateDifferential(t *testing.T) {
	for _, store := range []string{"dense", "sparse"} {
		t.Run(store, func(t *testing.T) {
			if store == "sparse" {
				forceSparseCells(t)
			}
			for name, e := range genVariants(t) {
				sel := NewBitmap(e.NumFacts())
				for i := 0; i < e.NumFacts(); i += 3 {
					sel.Set(i)
					sel.Set(i + 1)
				}
				for _, legs := range crossLegSets {
					for _, tc := range []struct {
						argDim   string
						sel      *Bitmap
						listArgs bool
					}{
						{"", nil, false},
						{casestudy.DimAge, nil, false},
						{casestudy.DimAge, sel, false},
						{casestudy.DimAge, sel, true},
					} {
						got := crossGroups(t, e, legs, tc.argDim, tc.sel, tc.listArgs)
						want := refCrossGroups(t, e, legs, tc.argDim, tc.sel, tc.listArgs)
						if strings.Join(got, "\n") != strings.Join(want, "\n") {
							t.Fatalf("%s %v arg=%q sel=%v list=%v: kernel diverged from the reference grouping\n got %d groups: %v\nwant %d groups: %v",
								name, legs, tc.argDim, tc.sel != nil, tc.listArgs, len(got), got, len(want), want)
						}
						if len(got) == 0 {
							t.Fatalf("%s %v: no groups", name, legs)
						}
					}
				}
			}
		})
	}
}

// TestCrossCountByColumnSparse asserts the count-only call answers
// identically through the map index (cell spaces past the cap no longer
// refuse).
func TestCrossCountByColumnSparse(t *testing.T) {
	forceSparseCells(t)
	for name, e := range genVariants(t) {
		want := e.CrossCount(casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea)
		got, err := e.CrossCountByColumn(context.Background(), casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: column %v, want %v", name, got, want)
		}
	}
}

// TestCrossStaleDictionaryRebuilds asserts the freshness rule of the cross
// kernel: a category that gained a value after the column build gets its
// column rebuilt, so facts carrying the new value are counted — where the
// stale column would have coded them colNone.
func TestCrossStaleDictionaryRebuilds(t *testing.T) {
	e, grow := growEngine(t, 30)
	cross := func() ([]CrossCell, []CrossCell) {
		got, err := e.CrossCountByColumn(context.Background(), casestudy.DimAge, casestudy.CatTenYear, casestudy.DimDiagnosis, casestudy.CatGroup)
		if err != nil {
			t.Fatal(err)
		}
		return got, e.CrossCountScan(casestudy.DimAge, casestudy.CatTenYear, casestudy.DimDiagnosis, casestudy.CatGroup)
	}
	if got, want := cross(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("fresh: column %v, want %v", got, want)
	}
	// grow's ages stay in [20, 80); age 200 adds a ten-year group the built
	// column has never seen, then a fact carrying it is appended.
	m := e.MO()
	ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), 200)
	if err != nil {
		t.Fatal(err)
	}
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	if err := m.Relate(casestudy.DimDiagnosis, "old-timer", lows[0]); err != nil {
		t.Fatal(err)
	}
	if err := m.Relate(casestudy.DimAge, "old-timer", ageID); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendFact("old-timer"); err != nil {
		t.Fatal(err)
	}
	grow(3)
	got, want := cross()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("after the dictionary grew: column %v, want %v", got, want)
	}
	seen := false
	for _, c := range got {
		seen = seen || c.V1 == casestudy.TenYearGroup(200)
	}
	if !seen {
		t.Fatalf("the value added after the build is missing: %v", got)
	}
}

// TestCrossAggregateEdges covers the kernel's refusals and pass-throughs:
// an unknown dimension yields no group, an emit error stops the kernel and
// comes back as is, and cancellation surfaces from the scan.
func TestCrossAggregateEdges(t *testing.T) {
	e := genVariants(t)["full"]
	legs := crossLegSets[1]
	none := func(*CrossGroup) error { t.Fatal("emit called"); return nil }
	if err := e.CrossAggregateBy(context.Background(), []CrossLeg{{"NoSuchDim", "X"}, legs[1]}, "", nil, false, agg.ProbNone, none); err != nil {
		t.Fatalf("unknown dimension: %v", err)
	}
	boom := errors.New("emit failed")
	calls := 0
	err := e.CrossAggregateBy(context.Background(), legs, "", nil, false, agg.ProbNone, func(*CrossGroup) error { calls++; return boom })
	if err != boom || calls != 1 {
		t.Fatalf("emit error: got %v after %d calls, want the error after 1", err, calls)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := e.CrossAggregateBy(ctx, legs, "", nil, false, agg.ProbNone, none); !errors.Is(err, qos.ErrCanceled) {
		t.Fatalf("canceled context: got %v, want a qos cancellation", err)
	}
	if _, err := e.CrossCountByColumn(ctx, legs[0].Dim, legs[0].Cat, legs[1].Dim, legs[1].Cat); !errors.Is(err, qos.ErrCanceled) {
		t.Fatalf("canceled cross-count: got %v, want a qos cancellation", err)
	}
}

// TestKernelCountersUnderBatching pins mddm_storage_kernel_total for the
// kernels the batched full-stack configuration runs: a leg scan counts
// every member once, under the strategy the kernel ran for the scan; the
// cross kernel counts as a column kernel.
func TestKernelCountersUnderBatching(t *testing.T) {
	e := genVariants(t)["full"]
	col0, bm0 := mKernelColumn.Value(), mKernelBitmap.Value()
	members := []SharedScanMember{{}, {ArgDim: casestudy.DimAge}, {ArgDim: casestudy.DimAge, ListArgs: true}}
	s, err := e.ScanLeg(context.Background(), casestudy.DimDiagnosis, casestudy.CatFamily, members)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kernel != KernelColumn {
		t.Fatalf("scan of the family leg ran %q, want the column ScanLeg builds on first use", s.Kernel)
	}
	if col, bm := mKernelColumn.Value()-col0, mKernelBitmap.Value()-bm0; col != 3 || bm != 0 {
		t.Fatalf("column scan of three members counted column=%d bitmap=%d, want 3 and 0", col, bm)
	}
	s, err = e.ScanLeg(context.Background(), casestudy.DimDiagnosis, casestudy.CatGroup, members)
	if err != nil {
		t.Fatal(err)
	}
	if s.Kernel != KernelBitmap {
		t.Fatalf("scan of the low-cardinality group leg ran %q, want bitmap", s.Kernel)
	}
	if col, bm := mKernelColumn.Value()-col0, mKernelBitmap.Value()-bm0; col != 3 || bm != 3 {
		t.Fatalf("bitmap scan of three members counted column=%d bitmap=%d, want 3 and 3", col, bm)
	}
	crossGroups(t, e, crossLegSets[0], "", nil, false)
	if col := mKernelColumn.Value() - col0; col != 4 {
		t.Fatalf("cross kernel not counted as a column kernel: column=%d, want 4", col)
	}
}
