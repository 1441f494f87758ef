package plan

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
)

// mergeCornerMO hand-builds the cross kernel's merge corner: facts
// many-to-many on both legs such that the cells (a,x), (a,y), (b,y) all
// hold exactly {f1}, while (b,x) ⊋ {f1} also holds f2 and (c,z) stands
// alone. The algebra folds the three equal cells into one set-valued group
// flattened to the cross product {a,b} × {x,y} — which repeats the (b,x)
// row next to that cell's own. pad adds unused values to both legs'
// categories, growing the cell space past the dense index cap.
func mergeCornerMO(t testing.TB, pad int) *core.MO {
	t.Helper()
	mk := func(name string) *dimension.DimensionType {
		return dimension.MustDimensionType(name, dimension.Constant, dimension.KindString, "V")
	}
	m := core.NewMO(core.MustSchema("F", mk("D1"), mk("D2"), casestudy.AgeType()))
	for dim, vals := range map[string][]string{"D1": {"a", "b", "c"}, "D2": {"x", "y", "z"}} {
		for _, v := range vals {
			if err := m.Dimension(dim).AddValue("V", v); err != nil {
				t.Fatal(err)
			}
		}
		for p := 0; p < pad; p++ {
			if err := m.Dimension(dim).AddValue("V", fmt.Sprintf("pad%04d", p)); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, f := range []struct {
		id     string
		d1, d2 []string
		age    int
	}{
		{"f1", []string{"a", "b"}, []string{"x", "y"}, 30},
		{"f2", []string{"b"}, []string{"x"}, 41},
		{"f3", []string{"c"}, []string{"z"}, 52},
		{"f4", []string{"c"}, nil, 63}, // no D2 value below ⊤: in no cell
	} {
		for _, v := range f.d1 {
			if err := m.Relate("D1", f.id, v); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range f.d2 {
			if err := m.Relate("D2", f.id, v); err != nil {
				t.Fatal(err)
			}
		}
		ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), f.age)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Relate(casestudy.DimAge, f.id, ageID); err != nil {
			t.Fatal(err)
		}
	}
	m.EnsureTotal()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestCrossMergeCorner pins planner ≡ algebra on the merge corner, with
// the dense cell index and — the padded cell space exceeds the cap — with
// the map index.
func TestCrossMergeCorner(t *testing.T) {
	for _, pad := range []int{0, 2100} {
		t.Run(fmt.Sprintf("pad=%d", pad), func(t *testing.T) {
			cat := query.Catalog{"m": mergeCornerMO(t, pad)}
			engines := NewCatalogEngines(cat, testRef)
			ctx := context.Background()
			for _, fn := range []string{"SETCOUNT(*)", "SUM(Age)", "AVG(Age)", "COUNT(Age)", "MIN(Age)", "MAX(Age)"} {
				for _, where := range []string{"", " WHERE Age >= 35", " WHERE Age < 35"} {
					src := fmt.Sprintf(`SELECT %s FROM m%s GROUP BY D1."V", D2."V"`, fn, where)
					ex := diffOne(t, ctx, src, cat, engines)
					if ex.Mode != ModePlanned || ex.Shape != ShapeCross || ex.Kernel != "column" {
						t.Fatalf("%s: mode=%q shape=%q kernel=%q", src, ex.Mode, ex.Shape, ex.Kernel)
					}
				}
			}
			res, err := ExecContext(ctx, `SELECT SETCOUNT(*) FROM m GROUP BY D1."V", D2."V"`, cat, testRef, engines)
			if err != nil {
				t.Fatal(err)
			}
			want := [][]string{
				{"a", "x", "1"}, {"a", "y", "1"},
				{"b", "x", "1"}, {"b", "x", "2"}, {"b", "y", "1"},
				{"c", "z", "1"},
			}
			if !reflect.DeepEqual(res.Rows, want) {
				t.Fatalf("rows %v, want %v", res.Rows, want)
			}
		})
	}
}

// refCrossSpent is the tests' independent account of what a cross query
// owes the fact budget: the grouping the kernel replaced — per-fact value
// lists, string-keyed combination groups, member-set merge — summed to
// Σ|members| over the merged groups.
func refCrossSpent(t testing.TB, eng *storage.Engine, legs []groupDim) (spent int64) {
	t.Helper()
	lists := make([][][]string, len(legs))
	for d, l := range legs {
		var err error
		if lists[d], err = eng.ValueLists(context.Background(), l.dim, l.cat, nil); err != nil {
			t.Fatal(err)
		}
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
	merged := map[string]bool{}
	for _, ms := range members {
		if key := fmt.Sprint(ms); !merged[key] {
			merged[key] = true
			spent += int64(len(ms))
		}
	}
	return spent
}

var crossLegPairs = [][2]groupDim{
	{{casestudy.DimDiagnosis, casestudy.CatLowLevel}, {casestudy.DimResidence, casestudy.CatArea}},
	{{casestudy.DimDiagnosis, casestudy.CatFamily}, {casestudy.DimResidence, casestudy.CatCounty}},
	{{casestudy.DimDiagnosis, casestudy.CatGroup}, {casestudy.DimResidence, casestudy.CatRegion}},
}

// crossQuery builds a two-leg cross query; where is empty or " WHERE …".
func crossQuery(fn, from, where string, legs [2]groupDim) string {
	return fmt.Sprintf(`SELECT %s FROM %s%s GROUP BY "%s"."%s", "%s"."%s"`,
		fn, from, where, legs[0].dim, legs[0].cat, legs[1].dim, legs[1].cat)
}

// TestCrossBudgetParity pins the cross shape's budget: Σ|members| over the
// merged groups, against the reference grouping.
func TestCrossBudgetParity(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	eng, err := engines.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	for _, legs := range crossLegPairs {
		ctx := qos.WithFactBudget(context.Background(), 1<<40)
		src := crossQuery("SETCOUNT(*)", "gen", "", legs)
		if _, err := ExecContext(ctx, src, cat, testRef, engines); err != nil {
			t.Fatal(err)
		}
		want := refCrossSpent(t, eng, legs[:])
		if got := qos.BudgetFrom(ctx).Spent(); got != want || got == 0 {
			t.Fatalf("%s: spent %d, want Σ|members| = %d", src, got, want)
		}
	}
}

// TestCrossBudgetExhaustionText pins the cross shape's exhaustion error to
// the text every planned shape reports.
func TestCrossBudgetExhaustionText(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	ctx, ex := WithExplain(qos.WithFactBudget(context.Background(), 1))
	_, err := ExecContext(ctx, crossQuery("AVG(Age)", "gen", "", crossLegPairs[0]), cat, testRef, engines)
	if ex.Mode != ModePlanned || ex.Shape != ShapeCross {
		t.Fatalf("mode=%q shape=%q, want planned/cross", ex.Mode, ex.Shape)
	}
	if err == nil || !errors.Is(err, qos.ErrResourceExhausted) {
		t.Fatalf("got %v, want resource exhausted", err)
	}
	if !strings.HasPrefix(err.Error(), "query: "+qos.ErrResourceExhausted.Error()+": scanned more than the allowed facts") {
		t.Fatalf("exhaustion text changed: %v", err)
	}
}

// TestCrossUnfoldableAggregate checks the cross shape finalizes an
// aggregate without a Fold from the members' argument lists, merged
// set-valued groups included, planner ≡ algebra.
func TestCrossUnfoldableAggregate(t *testing.T) {
	const name = "MEDIAN"
	cat := testCatalog(t)
	cat["m"] = mergeCornerMO(t, 0)
	engines := NewCatalogEngines(cat, testRef)
	for _, src := range []string{
		crossQuery(name+"(Age)", "gen", "", crossLegPairs[1]),
		`SELECT ` + name + `(Age) FROM m GROUP BY D1."V", D2."V"`,
	} {
		if ex := diffOne(t, context.Background(), src, cat, engines); ex.Shape != ShapeCross {
			t.Fatalf("%s: shape %q", src, ex.Shape)
		}
	}
}

// TestCrossStaleDictionary grows a leg's category after its column was
// built and appends a fact carrying the new value: the cross kernel must
// rebuild the column rather than under-code the fact.
func TestCrossStaleDictionary(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Churn = false
	m := casestudy.MustGenerate(cfg)
	cat := query.Catalog{"gen": m}
	engines := NewCatalogEngines(cat, testRef)
	ctx := context.Background()
	src := crossQuery("SETCOUNT(*)", "gen", "", crossLegPairs[2])
	diffOne(t, ctx, src, cat, engines) // builds both legs' columns

	res := m.Dimension(casestudy.DimResidence)
	for _, step := range []func() error{
		func() error { return res.AddValue(casestudy.CatRegion, "R-new") },
		func() error { return res.AddValue(casestudy.CatCounty, "C-new") },
		func() error { return res.AddEdge("C-new", "R-new") },
		func() error { return res.AddValue(casestudy.CatArea, "A-new") },
		func() error { return res.AddEdge("A-new", "C-new") },
		func() error { return m.Relate(casestudy.DimDiagnosis, "p-new", "L0") },
		func() error { return m.Relate(casestudy.DimResidence, "p-new", "A-new") },
		func() error {
			age, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), 44)
			if err != nil {
				return err
			}
			return m.Relate(casestudy.DimAge, "p-new", age)
		},
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := engines.EngineFor(ctx, "gen")
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendFact("p-new"); err != nil {
		t.Fatal(err)
	}
	diffOne(t, ctx, src, cat, engines)
	got, err := ExecContext(ctx, src+` HAVING >= 0`, cat, testRef, engines)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range got.Rows {
		found = found || r[1] == "R-new"
	}
	if !found {
		t.Fatalf("no row for the value added after the column build: %v", got.Rows)
	}
}

// TestCrossAllocationCeiling bounds the allocations of a cross query's
// shape execution — a whole run minus a prepare-only run, so the
// shape-independent planning work cancels — by a small multiple of the rows
// returned (a slice per row, a formatted result per group): the kernel
// cannot quietly return to allocating per (fact, combination).
func TestCrossAllocationCeiling(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	ctx := context.Background()
	for _, legs := range crossLegPairs {
		src := crossQuery("AVG(Age)", "gen", " WHERE Age >= 10", legs)
		var rows int
		run := func(execute bool) float64 {
			return testing.AllocsPerRun(10, func() {
				p, err := PrepareContext(ctx, src, cat, testRef, engines)
				if err != nil {
					t.Fatal(err)
				}
				if !execute {
					p.Abort()
					return
				}
				res, err := p.Execute()
				if err != nil {
					t.Fatal(err)
				}
				rows = len(res.Rows)
			})
		}
		allocs := run(true) - run(false)
		if ceiling := float64(3*rows + 100); allocs > ceiling || rows == 0 {
			t.Errorf("%s: %.0f allocations to execute, %d rows, ceiling %.0f", src, allocs, rows, ceiling)
		}
	}
}

// BenchmarkPlanCross times the planner's cross shape at the benchmark's
// data size, one sub-benchmark per leg pair (the cell spaces span
// 140×16 to 4×2), with the selection every adhoc-scan cross query has.
func BenchmarkPlanCross(b *testing.B) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 40000
	cat := query.Catalog{"gen": casestudy.MustGenerate(cfg)}
	engines := NewCatalogEngines(cat, testRef)
	ctx := context.Background()
	for _, legs := range crossLegPairs {
		src := crossQuery("AVG(Age)", "gen", " WHERE Age >= 30", legs)
		b.Run(legs[0].cat+"×"+legs[1].cat, func(b *testing.B) {
			if _, err := ExecContext(ctx, src, cat, testRef, engines); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ExecContext(ctx, src, cat, testRef, engines); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestCrossColumnsLeaveOneLegKernels pins that the columns a cross query
// builds for low-cardinality legs do not re-route (or re-label) the
// one-leg shapes: below the cardinality threshold they stay on bitmaps.
func TestCrossColumnsLeaveOneLegKernels(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	ctx := context.Background()
	diffOne(t, ctx, crossQuery("SETCOUNT(*)", "gen", "", crossLegPairs[2]), cat, engines)
	eng, err := engines.EngineFor(ctx, "gen")
	if err != nil {
		t.Fatal(err)
	}
	if !eng.HasColumn(casestudy.DimDiagnosis, casestudy.CatGroup) {
		t.Fatal("the cross query built no column for its low-cardinality leg")
	}
	ex := diffOne(t, ctx, `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, cat, engines)
	if ex.Shape != ShapeKernelCount || ex.Kernel != "bitmap" {
		t.Fatalf("shape=%q kernel=%q, want kernel-count on the bitmap kernel", ex.Shape, ex.Kernel)
	}
}
