package storage

import (
	"context"
	"fmt"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/qos"
)

// genVariants returns the differential-test corpus: the fully featured
// generator output (non-strict hierarchy, churn, probabilistic pairs), a
// strict/certain variant, and a larger universe spanning many bitmap
// words.
func genVariants(t *testing.T) map[string]*Engine {
	t.Helper()
	out := map[string]*Engine{}
	full := casestudy.DefaultGen()
	full.Patients = 150
	strict := casestudy.DefaultGen()
	strict.Patients = 150
	strict.NonStrict = false
	strict.Churn = false
	strict.UncertainFrac = 0
	big := casestudy.DefaultGen()
	big.Patients = 700
	for name, cfg := range map[string]casestudy.GenConfig{"full": full, "strict": strict, "big": big} {
		m, err := casestudy.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = NewEngine(m, dimension.CurrentContext(ref))
	}
	return out
}

// columnDims is the differential corpus of (dim, cat) pairs: the
// high-cardinality bottom category (many-to-many via several diagnoses per
// patient, mixed granularity via family-level attachments), its rollups,
// and the second dimension for cross-tabs.
var columnDims = [][2]string{
	{casestudy.DimDiagnosis, casestudy.CatLowLevel},
	{casestudy.DimDiagnosis, casestudy.CatFamily},
	{casestudy.DimDiagnosis, casestudy.CatGroup},
	{casestudy.DimResidence, casestudy.CatArea},
}

// TestColumnDifferentialCount asserts CountByColumn ≡ the bitmap path ≡
// the model-layer CountDistinctScan, for every corpus engine and corpus
// (dim, cat). The bitmap result is taken before
// the column is built, so the automatic kernel selection cannot mask a
// divergence.
func TestColumnDifferentialCount(t *testing.T) {
	for name, e := range genVariants(t) {
		for _, dc := range columnDims {
			dim, cat := dc[0], dc[1]
			want, err := e.CountDistinctByContext(context.Background(), dim, cat)
			if err != nil {
				t.Fatal(err)
			}
			scan := e.CountDistinctScan(dim, cat)
			if fmt.Sprint(scan) != fmt.Sprint(want) {
				t.Fatalf("%s %s/%s: bitmap %v, scan %v", name, dim, cat, want, scan)
			}
			got, err := e.CountByColumn(context.Background(), dim, cat)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("%s %s/%s: column %v, want %v", name, dim, cat, got, want)
			}
		}
	}
}

// TestColumnDifferentialSum asserts SumByColumn ≡ the bitmap SumBy: both
// are the left fold over the ascending facts, so the sums are
// bit-identical.
func TestColumnDifferentialSum(t *testing.T) {
	for name, e := range genVariants(t) {
		for _, dc := range columnDims {
			dim, cat := dc[0], dc[1]
			want, err := e.SumByContext(context.Background(), dim, cat, casestudy.DimAge)
			if err != nil {
				t.Fatal(err)
			}
			got, err := e.SumByColumn(context.Background(), dim, cat, casestudy.DimAge)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s %s/%s: %d sums, want %d", name, dim, cat, len(got), len(want))
			}
			for v, w := range want {
				if got[v] != w {
					t.Errorf("%s %s/%s %s: column %v, want %v", name, dim, cat, v, got[v], w)
				}
			}
		}
	}
}

// TestColumnDifferentialCrossCount asserts CrossCountByColumn ≡ the bitmap
// cross-tab (with and without a guard) ≡ the model-layer CrossCountScan.
func TestColumnDifferentialCrossCount(t *testing.T) {
	for name, e := range genVariants(t) {
		want := e.CrossCount(casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea)
		scan := e.CrossCountScan(casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea)
		if fmt.Sprint(scan) != fmt.Sprint(want) {
			t.Fatalf("%s: bitmap %v, scan %v", name, want, scan)
		}
		ctxPath, err := e.crossCount(qos.NewGuard(context.Background()), casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(ctxPath) != fmt.Sprint(want) {
			t.Errorf("%s: context path %v, want %v", name, ctxPath, want)
		}
		got, err := e.CrossCountByColumn(context.Background(), casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: column %v, want %v", name, got, want)
		}
	}
}

// TestColumnTable1Shapes pins the paper's hard cases on the Table 1 case
// study itself: diagnosis 9 attaches at Family level (mixed granularity —
// colNone at the Low-level category) and patient 2 lives in two counties
// (many-to-many — the overflow side-table). The column kernels must agree
// with the model layer on the exact figures.
func TestColumnTable1Shapes(t *testing.T) {
	e := patientEngine(t)
	e.SetColumnMinValues(1) // tiny dimension; force column eligibility
	for _, dc := range [][2]string{
		{casestudy.DimDiagnosis, casestudy.CatLowLevel},
		{casestudy.DimDiagnosis, casestudy.CatFamily},
		{casestudy.DimResidence, casestudy.CatCounty},
	} {
		dim, cat := dc[0], dc[1]
		want := e.CountDistinctScan(dim, cat)
		got, err := e.CountByColumn(context.Background(), dim, cat)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s/%s: column %v, scan %v", dim, cat, got, want)
		}
	}
	// Figure 3's exact counts through the column kernel.
	counts, err := e.CountByColumn(context.Background(), casestudy.DimDiagnosis, casestudy.CatGroup)
	if err != nil {
		t.Fatal(err)
	}
	if counts["11"] != 2 || counts["12"] != 1 {
		t.Errorf("counts = %v, want 11→2, 12→1", counts)
	}
}

// TestColumnKernelSelection pins the cost heuristic: below the threshold
// EnsureColumn is a no-op and the bitmap kernel answers; at or above it
// the column is built and automatically selected, observable through the
// kernel counters.
func TestColumnKernelSelection(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 120
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))

	// CatGroup has few values — below DefaultColumnMinValues.
	if err := e.EnsureColumn(context.Background(), casestudy.DimDiagnosis, casestudy.CatGroup); err != nil {
		t.Fatal(err)
	}
	if hasColumn(e, casestudy.DimDiagnosis, casestudy.CatGroup) {
		t.Error("EnsureColumn must not build below the threshold")
	}
	// CatLowLevel has 40 values — above it.
	if err := e.EnsureColumn(context.Background(), casestudy.DimDiagnosis, casestudy.CatLowLevel); err != nil {
		t.Fatal(err)
	}
	if !hasColumn(e, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Fatal("EnsureColumn must build above the threshold")
	}

	before := mKernelColumn.Value()
	if _, err := e.CountDistinctByContext(context.Background(), casestudy.DimDiagnosis, casestudy.CatLowLevel); err != nil {
		t.Fatal(err)
	}
	if mKernelColumn.Value() <= before {
		t.Error("built column above threshold must be auto-selected")
	}
	beforeBitmap := mKernelBitmap.Value()
	if _, err := e.CountDistinctByContext(context.Background(), casestudy.DimDiagnosis, casestudy.CatGroup); err != nil {
		t.Fatal(err)
	}
	if mKernelBitmap.Value() <= beforeBitmap {
		t.Error("unbuilt column must route to the bitmap kernel")
	}

	// Raising the threshold above the cardinality deselects a built column.
	e.SetColumnMinValues(1 << 20)
	if e.columnFor(casestudy.DimDiagnosis, casestudy.CatLowLevel) != nil {
		t.Error("threshold raise must deselect the column")
	}
	e.SetColumnMinValues(0)
	if e.columnFor(casestudy.DimDiagnosis, casestudy.CatLowLevel) == nil {
		t.Error("default threshold must select the 40-value column")
	}

	// WarmColumns builds every eligible column.
	e2 := NewEngine(m, dimension.CurrentContext(ref))
	if err := e2.WarmColumns(context.Background(), 10); err != nil {
		t.Fatal(err)
	}
	if !hasColumn(e2, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Error("WarmColumns must build the low-level column")
	}
	if !hasColumn(e2, casestudy.DimResidence, casestudy.CatArea) {
		t.Error("WarmColumns must build the area column")
	}
}

// TestColumnBudgetParity pins that the column kernels charge exactly the
// fact budget of the bitmap paths — per category value, the value's fact
// count — and that exhaustion surfaces identically.
func TestColumnBudgetParity(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 150
	m := casestudy.MustGenerate(cfg)
	bitmapEng := NewEngine(m, dimension.CurrentContext(ref))
	colEng := NewEngine(m, dimension.CurrentContext(ref))
	if err := colEng.WarmColumns(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	spend := func(e *Engine, cross func(context.Context) ([]CrossCell, error)) int64 {
		ctx := qos.WithFactBudget(context.Background(), 1<<40)
		if _, err := e.CountDistinctByContext(ctx, casestudy.DimDiagnosis, casestudy.CatLowLevel); err != nil {
			t.Fatal(err)
		}
		if _, err := e.SumByContext(ctx, casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimAge); err != nil {
			t.Fatal(err)
		}
		if _, err := cross(ctx); err != nil {
			t.Fatal(err)
		}
		return qos.BudgetFrom(ctx).Spent()
	}
	want := spend(bitmapEng, func(ctx context.Context) ([]CrossCell, error) {
		return bitmapEng.crossCount(qos.NewGuard(ctx), casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea)
	})
	if want == 0 {
		t.Fatal("bitmap run spent no budget")
	}
	if got := spend(colEng, func(ctx context.Context) ([]CrossCell, error) {
		return colEng.CrossCountByColumn(ctx, casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea)
	}); got != want {
		t.Errorf("column spent %d facts, bitmap spent %d", got, want)
	}
	for name, e := range map[string]*Engine{"bitmap": bitmapEng, "column": colEng} {
		ctx := qos.WithFactBudget(context.Background(), 3)
		if _, err := e.CountDistinctByContext(ctx, casestudy.DimDiagnosis, casestudy.CatLowLevel); err == nil {
			t.Errorf("tight budget must exhaust through the %s kernel", name)
		}
	}
}

// TestColumnAppendFactMaintains pins incremental maintenance: appending
// facts to an engine with built columns must keep the column kernels in
// agreement with a bitmap engine rebuilt from scratch.
func TestColumnAppendFactMaintains(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 60
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	if err := e.WarmColumns(context.Background(), 1); err != nil {
		t.Fatal(err)
	}

	diag := m.Dimension(casestudy.DimDiagnosis)
	lows := diag.Category(casestudy.CatLowLevel)
	fams := diag.Category(casestudy.CatFamily)
	for i := 0; i < 25; i++ {
		id := fmt.Sprintf("pcol%d", i)
		// Mix the shapes: two low-level diagnoses (many-to-many), and every
		// fifth fact attached at family level (mixed granularity).
		if i%5 == 0 {
			if err := m.Relate(casestudy.DimDiagnosis, id, fams[i%len(fams)]); err != nil {
				t.Fatal(err)
			}
		} else {
			if err := m.Relate(casestudy.DimDiagnosis, id, lows[i%len(lows)]); err != nil {
				t.Fatal(err)
			}
			if err := m.Relate(casestudy.DimDiagnosis, id, lows[(i*7+3)%len(lows)]); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Relate(casestudy.DimResidence, id, "A0"); err != nil {
			t.Fatal(err)
		}
		if err := e.AppendFact(id); err != nil {
			t.Fatal(err)
		}
	}

	fresh := NewEngine(m, dimension.CurrentContext(ref))
	for _, dc := range columnDims {
		dim, cat := dc[0], dc[1]
		want, err := fresh.CountDistinctByContext(context.Background(), dim, cat)
		if err != nil {
			t.Fatal(err)
		}
		got, err := e.CountByColumn(context.Background(), dim, cat)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s/%s after appends: column %v, want %v", dim, cat, got, want)
		}
	}
	wantSum, err := fresh.SumByContext(context.Background(), casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimAge)
	if err != nil {
		t.Fatal(err)
	}
	gotSum, err := e.SumByColumn(context.Background(), casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimAge)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(gotSum) != fmt.Sprint(wantSum) {
		t.Errorf("sums after appends: column %v, want %v", gotSum, wantSum)
	}
}

// TestColumnCancellation pins cooperative cancellation through the column
// kernels.
func TestColumnCancellation(t *testing.T) {
	m := casestudy.MustGenerate(casestudy.DefaultGen())
	e := NewEngine(m, dimension.CurrentContext(ref))
	if err := e.WarmColumns(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := e.CountByColumn(ctx, casestudy.DimDiagnosis, casestudy.CatLowLevel); err == nil {
		t.Error("canceled column count must fail")
	}
	if _, err := e.SumByColumn(ctx, casestudy.DimDiagnosis, casestudy.CatLowLevel, casestudy.DimAge); err == nil {
		t.Error("canceled column sum must fail")
	}
}

// hasColumn reports whether e has built the (dim, cat) column.
func hasColumn(e *Engine, dim, cat string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cols[colKey(dim, cat)] != nil
}

// TestBuildColumnOverflowOrder checks every built column's overflow table
// against one the test derives from the closure bitmaps: each fact that
// two or more of the column's values characterize contributes one entry
// per such value, in (Fact, Vid) order. It covers a generated model with
// many-to-many and mixed-granularity facts, a context view's columns, and
// a column rebuilt stale after its category grew and facts were appended.
func TestBuildColumnOverflowOrder(t *testing.T) {
	bg := context.Background()
	cfg := casestudy.DefaultGen()
	cfg.Patients = 3000
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	if err := e.WarmColumns(bg, 1); err != nil {
		t.Fatal(err)
	}
	checkOverflowOrder(t, "base", e)

	v, _ := e.View(viewContexts(1)[0], false)
	if err := v.WarmColumns(bg, 1); err != nil {
		t.Fatal(err)
	}
	checkOverflowOrder(t, "view", v)

	diag := m.Dimension(casestudy.DimDiagnosis)
	if err := diag.AddValue(casestudy.CatLowLevel, "Lnew"); err != nil {
		t.Fatal(err)
	}
	if err := diag.AddEdge("Lnew", "F0"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("pover%d", i)
		for _, val := range []string{"Lnew", fmt.Sprintf("L%d", i%7)} {
			if err := m.Relate(casestudy.DimDiagnosis, id, val); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AppendFact(id); err != nil {
			t.Fatal(err)
		}
	}
	if hasFresh := e.builtColumn(casestudy.DimDiagnosis, casestudy.CatLowLevel) != nil; hasFresh {
		t.Fatal("the low-level column must be stale once its category grew")
	}
	if err := e.WarmColumns(bg, 1); err != nil {
		t.Fatal(err)
	}
	checkOverflowOrder(t, "rebuilt", e)
}

// checkOverflowOrder compares every column of e with the overflow table
// its closure bitmaps imply.
func checkOverflowOrder(t *testing.T, tag string, e *Engine) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	multi := 0
	for key, col := range e.cols {
		byFact := map[int][]uint32{}
		for j, v := range col.vals {
			if bm := e.dims[col.dim].closure[v]; bm != nil {
				bm.Iterate(func(i int) bool {
					byFact[i] = append(byFact[i], uint32(j))
					return true
				})
			}
		}
		var want []OverflowEntry
		for i := range col.codes {
			if vids := byFact[i]; len(vids) > 1 {
				for _, vid := range vids {
					want = append(want, OverflowEntry{Fact: i, Vid: vid})
				}
			}
		}
		if fmt.Sprint(col.over) != fmt.Sprint(want) {
			t.Errorf("%s: column %q: overflow %d entries, want %d in (Fact, Vid) order", tag, key, len(col.over), len(want))
		}
		multi += len(want)
	}
	if multi == 0 {
		t.Fatalf("%s: no column has a many-to-many fact; the check is vacuous", tag)
	}
}
