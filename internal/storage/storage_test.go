package storage

import (
	"context"
	"fmt"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/algebra"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

var ref = temporal.MustDate("01/01/1999")

func ctx() dimension.Context { return dimension.CurrentContext(ref) }

func patientEngine(t *testing.T) *Engine {
	t.Helper()
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(m, ctx())
}

func TestBitmapOps(t *testing.T) {
	a := NewBitmap(130)
	b := NewBitmap(130)
	for _, i := range []int{0, 63, 64, 127, 129} {
		a.Set(i)
	}
	for _, i := range []int{63, 64, 65} {
		b.Set(i)
	}
	if a.Count() != 5 || b.Count() != 3 {
		t.Fatalf("counts %d %d", a.Count(), b.Count())
	}
	if !a.Has(63) || a.Has(62) {
		t.Error("Has wrong")
	}
	and := a.Clone().And(b)
	if and.Count() != 2 || !and.Has(63) || !and.Has(64) {
		t.Errorf("and = %v", indices(and))
	}
	or := a.Clone().Or(b)
	if or.Count() != 6 {
		t.Errorf("or = %v", indices(or))
	}
	diff := a.Clone().AndNot(b)
	if diff.Count() != 3 || diff.Has(63) {
		t.Errorf("andnot = %v", indices(diff))
	}
	if NewBitmap(10).IsEmpty() == false {
		t.Error("fresh bitmap must be empty")
	}
	// Out-of-range sets are ignored.
	a.Set(-1)
	a.Set(1000)
	if a.Count() != 5 {
		t.Error("out-of-range set must be ignored")
	}
	// Iterate stops when fn returns false.
	n := 0
	a.Iterate(func(i int) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("iterate visits = %d", n)
	}
}

func TestEngineCharacterizing(t *testing.T) {
	e := patientEngine(t)
	// f ⤳ 11 holds for both patients (Figure 3).
	bm := e.Characterizing(casestudy.DimDiagnosis, "11")
	if bm.Count() != 2 {
		t.Errorf("count(11) = %d, want 2", bm.Count())
	}
	// f ⤳ 12 only for patient 2.
	if got := e.Characterizing(casestudy.DimDiagnosis, "12").Count(); got != 1 {
		t.Errorf("count(12) = %d, want 1", got)
	}
	// ⊤ characterizes everything.
	if got := e.Characterizing(casestudy.DimDiagnosis, dimension.TopValue).Count(); got != 2 {
		t.Errorf("count(⊤) = %d", got)
	}
	// Unknown dimension yields an empty bitmap.
	if !e.Characterizing("Nope", "x").IsEmpty() {
		t.Error("unknown dimension must be empty")
	}
}

func TestEngineMatchesModelLayer(t *testing.T) {
	// The bitmap fast path and the model-layer scan must agree — on the
	// case study and on synthetic data.
	e := patientEngine(t)
	for _, cat := range []string{casestudy.CatLowLevel, casestudy.CatFamily, casestudy.CatGroup} {
		fast := e.CountDistinctBy(casestudy.DimDiagnosis, cat)
		slow := e.CountDistinctScan(casestudy.DimDiagnosis, cat)
		if len(fast) != len(slow) {
			t.Fatalf("%s: %v vs %v", cat, fast, slow)
		}
		for v, n := range fast {
			if slow[v] != n {
				t.Errorf("%s/%s: fast %d, scan %d", cat, v, n, slow[v])
			}
		}
	}

	cfg := casestudy.DefaultGen()
	cfg.Patients = 60
	m := casestudy.MustGenerate(cfg)
	ge := NewEngine(m, dimension.CurrentContext(temporal.MustDate("01/01/2026")))
	for _, cat := range []string{casestudy.CatFamily, casestudy.CatGroup, casestudy.CatRegion} {
		dim := casestudy.DimDiagnosis
		if cat == casestudy.CatRegion {
			dim = casestudy.DimResidence
		}
		fast := ge.CountDistinctBy(dim, cat)
		slow := ge.CountDistinctScan(dim, cat)
		if len(fast) != len(slow) {
			t.Fatalf("%s: size %d vs %d", cat, len(fast), len(slow))
		}
		for v, n := range fast {
			if slow[v] != n {
				t.Errorf("%s/%s: fast %d, scan %d", cat, v, n, slow[v])
			}
		}
	}
}

func TestFigure3ViaEngine(t *testing.T) {
	e := patientEngine(t)
	counts := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	if counts["11"] != 2 || counts["12"] != 1 {
		t.Errorf("counts = %v, want 11→2, 12→1", counts)
	}
}

func TestSumBy(t *testing.T) {
	e := patientEngine(t)
	sums := sumBy(t, e, casestudy.DimResidence, casestudy.CatRegion, casestudy.DimAge)
	// Ages 29 + 48 = 77 in region R1.
	if sums["R1"] != 77 {
		t.Errorf("sum = %v", sums)
	}
}

func TestPreAggReuseStrictHierarchy(t *testing.T) {
	// Residence is strict and covering: county counts combine into region
	// counts — but COUNT of *distinct patients* combines only if no
	// patient lives in two counties. Patient 2 has lived in two areas of
	// different counties (churn), so the guard must reject the reuse and
	// fall back to base.
	e := patientEngine(t)
	c := NewCache(e)
	if _, err := c.Materialize(casestudy.DimResidence, casestudy.CatCounty, KindCount, ""); err != nil {
		t.Fatal(err)
	}
	rows, err := c.RollupFrom(casestudy.DimResidence, casestudy.CatCounty, casestudy.CatRegion, KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	// Distinct patients in R1 is 2, not 3 (patient 2 lived in both
	// counties but is one patient).
	if rows["R1"] != 2 {
		t.Errorf("region rollup = %v, want R1→2 (distinct)", rows)
	}
	if c.Misses != 1 || c.Hits != 0 {
		t.Errorf("expected base fallback, hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestPreAggReuseOnSyntheticStrict(t *testing.T) {
	// Without churn and without the non-strict hierarchy, county counts
	// combine into region counts through the cache.
	cfg := casestudy.DefaultGen()
	cfg.NonStrict = false
	cfg.Churn = false
	cfg.Patients = 50
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	c := NewCache(e)
	rows, err := c.RollupFrom(casestudy.DimResidence, casestudy.CatCounty, casestudy.CatRegion, KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.Hits != 1 || c.Misses != 0 {
		t.Fatalf("expected cache hit, hits=%d misses=%d", c.Hits, c.Misses)
	}
	base, err := c.RollupFrom(casestudy.DimResidence, "", casestudy.CatRegion, KindCount, "")
	if err == nil {
		_ = base
	}
	// Cross-check against direct computation.
	direct := e.CountDistinctBy(casestudy.DimResidence, casestudy.CatRegion)
	for v, n := range direct {
		if rows[v] != float64(n) {
			t.Errorf("region %s: cache %v, direct %d", v, rows[v], n)
		}
	}
}

func TestPreAggGuardRejectsNonStrict(t *testing.T) {
	// The non-strict diagnosis hierarchy must never combine family counts
	// into group counts.
	cfg := casestudy.DefaultGen()
	cfg.Patients = 50
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	c := NewCache(e)
	if err := c.ReuseGuard(casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.CatGroup, KindCount); err == nil {
		t.Fatal("non-strict mapping must fail the reuse guard")
	}
	rows, err := c.RollupFrom(casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.CatGroup, KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	if c.Misses != 1 {
		t.Errorf("expected fallback, misses=%d", c.Misses)
	}
	// The fallback result is the correct distinct count.
	direct := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	for v, n := range direct {
		if rows[v] != float64(n) {
			t.Errorf("group %s: cache %v, direct %d", v, rows[v], n)
		}
	}
}

func TestPreAggSumReuse(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.NonStrict = false
	cfg.Churn = false
	cfg.Patients = 40
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	c := NewCache(e)
	rows, err := c.RollupFrom(casestudy.DimResidence, casestudy.CatCounty, casestudy.CatRegion, KindSum, casestudy.DimAge)
	if err != nil {
		t.Fatal(err)
	}
	direct := sumBy(t, e, casestudy.DimResidence, casestudy.CatRegion, casestudy.DimAge)
	for v, x := range direct {
		if rows[v] != x {
			t.Errorf("region %s: cache %v, direct %v", v, rows[v], x)
		}
	}
	if c.Hits != 1 {
		t.Errorf("expected hit, got hits=%d misses=%d", c.Hits, c.Misses)
	}
	// SUM materialization without an argument dimension is rejected.
	if _, err := c.Materialize(casestudy.DimResidence, casestudy.CatCounty, KindSum, ""); err == nil {
		t.Error("SUM without argument must fail")
	}
	if _, err := c.Materialize(casestudy.DimResidence, casestudy.CatCounty, AggKind("MEDIAN"), ""); err == nil {
		t.Error("unsupported kind must fail")
	}
	if len(c.mats) == 0 {
		t.Error("materializations must be listed")
	}
}

func TestEngineAtInstant(t *testing.T) {
	// At a 1975 instant only patient 2 has diagnoses.
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(m, ctx().AtValid(temporal.MustDate("15/06/75")))
	counts := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatFamily)
	if counts["7"] != 1 || counts["8"] != 1 {
		t.Errorf("1975 family counts = %v", counts)
	}
	if len(counts) != 2 {
		t.Errorf("1975 families = %v", counts)
	}
}

func TestEngineString(t *testing.T) {
	e := patientEngine(t)
	if e.String() == "" || e.NumFacts() != 2 || e.MO() == nil {
		t.Error("accessors wrong")
	}
	if facts := e.ExportFacts(); facts[0] != "1" {
		t.Errorf("fact 0 = %q", facts[0])
	}
	if e.Context().Ref != ref {
		t.Error("context wrong")
	}
	vals := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	if len(vals) != 2 {
		t.Errorf("values = %v", vals)
	}
}

func TestEngineOnAggregateResult(t *testing.T) {
	// The engine also indexes set-valued facts (closure of the model).
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	_ = m
	s := core.MustSchema("F", casestudy.DiagnosisType())
	mo := core.NewMO(s)
	if err := mo.Dimension(casestudy.DimDiagnosis).AddValue(casestudy.CatGroup, "G"); err != nil {
		t.Fatal(err)
	}
	if err := mo.Relate(casestudy.DimDiagnosis, "{1,2}", "G"); err != nil {
		t.Fatal(err)
	}
	e := NewEngine(mo, ctx())
	if e.Characterizing(casestudy.DimDiagnosis, "G").Count() != 1 {
		t.Error("set-valued fact must be indexed")
	}
}

func TestCrossCount(t *testing.T) {
	// Case study: diagnosis group × region.
	e := patientEngine(t)
	cells := e.CrossCount(casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimResidence, casestudy.CatRegion)
	// Both patients are in group 11 and region R1; patient 2 also in 12.
	want := map[string]int{"11/R1": 2, "12/R1": 1}
	if len(cells) != len(want) {
		t.Fatalf("cells = %v", cells)
	}
	for _, c := range cells {
		if want[c.V1+"/"+c.V2] != c.Count {
			t.Errorf("cell %s/%s = %d, want %d", c.V1, c.V2, c.Count, want[c.V1+"/"+c.V2])
		}
	}
	// The scan path agrees on synthetic data too.
	cfg := casestudy.DefaultGen()
	cfg.Patients = 50
	m := casestudy.MustGenerate(cfg)
	ge := NewEngine(m, dimension.CurrentContext(temporal.MustDate("01/01/2026")))
	fast := ge.CrossCount(casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimResidence, casestudy.CatRegion)
	slow := ge.CrossCountScan(casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimResidence, casestudy.CatRegion)
	if len(fast) != len(slow) {
		t.Fatalf("sizes differ: %d vs %d", len(fast), len(slow))
	}
	for i := range fast {
		if fast[i] != slow[i] {
			t.Errorf("cell %d: fast %+v, scan %+v", i, fast[i], slow[i])
		}
	}
	// Unknown dimensions yield nil.
	if e.CrossCount("Nope", "X", casestudy.DimResidence, casestudy.CatRegion) != nil {
		t.Error("unknown dimension must yield nil")
	}
	if e.CrossCountScan("Nope", "X", casestudy.DimResidence, casestudy.CatRegion) != nil {
		t.Error("unknown dimension must yield nil (scan)")
	}
}

func TestEngineParallelReads(t *testing.T) {
	// The engine is a read snapshot; concurrent queries after a warm-up
	// (which memoizes closures single-threaded) must be safe. The warm-up
	// requirement is part of the documented contract: memoization writes
	// closure entries, so first-touch per value must not race.
	cfg := casestudy.DefaultGen()
	cfg.Patients = 200
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	// Warm every closure bitmap.
	for _, dim := range []string{casestudy.DimDiagnosis, casestudy.DimResidence} {
		for _, v := range m.Dimension(dim).Values() {
			e.Characterizing(dim, v)
		}
	}
	want := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	done := make(chan map[string]int, 8)
	for i := 0; i < 8; i++ {
		go func() {
			done <- e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
		}()
	}
	for i := 0; i < 8; i++ {
		got := <-done
		for v, n := range want {
			if got[v] != n {
				t.Errorf("parallel read diverged at %s: %d vs %d", v, got[v], n)
			}
		}
	}
}

func TestAlgebraEngineAgreement(t *testing.T) {
	// The algebra's aggregate formation and the engine's bitmap counting
	// are independent implementations of the same semantics; they must
	// agree on random data, non-strict hierarchies included.
	for seed := int64(0); seed < 6; seed++ {
		cfg := casestudy.DefaultGen()
		cfg.Seed = seed
		cfg.Patients = 40
		cfg.Churn = false
		m := casestudy.MustGenerate(cfg)
		c := dimension.CurrentContext(ref)
		e := NewEngine(m, c)

		rows, _, err := algebra.SQLAggregate(m, algebra.AggSpec{
			ResultDim: "N",
			Func:      agg.MustLookup("SETCOUNT"),
			GroupBy:   map[string]string{casestudy.DimDiagnosis: casestudy.CatGroup},
		}, c)
		if err != nil {
			t.Fatal(err)
		}
		viaAlgebra := map[string]string{}
		for _, r := range rows {
			viaAlgebra[r.Group[0]] = r.Value
		}
		viaEngine := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
		if len(viaAlgebra) != len(viaEngine) {
			t.Fatalf("seed %d: %d vs %d groups", seed, len(viaAlgebra), len(viaEngine))
		}
		for v, n := range viaEngine {
			if viaAlgebra[v] != fmt.Sprintf("%d", n) {
				t.Errorf("seed %d group %s: algebra %s, engine %d", seed, v, viaAlgebra[v], n)
			}
		}
	}
}

// sumBy is SumByContext without cancellation.
func sumBy(t *testing.T, e *Engine, dim, cat, argDim string) map[string]float64 {
	t.Helper()
	out, err := e.SumByContext(context.Background(), dim, cat, argDim)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// indices lists the bits set in b, for failure messages.
func indices(b *Bitmap) []int {
	var out []int
	b.Iterate(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
