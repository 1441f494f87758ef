package storage

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

func TestAppendFactMatchesRebuild(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 60
	m := casestudy.MustGenerate(cfg)
	c := dimension.CurrentContext(ref)
	e := NewEngine(m, c)
	// Warm some closures before appending, so propagation is exercised.
	e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	e.CountDistinctBy(casestudy.DimResidence, casestudy.CatRegion)

	// Add 10 new patients to the MO and append them to the engine.
	diag := m.Dimension(casestudy.DimDiagnosis)
	lows := diag.Category(casestudy.CatLowLevel)
	for i := 0; i < 10; i++ {
		id := fmt.Sprintf("new%d", i)
		if err := m.Relate(casestudy.DimDiagnosis, id, lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
		if err := m.Relate(casestudy.DimResidence, id, "A0"); err != nil {
			t.Fatal(err)
		}
		ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), 30+i)
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

	// The incrementally maintained engine must answer exactly like a fresh
	// rebuild, for warm and cold closures alike.
	fresh := NewEngine(m, c)
	for _, q := range []struct{ dim, cat string }{
		{casestudy.DimDiagnosis, casestudy.CatGroup},
		{casestudy.DimDiagnosis, casestudy.CatFamily},
		{casestudy.DimResidence, casestudy.CatRegion},
		{casestudy.DimResidence, casestudy.CatArea},
	} {
		inc := e.CountDistinctBy(q.dim, q.cat)
		reb := fresh.CountDistinctBy(q.dim, q.cat)
		if len(inc) != len(reb) {
			t.Fatalf("%s/%s: %v vs %v", q.dim, q.cat, inc, reb)
		}
		for v, n := range reb {
			if inc[v] != n {
				t.Errorf("%s/%s/%s: incremental %d, rebuild %d", q.dim, q.cat, v, inc[v], n)
			}
		}
	}
	if e.NumFacts() != 70 {
		t.Errorf("NumFacts = %d", e.NumFacts())
	}
}

func TestAppendFactErrors(t *testing.T) {
	e := patientEngine(t)
	if err := e.AppendFact("1"); err == nil {
		t.Error("re-appending an indexed fact must fail")
	}
	if err := e.AppendFact("ghost"); err == nil {
		t.Error("appending a fact absent from the MO must fail")
	}
	// Given pairs, the engine relates them, all or none.
	m := e.MO()
	low := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)[0]
	good := Pair{Dim: casestudy.DimDiagnosis, Value: low, Annot: dimension.Always()}
	bad := Pair{Dim: casestudy.DimResidence, Value: "no-such-area", Annot: dimension.Always()}
	if err := e.AppendFact("ghost", good, bad); err == nil {
		t.Error("a pair naming an unknown value must fail")
	}
	if m.Facts().Has("ghost") || m.Relation(casestudy.DimDiagnosis).Has("ghost", low) {
		t.Error("a failed append left pairs in the MO")
	}
	if err := e.AppendFact("ghost", good); err != nil {
		t.Fatal(err)
	}
	if !m.Relation(casestudy.DimDiagnosis).Has("ghost", low) || e.NumFacts() != 3 {
		t.Errorf("append with pairs: related %v, %d facts", m.Relation(casestudy.DimDiagnosis).Has("ghost", low), e.NumFacts())
	}
	if err := m.Relate(casestudy.DimDiagnosis, "related", low); err != nil {
		t.Fatal(err)
	}
	if err := e.AppendFact("related", good); err == nil {
		t.Error("pairs for a fact the MO already holds must fail")
	}
}

func TestBitmapGrow(t *testing.T) {
	b := NewBitmap(10)
	b.Set(3)
	b.grow(200)
	if !b.Has(3) || b.Has(150) {
		t.Error("grow must preserve bits")
	}
	b.Set(150)
	if !b.Has(150) || b.Count() != 2 {
		t.Error("bits beyond the old universe must work after grow")
	}
	b.grow(5) // shrink is a no-op
	if b.n != 200 {
		t.Errorf("universe = %d", b.n)
	}
}

// TestAppendFactAllocs bounds what one append allocates on a served-size
// engine — 40 k facts, columns warm, closures memoized — amortised over
// 1 024 appends: recording the fact's pairs in the MO plus AppendFact
// stays within 8 KB. A bitmap that regrew to its exact size on every
// word boundary copied itself whole on most appends that set it, ≈ 18 KB
// per append.
func TestAppendFactAllocs(t *testing.T) {
	const appends, budget = 1024, 8 << 10
	cfg := casestudy.DefaultGen()
	cfg.Patients = 40000
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, ctx())
	if err := e.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	for _, q := range []struct{ dim, cat string }{
		{casestudy.DimDiagnosis, casestudy.CatGroup},
		{casestudy.DimDiagnosis, casestudy.CatFamily},
		{casestudy.DimDiagnosis, casestudy.CatLowLevel},
		{casestudy.DimResidence, casestudy.CatRegion},
		{casestudy.DimResidence, casestudy.CatCounty},
		{casestudy.DimResidence, casestudy.CatArea},
	} {
		e.CountDistinctBy(q.dim, q.cat)
	}
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	areas := m.Dimension(casestudy.DimResidence).Category(casestudy.CatArea)
	ages := m.Relation(casestudy.DimAge).ValuesOf("p0")
	ids := make([]string, appends)
	for i := range ids {
		ids[i] = fmt.Sprintf("new%d", i)
	}
	valid := dimension.ValidDuring(temporal.Single(ref-100, temporal.Now))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i, id := range ids {
		for _, p := range []struct {
			dim, val string
			a        dimension.Annot
		}{
			{casestudy.DimDiagnosis, lows[i%len(lows)], valid},
			{casestudy.DimDiagnosis, lows[(7*i+3)%len(lows)], dimension.Always()},
			{casestudy.DimResidence, areas[i%len(areas)], valid},
			{casestudy.DimAge, ages[0], dimension.Always()},
		} {
			if err := m.RelateAnnot(p.dim, id, p.val, p.a); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.AppendFact(id); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	perAppend := float64(after.TotalAlloc-before.TotalAlloc) / appends
	t.Logf("an append allocates %.0f B in %.1f allocations", perAppend,
		float64(after.Mallocs-before.Mallocs)/appends)
	if perAppend > budget {
		t.Errorf("an append allocates %.0f B, budget %d", perAppend, budget)
	}
}
