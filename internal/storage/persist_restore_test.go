package storage

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/core"
)

func patientMO(t *testing.T) *core.MO {
	t.Helper()
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestRestoreEngineEquivalence pins the restore contract: an engine
// rebuilt from an export of a built engine's fact order and direct
// bitmaps answers every aggregate identically.
func TestRestoreEngineEquivalence(t *testing.T) {
	m := patientMO(t)
	built, err := BuildEngine(context.Background(), m, ctx())
	if err != nil {
		t.Fatal(err)
	}
	facts := built.ExportFacts()
	order := denseOrder(m, facts)
	perDim := map[string]map[string]*Bitmap{}
	for _, name := range m.Schema().DimensionNames() {
		perDim[name] = map[string]*Bitmap{}
		r := m.Relation(name)
		if r == nil {
			continue
		}
		for _, p := range r.Pairs() {
			if !ctx().Admits(p.Annot) {
				continue
			}
			bm := perDim[name][p.ValueID]
			if bm == nil {
				bm = NewBitmap(len(facts))
				perDim[name][p.ValueID] = bm
			}
			for i, f := range facts {
				if f == p.FactID {
					bm.Set(i)
				}
			}
		}
	}
	restored, err := RestoreEngine(m, ctx(), order, perDim)
	if err != nil {
		t.Fatal(err)
	}
	if restored.NumFacts() != built.NumFacts() {
		t.Fatalf("facts %d vs %d", restored.NumFacts(), built.NumFacts())
	}
	for _, dc := range [][2]string{
		{casestudy.DimDiagnosis, casestudy.CatGroup},
		{casestudy.DimResidence, casestudy.CatCounty},
		{casestudy.DimAge, casestudy.CatAge},
	} {
		g, err := restored.CountDistinctByContext(context.Background(), dc[0], dc[1])
		if err != nil {
			t.Fatal(err)
		}
		w, err := built.CountDistinctByContext(context.Background(), dc[0], dc[1])
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("%s/%s: restored %v, built %v", dc[0], dc[1], g, w)
		}
	}
}

// TestRestoreEngineRejects pins every validation error: wrong count,
// duplicate fact, unknown fact, unknown dimension.
func TestRestoreEngineRejects(t *testing.T) {
	m := patientMO(t)
	built, err := BuildEngine(context.Background(), m, ctx())
	if err != nil {
		t.Fatal(err)
	}
	facts := denseOrder(m, built.ExportFacts())

	if _, err := RestoreEngine(m, ctx(), facts[:len(facts)-1], nil); err == nil {
		t.Error("short fact list accepted")
	}
	dup := slices.Clone(facts)
	dup[1] = dup[0]
	if _, err := RestoreEngine(m, ctx(), dup, nil); err == nil {
		t.Error("duplicate fact accepted")
	}
	alien := slices.Clone(facts)
	alien[0] = m.Facts().Dict().Intern("no-such-fact") // numbered, not a member
	if _, err := RestoreEngine(m, ctx(), alien, nil); err == nil {
		t.Error("fact outside the MO accepted")
	}
	alien[0] = uint32(m.Facts().Dict().Len()) // not even numbered
	if _, err := RestoreEngine(m, ctx(), alien, nil); err == nil {
		t.Error("id outside the dictionary accepted")
	}
	if _, err := RestoreEngine(m, ctx(), facts,
		map[string]map[string]*Bitmap{"NoSuchDim": {}}); err == nil {
		t.Error("bitmaps for unknown dimension accepted")
	}

	// The happy path with nil bitmaps still builds: every schema dimension
	// gets an empty direct index.
	e, err := RestoreEngine(m, ctx(), facts, nil)
	if err != nil {
		t.Fatal(err)
	}
	if e.NumFacts() != len(facts) {
		t.Fatal("nil-bitmap restore lost facts")
	}
}

// denseOrder returns the dictionary ids of facts in m, in order.
func denseOrder(m *core.MO, facts []string) []uint32 {
	out := make([]uint32, len(facts))
	for i, f := range facts {
		out[i], _ = m.Facts().Dict().Lookup(f)
	}
	return out
}
