package fact

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// eagerTwin builds the relation a deferred fill describes through the
// ordinary mutators, for equivalence checks.
func eagerTwin() *Relation {
	r := NewRelation()
	r.Add("f1", "a")
	r.Add("f1", "b")
	r.Add("f2", "a")
	r.AddAnnot("f3", "c", dimension.Annot{
		Time: temporal.Bitemporal{Valid: temporal.Single(0, 10), Trans: temporal.AlwaysElement()},
		Prob: 0.5,
	})
	return r
}

func deferredTwin(t *testing.T, ran *int) *Relation {
	t.Helper()
	return NewRelationDeferred(NewDict(), func(r *Relation) {
		*ran++
		r.AdoptPairs("f1", []Entry{{"a", dimension.Always()}, {"b", dimension.Always()}})
		r.AdoptPairs("f2", []Entry{{"a", dimension.Always()}})
		r.AdoptPairs("f3", []Entry{{"c", dimension.Annot{
			Time: temporal.Bitemporal{Valid: temporal.Single(0, 10), Trans: temporal.AlwaysElement()},
			Prob: 0.5,
		}}})
	})
}

// TestDeferredRelationEquivalence pins that a deferred relation is
// observationally identical to the eagerly built one through every
// accessor, and that the fill runs exactly once.
func TestDeferredRelationEquivalence(t *testing.T) {
	want := eagerTwin()
	ran := 0
	r := deferredTwin(t, &ran)
	if ran != 0 {
		t.Fatal("fill ran before first access")
	}
	if !r.Equal(want) {
		t.Fatal("deferred relation diverges from eager build")
	}
	if ran != 1 {
		t.Fatalf("fill ran %d times", ran)
	}
	// Exhaust the accessor surface on a fresh deferred instance each time,
	// so every method proves it materializes on its own.
	accessors := map[string]func(r *Relation) bool{
		"ValuesLen": func(r *Relation) bool { return r.ValuesLen("f1") == 2 },
		"RangeValues": func(r *Relation) bool {
			n := 0
			r.RangeValues("f1", func(string, dimension.Annot) bool { n++; return true })
			return n == 2
		},
		"Annot":    func(r *Relation) bool { a, ok := r.Annot("f3", "c"); return ok && a.Prob == 0.5 },
		"Has":      func(r *Relation) bool { return r.Has("f2", "a") && !r.Has("f2", "b") },
		"ValuesOf": func(r *Relation) bool { v := r.ValuesOf("f1"); return len(v) == 2 && v[0] == "a" },
		"Rekey":    func(r *Relation) bool { r.Rekey(NewDict()); return r.Len() == 4 && r.Has("f3", "c") },
		"Len":      func(r *Relation) bool { return r.Len() == 4 },
		"Pairs":    func(r *Relation) bool { return len(r.Pairs()) == 4 },
		"Restrict": func(r *Relation) bool {
			return r.Restrict(NewDict(), func(f string) bool { return f == "f1" }).Len() == 2
		},
		"Clone": func(r *Relation) bool { return r.Clone(NewDict()).Len() == 4 },
		"Range": func(r *Relation) bool {
			n := 0
			r.Range(func(string, string, dimension.Annot) bool { n++; return true })
			return n == 4
		},
		"SliceValid": func(r *Relation) bool { return r.SliceValid(5, 100).Len() == 4 && r.SliceValid(50, 100).Len() == 3 },
		"SliceTrans": func(r *Relation) bool { return r.SliceTrans(5, 100).Len() == 4 },
		"FilterProb": func(r *Relation) bool { return r.FilterProb(0).Len() == 4 && r.FilterProb(0.6).Len() == 3 },
	}
	for name, probe := range accessors {
		ran := 0
		if !probe(deferredTwin(t, &ran)) {
			t.Errorf("%s observed wrong state on a deferred relation", name)
		}
		if ran != 1 {
			t.Errorf("%s materialized %d times, want exactly 1", name, ran)
		}
	}
}

// TestDeferredRelationMutators pins the write paths: mutating a deferred
// relation materializes it first, so the fill's pairs and the new ones
// coexist under the normal coalescing rules.
func TestDeferredRelationMutators(t *testing.T) {
	ran := 0
	r := deferredTwin(t, &ran)
	r.AddAnnot("f4", "d", dimension.Always())
	if ran != 1 || r.Len() != 5 || !r.Has("f1", "a") {
		t.Fatalf("AddAnnot on deferred: ran=%d len=%d", ran, r.Len())
	}
	// Coalescing with a filled pair: max prob wins.
	r.AddAnnot("f3", "c", dimension.Annot{Time: dimension.Always().Time, Prob: 0.9})
	if a, _ := r.Annot("f3", "c"); a.Prob != 0.9 {
		t.Fatalf("coalesce after fill: prob %v", a.Prob)
	}

	ran = 0
	r = deferredTwin(t, &ran)
	r.Remove("f1", "a")
	if ran != 1 || r.Len() != 3 || r.Has("f1", "a") {
		t.Fatalf("Remove on deferred: ran=%d len=%d", ran, r.Len())
	}

	// Union materializes the other side too.
	ran = 0
	other := deferredTwin(t, &ran)
	u := NewRelation()
	u.Add("f9", "z")
	if got := u.Union(other); ran != 1 || got.Len() != 5 {
		t.Fatalf("Union with deferred operand: ran=%d len=%d", ran, got.Len())
	}
}

// TestAdoptPairsSemantics pins AdoptPairs' contract on an ordinary
// relation: ownership transfer, empty-map no-op, and the AddAnnot
// fallback when the fact already exists.
func TestAdoptPairsSemantics(t *testing.T) {
	r := NewRelation()
	r.AdoptPairs("f1", nil)
	if r.Len() != 0 {
		t.Fatal("empty adopt must be a no-op")
	}
	r.AdoptPairs("f1", []Entry{{"a", dimension.Always().WithProb(0.4)}})
	if r.Len() != 1 {
		t.Fatal("adopt did not record the pair")
	}
	// Adopting into an existing fact coalesces instead of clobbering.
	r.AdoptPairs("f1", []Entry{
		{"a", dimension.Always().WithProb(0.7)},
		{"b", dimension.Always()},
	})
	if r.Len() != 2 {
		t.Fatalf("len after re-adopt = %d", r.Len())
	}
	if a, _ := r.Annot("f1", "a"); a.Prob != 0.7 {
		t.Fatalf("re-adopt must coalesce by max prob, got %v", a.Prob)
	}
	r.AdoptPairs("f2", []Entry{{"b", dimension.Always()}})
	if r.Len() != 3 || !r.Has("f2", "b") {
		t.Fatalf("adopt of a second fact: len %d", r.Len())
	}
}

// TestSetDict pins the set's dictionary: ids are numbered as they
// arrive and kept across Remove, Dense orders members by fact id, not by
// number, and a clone numbers its facts as the original does.
func TestSetDict(t *testing.T) {
	s := NewSet(NewFact("p2"), NewFact("p10"), NewGroup([]string{"p1", "p2"}))
	d := s.Dict()
	if i, ok := d.Lookup("p10"); !ok || i != 1 || d.At(i) != "p10" {
		t.Fatalf("p10 numbered %d/%v", i, ok)
	}
	if got := s.Dense(); len(got) != 3 || d.At(got[0]) != "p10" || d.At(got[1]) != "p2" || d.At(got[2]) != "{p1,p2}" {
		t.Fatalf("Dense = %v", got)
	}
	if f, ok := s.Get("{p1,p2}"); !ok || f.Size() != 2 {
		t.Fatalf("group member list lost: %+v", f)
	}
	s.Remove("p2")
	if s.Len() != 2 || s.Has("p2") || d.Len() != 3 {
		t.Fatalf("Remove: len %d, has %v, dictionary %d", s.Len(), s.Has("p2"), d.Len())
	}
	s.Add(NewFact("p2"))
	if i, _ := d.Lookup("p2"); i != 0 || s.Len() != 3 || d.Len() != 3 {
		t.Fatalf("re-add numbered p2 %d, len %d, dictionary %d", i, s.Len(), d.Len())
	}
	c := s.Clone()
	c.Add(NewFact("p3"))
	if c.Dict() == d || d.Len() != 3 || !c.Equal(s.Union(NewSet(NewFact("p3")))) {
		t.Fatal("a clone's writes reached the original's dictionary")
	}
	for _, f := range s.IDs() {
		i, _ := d.Lookup(f)
		if j, _ := c.Dict().Lookup(f); i != j {
			t.Fatalf("clone numbers %s %d, original %d", f, j, i)
		}
	}
	// A batch interns like single calls; AddDense admits only numbered ids.
	ids := d.InternAll([]string{"p2", "p4", "p4"})
	if !slices.Equal(ids, []uint32{0, 3, 3}) || d.Len() != 4 || s.Has("p4") {
		t.Fatalf("InternAll numbered %v, dictionary %d, has p4 %v", ids, d.Len(), s.Has("p4"))
	}
	if err := s.AddDense(4); err == nil || s.Len() != 3 {
		t.Fatalf("AddDense past the dictionary: %v, len %d", err, s.Len())
	}
	if err := s.AddDense(3); err != nil || !s.Has("p4") || s.Len() != 4 {
		t.Fatalf("AddDense(3): %v, has p4 %v, len %d", err, s.Has("p4"), s.Len())
	}
}

// TestRelationReadsAllocateNothing gates the hot accessors on work, not
// wall clock: the walks, the point lookups and a coalescing re-add of an
// existing all-time pair allocate nothing.
func TestRelationReadsAllocateNothing(t *testing.T) {
	r := eagerTwin()
	always := dimension.Always()
	n := 0
	for name, op := range map[string]func(){
		"Range":       func() { r.Range(func(string, string, dimension.Annot) bool { n++; return true }) },
		"RangeValues": func() { r.RangeValues("f1", func(string, dimension.Annot) bool { n++; return true }) },
		"Has":         func() { _ = r.Has("f1", "b") },
		"Annot":       func() { _, _ = r.Annot("f3", "c") },
		"AddAnnot":    func() { r.AddAnnot("f1", "b", always) },
	} {
		if got := testing.AllocsPerRun(100, op); got != 0 {
			t.Errorf("%s allocates %v times per call, want 0", name, got)
		}
	}
	if r.Len() != 4 {
		t.Fatalf("re-adds changed the relation: len %d", r.Len())
	}
}

// TestDeferredRelationConcurrentFirstRead pins that the first read of a
// deferred relation may come from many goroutines at once: the fill runs
// once, every reader waits for it and sees all of its pairs, and reads
// after it write nothing (under -race, a read that wrote would report).
func TestDeferredRelationConcurrentFirstRead(t *testing.T) {
	const facts, readers = 2000, 16
	var ran atomic.Int32
	r := NewRelationDeferred(NewDict(), func(r *Relation) {
		ran.Add(1)
		for i := 0; i < facts; i++ {
			r.AdoptPairs(fmt.Sprintf("f%d", i), []Entry{
				{"a", dimension.Always()},
				{fmt.Sprintf("v%d", i%7), dimension.ValidDuring(temporal.Single(temporal.Chronon(i), temporal.Chronon(i+5)))},
			})
		}
	})
	reads := []func() bool{
		func() bool { return r.Len() == 2*facts },
		func() bool { return r.ValuesLen("f7") == 2 },
		func() bool { return r.Has("f1999", "v4") },
		func() bool { a, ok := r.Annot("f3", "v3"); return ok && a.Time.Valid.Contains(4, 0) },
		func() bool {
			n := 0
			r.Range(func(string, string, dimension.Annot) bool { n++; return true })
			return n == 2*facts
		},
		func() bool {
			n := 0
			r.RangeValues("f42", func(string, dimension.Annot) bool { n++; return true })
			return n == 2
		},
		func() bool { return len(r.Pairs()) == 2*facts },
		func() bool { return len(r.ValuesOf("f5")) == 2 },
	}
	var wg sync.WaitGroup
	start := make(chan struct{})
	bad := make(chan int, readers)
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			<-start
			for k := range reads {
				if read := reads[(g+k)%len(reads)]; !read() {
					bad <- (g + k) % len(reads)
				}
			}
		}(g)
	}
	close(start)
	wg.Wait()
	close(bad)
	for k := range bad {
		t.Errorf("read %d saw a relation the fill had not finished", k)
	}
	if n := ran.Load(); n != 1 {
		t.Fatalf("fill ran %d times, want 1", n)
	}
}
