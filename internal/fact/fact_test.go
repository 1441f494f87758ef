package fact

import (
	"fmt"
	"testing"

	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

func TestNewGroupCanonical(t *testing.T) {
	g := NewGroup([]string{"2", "1", "2"})
	if g.ID != "{1,2}" {
		t.Errorf("ID = %q", g.ID)
	}
	if !g.IsGroup() || g.Size() != 2 {
		t.Errorf("group props wrong: %+v", g)
	}
	base := NewFact("1")
	if base.IsGroup() || base.Size() != 1 {
		t.Errorf("base props wrong: %+v", base)
	}
	// Canonical identity: same members, same fact.
	if NewGroup([]string{"b", "a"}).ID != NewGroup([]string{"a", "b"}).ID {
		t.Error("group identity must be order-independent")
	}
	if NewGroup(nil).ID != "{}" {
		t.Error("empty group renders as {}")
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet(NewFact("1"), NewFact("2"), NewFact("3"))
	b := NewSet(NewFact("2"), NewFact("4"))
	if a.Len() != 3 || !a.Has("1") || a.Has("4") {
		t.Error("basic set ops wrong")
	}
	u := a.Union(b)
	if u.Len() != 4 {
		t.Errorf("union len = %d", u.Len())
	}
	d := a.Difference(b)
	if d.Len() != 2 || d.Has("2") || !d.Has("1") {
		t.Errorf("difference = %v", d)
	}
	if got := u.String(); got != "{1, 2, 3, 4}" {
		t.Errorf("String = %q", got)
	}
	// Duplicate add is idempotent (facts are a set).
	a.Add(NewFact("1"))
	if a.Len() != 3 {
		t.Error("duplicate add must be idempotent")
	}
	c := a.Clone()
	c.Remove("1")
	if !a.Has("1") {
		t.Error("clone mutation leaked")
	}
	if a.Equal(c) {
		t.Error("sets with different members must differ")
	}
	if !a.Equal(a.Clone()) {
		t.Error("clone must be equal")
	}
	if f, ok := a.Get("2"); !ok || f.ID != "2" {
		t.Error("Get wrong")
	}
}

func TestPairFact(t *testing.T) {
	p := PairFact(NewFact("1"), NewFact("2"))
	if p.ID != "(1,2)" {
		t.Errorf("pair id = %q", p.ID)
	}
	if PairFact(NewFact("2"), NewFact("1")).ID == p.ID {
		t.Error("pairs are ordered")
	}
}

func TestRelationBasics(t *testing.T) {
	r := NewRelation()
	r.Add("1", "9")
	r.Add("2", "3")
	r.Add("2", "9")
	if r.Len() != 3 {
		t.Errorf("Len = %d", r.Len())
	}
	if !r.Has("1", "9") || r.Has("1", "3") {
		t.Error("Has wrong")
	}
	if got := r.ValuesOf("2"); len(got) != 2 || got[0] != "3" || got[1] != "9" {
		t.Errorf("ValuesOf = %v", got)
	}
	if r.ValuesLen("1") != 1 || r.ValuesLen("2") != 2 || r.ValuesLen("3") != 0 {
		t.Errorf("ValuesLen = %d, %d, %d", r.ValuesLen("1"), r.ValuesLen("2"), r.ValuesLen("3"))
	}
	r.Remove("2", "3")
	if r.Has("2", "3") || r.Len() != 2 {
		t.Error("Remove failed")
	}
}

func TestRelationCoalesce(t *testing.T) {
	r := NewRelation()
	// Example 9: (2,3) ∈ [23/03/75-24/12/75] R, extended by an adjacent
	// interval must coalesce into one maximal chronon set.
	r.AddAnnot("2", "3", dimension.ValidDuring(temporal.Span("23/03/75", "24/12/75")))
	r.AddAnnot("2", "3", dimension.ValidDuring(temporal.Span("25/12/75", "31/12/75")))
	a, ok := r.Annot("2", "3")
	if !ok {
		t.Fatal("pair missing")
	}
	if want := "[23/03/1975 - 31/12/1975]"; a.Time.Valid.String() != want {
		t.Errorf("coalesced = %v, want %v", a.Time.Valid, want)
	}
	if r.Len() != 1 {
		t.Errorf("Len = %d, want 1", r.Len())
	}
	// Probability combines by max.
	r.AddAnnot("2", "3", dimension.Always().WithProb(0.5))
	a, _ = r.Annot("2", "3")
	if a.Prob != 1 {
		t.Errorf("prob = %v, want max(1, 0.5) = 1", a.Prob)
	}
}

func TestRelationUnionRestrictCloneEqual(t *testing.T) {
	r := NewRelation()
	r.AddAnnot("1", "9", dimension.ValidDuring(temporal.Span("01/01/89", "NOW")))
	r.Add("2", "9")

	o := NewRelation()
	o.AddAnnot("1", "9", dimension.ValidDuring(temporal.Span("01/01/70", "31/12/79")))
	o.Add("3", "5")

	u := r.Union(o)
	if u.Len() != 3 {
		t.Errorf("union len = %d", u.Len())
	}
	a, _ := u.Annot("1", "9")
	if want := "[01/01/1970 - 31/12/1979] ∪ [01/01/1989 - NOW]"; a.Time.Valid.String() != want {
		t.Errorf("union annot = %v", a.Time.Valid)
	}

	restricted := u.Restrict(NewDict(), func(f string) bool { return f == "2" })
	if restricted.Len() != 1 || !restricted.Has("2", "9") {
		t.Errorf("restrict wrong: %v", restricted.Pairs())
	}

	c := r.Clone(NewDict())
	if !c.Equal(r) {
		t.Error("clone must equal original")
	}
	c.Add("9", "9")
	if c.Equal(r) {
		t.Error("mutated clone must differ")
	}
	if r.Equal(o) {
		t.Error("different relations must differ")
	}
}

func TestRelationPairsDeterministic(t *testing.T) {
	r := NewRelation()
	r.Add("2", "9")
	r.Add("1", "9")
	r.Add("2", "3")
	ps := r.Pairs()
	want := []string{"1/9", "2/3", "2/9"}
	for i, p := range ps {
		if got := p.FactID + "/" + p.ValueID; got != want[i] {
			t.Errorf("pair %d = %s, want %s", i, got, want[i])
		}
	}
}

// TestRelationDeadSpaceBounded pins that the space writes leave behind is
// reclaimed: coalescing one pair with n disjoint chronons stores n
// growing unions, and alternating new values between two facts moves a
// span on every add, yet the arena and the entries stay within a small
// multiple of what is live, not the O(n²) and O(n) an append-only layout
// would keep. Annotations taken along the way keep their content.
func TestRelationDeadSpaceBounded(t *testing.T) {
	const n = 2000
	r := NewRelation()
	var held []dimension.Annot
	for i := 0; i < n; i++ {
		c := temporal.Chronon(2 * i)
		r.AddAnnot("f", "v", dimension.ValidDuring(temporal.Single(c, c)))
		if i%100 == 0 {
			a, _ := r.Annot("f", "v")
			held = append(held, a)
		}
	}
	a, _ := r.Annot("f", "v")
	if a.Time.Valid.NumIntervals() != n {
		t.Fatalf("union has %d intervals, want %d", a.Time.Valid.NumIntervals(), n)
	}
	if got, bound := r.times.Len(), 3*n+2*compactMin; got > bound {
		t.Errorf("arena holds %d intervals for %d live, bound %d", got, n, bound)
	}
	for k, h := range held {
		if h.Time.Valid.NumIntervals() != 100*k+1 {
			t.Fatalf("annotation %d taken earlier now has %d intervals", k, h.Time.Valid.NumIntervals())
		}
	}

	r = NewRelation()
	for i := 0; i < n; i++ {
		r.Add("a", fmt.Sprint("x", i))
		r.Add("b", fmt.Sprint("y", i))
	}
	if r.Len() != 2*n || r.ValuesLen("a") != n || r.ValuesLen("b") != n {
		t.Fatalf("Len %d, a %d, b %d", r.Len(), r.ValuesLen("a"), r.ValuesLen("b"))
	}
	if got, bound := len(r.ents), 3*r.Len()+2*compactMin; got > bound {
		t.Errorf("entries hold %d slots for %d pairs, bound %d", got, r.Len(), bound)
	}
}

// TestSetDenseSortedOnce pins Dense's shared order: it is sorted by fact
// id, every call until the membership changes returns the same slice, an
// append to that slice copies instead of writing into it, and each kind
// of membership change gives a fresh order.
func TestSetDenseSortedOnce(t *testing.T) {
	s := NewSet(NewFact("p3"), NewFact("p10"), NewFact("p2"))
	ids := func(dense []uint32) string {
		out := make([]string, len(dense))
		for k, i := range dense {
			out[k] = s.Dict().At(i)
		}
		return fmt.Sprint(out)
	}
	first := s.Dense()
	if got := ids(first); got != "[p10 p2 p3]" {
		t.Fatalf("Dense = %s, want [p10 p2 p3]", got)
	}
	if again := s.Dense(); &again[0] != &first[0] {
		t.Error("a second Dense sorted again instead of sharing the first order")
	}
	if cap(first) != len(first) {
		t.Fatalf("Dense has spare capacity %d: an append would write into the set's order", cap(first)-len(first))
	}
	_ = append(first, 99)
	if got := ids(s.Dense()); got != "[p10 p2 p3]" || fmt.Sprint(s.IDs()) != "[p10 p2 p3]" {
		t.Errorf("after an append to Dense's slice: Dense %s, IDs %v", got, s.IDs())
	}
	steps := []struct {
		name string
		do   func()
		want string
	}{
		{"Add", func() { s.Add(NewFact("p1")) }, "[p1 p10 p2 p3]"},
		{"Remove", func() { s.Remove("p2") }, "[p1 p10 p3]"},
		{"AddDense", func() {
			if err := s.AddDense(s.Dict().Intern("p0")); err != nil {
				t.Fatal(err)
			}
		}, "[p0 p1 p10 p3]"},
	}
	for _, st := range steps {
		s.Dense()
		st.do()
		if got := ids(s.Dense()); got != st.want {
			t.Errorf("after %s: Dense %s, want %s", st.name, got, st.want)
		}
		if got := fmt.Sprint(s.IDs()); got != st.want {
			t.Errorf("after %s: IDs %s, want %s", st.name, got, st.want)
		}
	}
}

// TestSetDenseConcurrentDictReads has readers that may run in parallel
// fill the shared order at once (the race detector checks the fill); each
// gets the same sorted order.
func TestSetDenseConcurrentDictReads(t *testing.T) {
	s := NewSet()
	for k := 0; k < 500; k++ {
		s.Add(NewFact(fmt.Sprintf("f%d", (k*7919)%500)))
	}
	want := fmt.Sprint(s.Clone().IDs())
	done := make(chan string)
	for w := 0; w < 4; w++ {
		go func() {
			if w%2 == 0 {
				s.Dense()
			}
			done <- fmt.Sprint(s.IDs())
		}()
	}
	for w := 0; w < 4; w++ {
		if got := <-done; got != want {
			t.Errorf("a concurrent reader got another order")
		}
	}
}
