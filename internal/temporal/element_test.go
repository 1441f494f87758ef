package temporal

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

var ref = MustDate("04/07/2026")

func el(ivs ...string) Element { return MustElement(ivs...) }

func TestNewElementCoalesces(t *testing.T) {
	cases := []struct {
		name string
		in   Element
		want string
	}{
		{"overlap", NewElement(MustNewInterval(0, 10), MustNewInterval(5, 20)), "[01/01/1970 - 21/01/1970]"},
		{"adjacent", NewElement(MustNewInterval(0, 4), MustNewInterval(5, 9)), "[01/01/1970 - 10/01/1970]"},
		{"disjoint", NewElement(MustNewInterval(0, 1), MustNewInterval(5, 6)), "[01/01/1970 - 02/01/1970] ∪ [06/01/1970 - 07/01/1970]"},
		{"contained", NewElement(MustNewInterval(0, 100), MustNewInterval(10, 20)), "[01/01/1970 - 11/04/1970]"},
		{"unordered", NewElement(MustNewInterval(50, 60), MustNewInterval(0, 1)), "[01/01/1970 - 02/01/1970] ∪ [20/02/1970 - 02/03/1970]"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("%s: got %q, want %q", c.name, got, c.want)
		}
		if !c.in.Valid() {
			t.Errorf("%s: invariant violated", c.name)
		}
	}
}

// TestIntervalAtMatchesIntervals pins IntervalAt to the copy Intervals
// returns, and that reading it allocates nothing.
func TestIntervalAtMatchesIntervals(t *testing.T) {
	e := NewElement(MustNewInterval(50, 60), MustNewInterval(0, 1), MustNewInterval(20, 30))
	ivs := e.Intervals()
	if len(ivs) != e.NumIntervals() {
		t.Fatalf("Intervals has %d, NumIntervals %d", len(ivs), e.NumIntervals())
	}
	for i, iv := range ivs {
		if got := e.IntervalAt(i); got != iv {
			t.Errorf("IntervalAt(%d) = %v, want %v", i, got, iv)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		for i := 0; i < e.NumIntervals(); i++ {
			_ = e.IntervalAt(i)
		}
	}); n != 0 {
		t.Errorf("IntervalAt allocates %.0f times per walk", n)
	}
}

func TestElementContains(t *testing.T) {
	e := el("[01/01/70 - 31/12/79]", "[01/01/85 - NOW]")
	for _, c := range []struct {
		d    string
		want bool
	}{
		{"01/01/70", true}, {"31/12/79", true}, {"15/06/75", true},
		{"01/01/80", false}, {"31/12/84", false},
		{"01/01/85", true}, {"04/07/2026", true},
		{"31/12/69", false},
	} {
		if got := e.Contains(MustDate(c.d), ref); got != c.want {
			t.Errorf("Contains(%s) = %v, want %v", c.d, got, c.want)
		}
	}
	if e.Contains(MustDate("01/01/2030"), ref) {
		t.Error("chronon after resolved NOW must not be contained")
	}
}

func TestElementUnionIntersectDifference(t *testing.T) {
	a := el("[01/01/70 - 31/12/79]")
	b := el("[01/01/75 - 31/12/84]")
	if got, want := a.Union(b).String(), "[01/01/1970 - 31/12/1984]"; got != want {
		t.Errorf("union: got %q want %q", got, want)
	}
	if got, want := a.Intersect(b).String(), "[01/01/1975 - 31/12/1979]"; got != want {
		t.Errorf("intersect: got %q want %q", got, want)
	}
	if got, want := a.Difference(b).String(), "[01/01/1970 - 31/12/1974]"; got != want {
		t.Errorf("difference: got %q want %q", got, want)
	}
	if got, want := b.Difference(a).String(), "[01/01/1980 - 31/12/1984]"; got != want {
		t.Errorf("difference rev: got %q want %q", got, want)
	}
}

func TestDifferenceSplitsInterval(t *testing.T) {
	a := el("[01/01/80 - NOW]")
	b := el("[01/01/85 - 31/12/89]")
	got := a.Difference(b).String()
	want := "[01/01/1980 - 31/12/1984] ∪ [01/01/1990 - NOW]"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestDifferenceWithNowEndpoints(t *testing.T) {
	a := el("[01/01/80 - NOW]")
	b := el("[01/01/85 - NOW]")
	got := a.Difference(b).String()
	want := "[01/01/1980 - 31/12/1984]"
	if got != want {
		t.Errorf("got %q want %q", got, want)
	}
	if !a.Difference(a).IsEmpty() {
		t.Error("e \\ e must be empty")
	}
}

func TestIntersectKeepsNow(t *testing.T) {
	a := el("[01/01/80 - NOW]")
	b := el("[01/01/90 - NOW]")
	if got, want := a.Intersect(b).String(), "[01/01/1990 - NOW]"; got != want {
		t.Errorf("got %q want %q", got, want)
	}
}

func TestCoversAndOverlaps(t *testing.T) {
	a := el("[01/01/70 - NOW]")
	b := el("[01/01/80 - 31/12/89]")
	if !a.Covers(b) {
		t.Error("a must cover b")
	}
	if b.Covers(a) {
		t.Error("b must not cover a")
	}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("overlap must hold both ways")
	}
	c := el("[01/01/60 - 31/12/65]")
	if a.Overlaps(c) {
		t.Error("disjoint elements must not overlap")
	}
	if !a.Covers(Empty()) {
		t.Error("everything covers the empty element")
	}
}

func TestResolve(t *testing.T) {
	e := el("[01/01/80 - NOW]")
	r := e.Resolve(ref)
	want := "[01/01/1980 - 04/07/2026]"
	if got := r.String(); got != want {
		t.Errorf("got %q want %q", got, want)
	}
	// Resolving an already-fixed element is the identity.
	if !r.Resolve(ref).Equal(r) {
		t.Error("resolve must be idempotent")
	}
}

func TestDuration(t *testing.T) {
	e := el("[01/01/70 - 10/01/70]")
	if got := e.Duration(ref); got != 10 {
		t.Errorf("duration = %d, want 10", got)
	}
	two := NewElement(At(0), At(5))
	if got := two.Duration(ref); got != 2 {
		t.Errorf("duration = %d, want 2", got)
	}
}

func TestStartEnd(t *testing.T) {
	e := el("[01/01/70 - 31/12/79]", "[01/01/85 - NOW]")
	s, ok := e.Start()
	if !ok || s != MustDate("01/01/70") {
		t.Errorf("Start = %v, %v", s, ok)
	}
	en, ok := e.End()
	if !ok || en != Now {
		t.Errorf("End = %v, %v", en, ok)
	}
	if _, ok := Empty().Start(); ok {
		t.Error("empty element has no start")
	}
}

// randomElement builds a random element from up to n intervals in a small
// chronon universe so set-level cross-checks are cheap.
func randomElement(r *rand.Rand, n int) Element {
	k := r.Intn(n + 1)
	ivs := make([]Interval, 0, k)
	for i := 0; i < k; i++ {
		s := Chronon(r.Intn(64))
		e := s + Chronon(r.Intn(16))
		ivs = append(ivs, MustNewInterval(s, e))
	}
	return NewElement(ivs...)
}

// toSet expands an element over the small universe [0, 128).
func toSet(e Element) map[Chronon]bool {
	m := map[Chronon]bool{}
	for c := Chronon(0); c < 128; c++ {
		if e.Contains(c, ref) {
			m[c] = true
		}
	}
	return m
}

func TestElementSetSemanticsQuick(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		a := randomElement(r, 5)
		b := randomElement(r, 5)
		sa, sb := toSet(a), toSet(b)

		check := func(name string, got Element, pred func(c Chronon) bool) {
			if !got.Valid() {
				t.Fatalf("%s: result not canonical: %v", name, got)
			}
			for c := Chronon(0); c < 128; c++ {
				if got.Contains(c, ref) != pred(c) {
					t.Fatalf("%s: mismatch at %d (a=%v b=%v got=%v)", name, c, a, b, got)
				}
			}
		}
		check("union", a.Union(b), func(c Chronon) bool { return sa[c] || sb[c] })
		check("intersect", a.Intersect(b), func(c Chronon) bool { return sa[c] && sb[c] })
		check("difference", a.Difference(b), func(c Chronon) bool { return sa[c] && !sb[c] })
	}
}

func TestElementAlgebraPropertiesQuick(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	gen := func() Element { return randomElement(r, 4) }
	cfg := &quick.Config{MaxCount: 200}

	// Union commutativity.
	if err := quick.Check(func(seed int64) bool {
		a, b := gen(), gen()
		return a.Union(b).Equal(b.Union(a))
	}, cfg); err != nil {
		t.Error(err)
	}
	// Intersection distributes over union.
	if err := quick.Check(func(seed int64) bool {
		a, b, c := gen(), gen(), gen()
		left := a.Intersect(b.Union(c))
		right := a.Intersect(b).Union(a.Intersect(c))
		return left.Equal(right)
	}, cfg); err != nil {
		t.Error(err)
	}
	// De Morgan within a universe: a \ (b ∪ c) = (a \ b) ∩ (a \ c).
	if err := quick.Check(func(seed int64) bool {
		a, b, c := gen(), gen(), gen()
		left := a.Difference(b.Union(c))
		right := a.Difference(b).Intersect(a.Difference(c))
		return left.Equal(right)
	}, cfg); err != nil {
		t.Error(err)
	}
	// Idempotence and identity laws.
	if err := quick.Check(func(seed int64) bool {
		a := gen()
		return a.Union(a).Equal(a) && a.Intersect(a).Equal(a) &&
			a.Union(Empty()).Equal(a) && a.Intersect(Empty()).IsEmpty() &&
			a.Difference(Empty()).Equal(a) && Empty().Difference(a).IsEmpty()
	}, cfg); err != nil {
		t.Error(err)
	}
}

func TestAlwaysElement(t *testing.T) {
	a := AlwaysElement()
	if !a.Contains(MustDate("01/01/1850"), ref) || !a.Contains(ref, ref) {
		t.Error("AlwaysElement must contain every chronon")
	}
	if !a.Covers(el("[01/01/70 - NOW]")) {
		t.Error("AlwaysElement must cover any element")
	}
}

// TestAlwaysElementShared pins the all-time element's zero-allocation
// contract and that Union's all-time shortcut is what the general path
// would canonicalise to.
func TestAlwaysElementShared(t *testing.T) {
	x := Single(5, 20)
	if got := testing.AllocsPerRun(100, func() { _ = AlwaysElement() }); got != 0 {
		t.Errorf("AlwaysElement allocates %v times, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() { _ = AlwaysElement().Union(x) }); got != 0 {
		t.Errorf("AlwaysElement().Union allocates %v times, want 0", got)
	}
	below := NewElement(MustNewInterval(MinChronon-10, MinChronon-5), MustNewInterval(0, 1))
	for _, o := range []Element{x, AlwaysElement(), AtElement(Now), Span("01/01/80", "NOW"), below} {
		want := NewElement(append(AlwaysElement().Intervals(), o.Intervals()...)...)
		if got := AlwaysElement().Union(o); !got.Equal(want) || !got.Valid() {
			t.Errorf("Always ∪ %v = %v, want %v", o, got, want)
		}
		if got := o.Union(AlwaysElement()); !got.Equal(want) {
			t.Errorf("%v ∪ Always = %v, want %v", o, got, want)
		}
	}
}

// coalesceReference is the canonical form NewElement documents, computed
// apart from it: sort by (start, end) and merge overlapping or adjacent
// neighbours into a fresh list.
func coalesceReference(ivs []Interval) []Interval {
	sorted := append([]Interval(nil), ivs...)
	sort.Slice(sorted, func(i, j int) bool {
		if sorted[i].Start != sorted[j].Start {
			return sorted[i].Start < sorted[j].Start
		}
		return sorted[i].End < sorted[j].End
	})
	var out []Interval
	for _, iv := range sorted {
		if n := len(out); n > 0 && iv.Start <= out[n-1].End.Succ() {
			if iv.End > out[n-1].End {
				out[n-1].End = iv.End
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// TestCanonicalizeInPlace checks Canonicalize against the reference on
// random interval lists, NOW and the domain's ends included, raw pairs
// with start after end too (a decoder hands them over unchecked), and
// checks that it allocates nothing and writes nothing past its result.
func TestCanonicalizeInPlace(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	ends := []Chronon{MinChronon, MaxChronon, Now, 0, 5}
	pick := func() Chronon {
		if r.Intn(4) == 0 {
			return ends[r.Intn(len(ends))]
		}
		return Chronon(r.Intn(40))
	}
	for k := 0; k < 2000; k++ {
		ivs := make([]Interval, r.Intn(8))
		for i := range ivs {
			ivs[i] = Interval{Start: pick(), End: pick()}
		}
		want := coalesceReference(ivs)
		if got := NewElement(ivs...).Intervals(); !slices.Equal(got, want) {
			t.Fatalf("NewElement(%v) = %v, want %v", ivs, got, want)
		}
		buf := slices.Clone(ivs)
		got := Canonicalize(buf)
		if !slices.Equal(got.Intervals(), want) {
			t.Fatalf("Canonicalize(%v) = %v, want %v", ivs, got.Intervals(), want)
		}
		if got.NumIntervals() > 0 && &got.ivs[0] != &buf[0] {
			t.Fatalf("Canonicalize(%v) did not build in place", ivs)
		}
	}
	buf := []Interval{{Start: 9, End: 12}, {Start: 1, End: 3}, {Start: 4, End: 6}}
	if n := testing.AllocsPerRun(100, func() { Canonicalize(buf) }); n != 0 {
		t.Errorf("Canonicalize allocates %.0f times per call", n)
	}
}
