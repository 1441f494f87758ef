package temporal

import (
	"cmp"
	"slices"
	"sort"
	"strings"
)

// Element is a temporal element: a set of chronons represented canonically
// as sorted, pairwise disjoint, non-adjacent closed intervals. The canonical
// form realizes the paper's coalescing invariant — the chronon set attached
// to a piece of data is the maximal set during which the data is valid, so
// no two value-equivalent annotations can coexist.
//
// The zero value is the empty element. Elements are immutable; all methods
// return new elements.
type Element struct {
	ivs []Interval
}

// Empty returns the empty temporal element.
func Empty() Element { return Element{} }

// alwaysIvs backs every all-time element. Elements are immutable — no
// code writes an element's ivs — so one shared array serves them all; the
// capacity clamp keeps an append from ever reaching it.
var alwaysIvs = [1]Interval{{Start: MinChronon, End: Now}}

// AlwaysElement returns the element covering the entire time domain,
// including the growing NOW endpoint. It allocates nothing.
func AlwaysElement() Element { return Element{ivs: alwaysIvs[:1:1]} }

// isAlways reports whether e is the all-time element.
func (e Element) isAlways() bool { return len(e.ivs) == 1 && e.ivs[0] == alwaysIvs[0] }

// within reports whether every chronon of e lies in [MinChronon, NOW], so
// that its union with the all-time element is the all-time element.
func (e Element) within() bool {
	return e.ivs[0].Start >= MinChronon && e.ivs[len(e.ivs)-1].End <= Now
}

// NewElement builds a canonical element from arbitrary (possibly
// overlapping, unordered, adjacent) intervals.
func NewElement(ivs ...Interval) Element {
	if len(ivs) == 0 {
		return Element{}
	}
	return Canonicalize(slices.Clone(ivs))
}

// Canonicalize is NewElement done in ivs's own storage: it sorts and
// coalesces ivs in place and returns the element over the prefix that
// holds the result, allocating nothing. The element aliases ivs and
// stays as it is only while nothing writes ivs: a caller that keeps the
// element must not write ivs again, and one that reuses ivs must be done
// with the element first.
func Canonicalize(ivs []Interval) Element {
	if len(ivs) == 0 {
		return Element{}
	}
	slices.SortFunc(ivs, func(a, b Interval) int {
		if a.Start != b.Start {
			return cmp.Compare(a.Start, b.Start)
		}
		return cmp.Compare(a.End, b.End)
	})
	k, cur := 0, ivs[0]
	for _, iv := range ivs[1:] {
		if iv.Start <= cur.End.Succ() { // overlapping or adjacent: merge
			if iv.End > cur.End {
				cur.End = iv.End
			}
			continue
		}
		ivs[k] = cur // k trails the read position, so this is a read interval
		k++
		cur = iv
	}
	ivs[k] = cur
	return Element{ivs: ivs[: k+1 : k+1]}
}

// Single returns the element consisting of one interval [start, end]; it
// panics on an invalid pair (a programmer-error invariant — use
// NewInterval plus NewElement to validate data-driven endpoints).
func Single(start, end Chronon) Element { return NewElement(MustNewInterval(start, end)) }

// AtElement returns the element containing exactly chronon c.
func AtElement(c Chronon) Element { return NewElement(At(c)) }

// Intervals returns a copy of the canonical interval list.
func (e Element) Intervals() []Interval {
	out := make([]Interval, len(e.ivs))
	copy(out, e.ivs)
	return out
}

// IsEmpty reports whether the element contains no chronons.
func (e Element) IsEmpty() bool { return len(e.ivs) == 0 }

// NumIntervals returns the number of maximal intervals.
func (e Element) NumIntervals() int { return len(e.ivs) }

// IntervalAt returns the i-th maximal interval in ascending order, for
// 0 ≤ i < NumIntervals(). Unlike Intervals it allocates nothing.
func (e Element) IntervalAt(i int) Interval { return e.ivs[i] }

// Valid reports whether the representation invariant holds: sorted,
// disjoint, non-adjacent, non-empty intervals.
func (e Element) Valid() bool {
	for i, iv := range e.ivs {
		if iv.Start > iv.End {
			return false
		}
		if i > 0 && e.ivs[i-1].End.Succ() >= iv.Start {
			return false
		}
	}
	return true
}

// Contains reports whether chronon c belongs to the element, with NOW
// endpoints resolved against ref.
func (e Element) Contains(c, ref Chronon) bool {
	// Binary search on the canonical order.
	cc := c.Resolve(ref)
	i := sort.Search(len(e.ivs), func(i int) bool { return e.ivs[i].End.Resolve(ref) >= cc })
	return i < len(e.ivs) && e.ivs[i].Start.Resolve(ref) <= cc
}

// Union returns the set union of two elements.
func (e Element) Union(o Element) Element {
	if e.IsEmpty() {
		return o
	}
	if o.IsEmpty() {
		return e
	}
	// All time absorbs the other side without allocating: the result is
	// what NewElement would canonicalise the concatenation to, because
	// NOW sorts above every fixed chronon.
	if e.isAlways() && o.within() {
		return e
	}
	if o.isAlways() && e.within() {
		return o
	}
	all := make([]Interval, 0, len(e.ivs)+len(o.ivs))
	all = append(all, e.ivs...)
	all = append(all, o.ivs...)
	return NewElement(all...)
}

// Intersect returns the set intersection of two elements. NOW endpoints are
// treated symbolically (NOW is the top of the chronon chain), so
// [1980, NOW] ∩ [1990, NOW] = [1990, NOW].
func (e Element) Intersect(o Element) Element {
	var out []Interval
	i, j := 0, 0
	for i < len(e.ivs) && j < len(o.ivs) {
		a, b := e.ivs[i], o.ivs[j]
		s := MaxOf(a.Start, b.Start)
		t := MinOf(a.End, b.End)
		if s <= t {
			out = append(out, Interval{Start: s, End: t})
		}
		if a.End < b.End {
			i++
		} else {
			j++
		}
	}
	return Element{ivs: out} // pieces of canonical inputs stay canonical
}

// Difference returns the chronons in e that are not in o.
func (e Element) Difference(o Element) Element {
	if e.IsEmpty() || o.IsEmpty() {
		return e
	}
	var out []Interval
	j := 0
	for _, a := range e.ivs {
		start := a.Start
		consumed := false
		for j < len(o.ivs) && o.ivs[j].End < start {
			j++
		}
		k := j
		for k < len(o.ivs) && o.ivs[k].Start <= a.End {
			b := o.ivs[k]
			if b.Start > start {
				out = append(out, Interval{Start: start, End: b.Start.PredC()})
			}
			if b.End >= a.End {
				consumed = true // b reaches the end of a
				break
			}
			start = b.End.Succ()
			k++
		}
		if !consumed && start <= a.End {
			out = append(out, Interval{Start: start, End: a.End})
		}
	}
	return Element{ivs: out}
}

// Overlaps reports whether the two elements share at least one chronon.
func (e Element) Overlaps(o Element) bool { return !e.Intersect(o).IsEmpty() }

// Covers reports whether every chronon of o belongs to e.
func (e Element) Covers(o Element) bool { return o.Difference(e).IsEmpty() }

// Equal reports whether the two elements denote the same chronon set.
func (e Element) Equal(o Element) bool {
	if len(e.ivs) != len(o.ivs) {
		return false
	}
	for i := range e.ivs {
		if e.ivs[i] != o.ivs[i] {
			return false
		}
	}
	return true
}

// Resolve replaces NOW endpoints by ref, dropping interval parts that lie
// beyond ref only when they become empty. The result contains no NOW
// markers.
func (e Element) Resolve(ref Chronon) Element {
	var out []Interval
	for _, iv := range e.ivs {
		if r, ok := iv.Resolve(ref); ok {
			out = append(out, r)
		}
	}
	return NewElement(out...)
}

// Duration returns the total number of chronons under reference time ref.
func (e Element) Duration(ref Chronon) int64 {
	var n int64
	for _, iv := range e.ivs {
		n += iv.Duration(ref)
	}
	return n
}

// Start returns the earliest chronon of the element; ok is false when the
// element is empty.
func (e Element) Start() (Chronon, bool) {
	if e.IsEmpty() {
		return 0, false
	}
	return e.ivs[0].Start, true
}

// End returns the latest chronon of the element (possibly NOW); ok is false
// when the element is empty.
func (e Element) End() (Chronon, bool) {
	if e.IsEmpty() {
		return 0, false
	}
	return e.ivs[len(e.ivs)-1].End, true
}

// String renders the element as a ∪-joined interval list, e.g.
// "[01/01/70 - 31/12/79] ∪ [01/01/85 - NOW]". The empty element renders as
// "∅".
func (e Element) String() string {
	if e.IsEmpty() {
		return "∅"
	}
	parts := make([]string, len(e.ivs))
	for i, iv := range e.ivs {
		parts[i] = iv.String()
	}
	return strings.Join(parts, " ∪ ")
}
