// Package storage implements the special-purpose data structures the paper
// defers to future work ("how the model can be efficiently implemented
// using special-purpose algorithms and data structures"): dense fact and
// value dictionaries, bitmap indexes over the characterization relation
// f ⤳ e, memoized rollup closures over the dimension lattices, and a
// pre-aggregate cache guarded by the summarizability conditions of §3.4 —
// the guard decides whether a cached lower-level aggregate may be combined
// into a higher-level one or the engine must recompute from base data.
package storage

import (
	"math/bits"
)

// Bitmap is an uncompressed bitmap over dense fact indices.
type Bitmap struct {
	words []uint64
	n     int // universe size in bits
}

// NewBitmap returns an empty bitmap over a universe of n facts.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the universe size.
func (b *Bitmap) Len() int { return b.n }

// Set marks fact i.
func (b *Bitmap) Set(i int) {
	if i < 0 || i >= b.n {
		return
	}
	b.words[i>>6] |= 1 << (uint(i) & 63)
}

// Clear unmarks bit i; out-of-range indices are ignored.
func (b *Bitmap) Clear(i int) {
	if i >= 0 && i < b.n {
		b.words[i>>6] &^= 1 << uint(i&63)
	}
}

// Has reports whether fact i is marked.
func (b *Bitmap) Has(i int) bool {
	if i < 0 || i >= b.n {
		return false
	}
	return b.words[i>>6]&(1<<(uint(i)&63)) != 0
}

// Count returns the number of marked facts (population count).
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// CountRange returns the population count within the half-open index
// range [lo, hi) — what a kernel scan over an appended fact range counts
// with. Out-of-universe bounds are clamped.
func (b *Bitmap) CountRange(lo, hi int) int {
	lo, hi = b.clamp(lo, hi)
	if lo >= hi {
		return 0
	}
	c := 0
	lw, hw := lo>>6, (hi-1)>>6
	for wi := lw; wi <= hw; wi++ {
		w := b.words[wi]
		if wi == lw {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == hw && hi&63 != 0 {
			w &= ^uint64(0) >> (64 - uint(hi)&63)
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// AndCountRange returns |b ∧ o| within [lo, hi) without materializing the
// intersection — the zero-allocation cross-tab cell primitive.
func (b *Bitmap) AndCountRange(o *Bitmap, lo, hi int) int {
	lo, hi = b.clamp(lo, hi)
	if lo >= hi {
		return 0
	}
	c := 0
	lw, hw := lo>>6, (hi-1)>>6
	for wi := lw; wi <= hw; wi++ {
		var ow uint64
		if wi < len(o.words) {
			ow = o.words[wi]
		}
		w := b.words[wi] & ow
		if wi == lw {
			w &= ^uint64(0) << (uint(lo) & 63)
		}
		if wi == hw && hi&63 != 0 {
			w &= ^uint64(0) >> (64 - uint(hi)&63)
		}
		c += bits.OnesCount64(w)
	}
	return c
}

// clamp bounds [lo, hi) to the universe.
func (b *Bitmap) clamp(lo, hi int) (int, int) {
	if lo < 0 {
		lo = 0
	}
	if hi > b.n {
		hi = b.n
	}
	return lo, hi
}

// Or folds the other bitmap into this one (in place) and returns the
// receiver.
func (b *Bitmap) Or(o *Bitmap) *Bitmap {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] |= o.words[i]
		}
	}
	return b
}

// And intersects in place and returns the receiver.
func (b *Bitmap) And(o *Bitmap) *Bitmap {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &= o.words[i]
		} else {
			b.words[i] = 0
		}
	}
	return b
}

// AndInto sets the receiver to x ∧ y, reusing the receiver's storage — the
// scratch-bitmap operation the cross-tab hot path uses instead of
// allocating a clone per cell pair. The receiver's universe is resized to
// x's; x and y are not modified (the receiver must not alias either).
func (b *Bitmap) AndInto(x, y *Bitmap) *Bitmap {
	nw := len(x.words)
	if cap(b.words) < nw {
		b.words = make([]uint64, nw)
	}
	b.words = b.words[:nw]
	b.n = x.n
	for i := range b.words {
		var yw uint64
		if i < len(y.words) {
			yw = y.words[i]
		}
		b.words[i] = x.words[i] & yw
	}
	return b
}

// Fill marks every fact in the universe and returns the receiver — the
// complement seed for NOT predicates (full ∧¬ base).
func (b *Bitmap) Fill() *Bitmap {
	for i := range b.words {
		b.words[i] = ^uint64(0)
	}
	if r := uint(b.n) & 63; r != 0 && len(b.words) > 0 {
		b.words[len(b.words)-1] &= ^uint64(0) >> (64 - r)
	}
	return b
}

// AndNot removes o's bits in place and returns the receiver.
func (b *Bitmap) AndNot(o *Bitmap) *Bitmap {
	for i := range b.words {
		if i < len(o.words) {
			b.words[i] &^= o.words[i]
		}
	}
	return b
}

// Equal reports whether b and o mark the same facts over the same
// universe.
func (b *Bitmap) Equal(o *Bitmap) bool {
	if b == nil || o == nil {
		return b == o
	}
	if b.n != o.n {
		return false
	}
	for i, w := range b.words {
		if w != o.words[i] {
			return false
		}
	}
	return true
}

// Clone copies the bitmap.
func (b *Bitmap) Clone() *Bitmap {
	c := &Bitmap{words: make([]uint64, len(b.words)), n: b.n}
	copy(c.words, b.words)
	return c
}

// IsEmpty reports whether no fact is marked.
func (b *Bitmap) IsEmpty() bool {
	for _, w := range b.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Iterate calls fn for every marked fact index in ascending order; fn
// returning false stops the iteration.
func (b *Bitmap) Iterate(fn func(i int) bool) {
	for wi, w := range b.words {
		base := wi << 6
		for w != 0 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
			w &= w - 1
		}
	}
}

// IterateRange calls fn for every marked index in [lo, hi) in ascending
// order; fn returning false stops the iteration.
func (b *Bitmap) IterateRange(lo, hi int, fn func(i int) bool) {
	lo, hi = b.clamp(lo, hi)
	if lo >= hi {
		return
	}
	for wi := lo >> 6; wi <= (hi-1)>>6; wi++ {
		base := wi << 6
		for w := b.andWord(nil, wi, lo, hi); w != 0; w &= w - 1 {
			if !fn(base + bits.TrailingZeros64(w)) {
				return
			}
		}
	}
}

// andWord returns word wi of b ∧ o restricted to the (clamped, non-empty)
// index range [lo, hi); a nil o admits every index.
func (b *Bitmap) andWord(o *Bitmap, wi, lo, hi int) uint64 {
	w := b.words[wi]
	if o != nil {
		if wi >= len(o.words) {
			return 0
		}
		w &= o.words[wi]
	}
	if wi == lo>>6 {
		w &= ^uint64(0) << (uint(lo) & 63)
	}
	if wi == (hi-1)>>6 && hi&63 != 0 {
		w &= ^uint64(0) >> (64 - uint(hi)&63)
	}
	return w
}

// Indices returns the marked fact indices.
func (b *Bitmap) Indices() []int {
	out := make([]int, 0, b.Count())
	b.Iterate(func(i int) bool {
		out = append(out, i)
		return true
	})
	return out
}
