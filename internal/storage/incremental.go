package storage

import (
	"fmt"

	"mddm/internal/core"
	"mddm/internal/dimension"
)

// dimTopValue aliases the ⊤ value id.
const dimTopValue = dimension.TopValue

// This file implements incremental index maintenance: appending facts to a
// built engine without rebuilding it. New facts extend the dense index
// space; their direct pairs are folded into the affected direct bitmaps
// and propagated into the memoized closure bitmaps of every ancestor, so
// warm closures stay warm. Removals and dimension-hierarchy edits are out
// of scope — those invalidate closures wholesale and a rebuild is the
// honest answer.

// grow extends the bitmap universe to n bits.
func (b *Bitmap) grow(n int) {
	if n <= b.n {
		return
	}
	// Capacity grows geometrically, as append's does: an exact-size copy
	// on every word boundary would copy a rarely set bitmap whole on
	// nearly every append that sets it. No bitmap shares its words.
	if words := (n + 63) / 64; words > len(b.words) {
		b.words = append(b.words, make([]uint64, words-len(b.words))...)
	}
	b.n = n
}

// Pair is one characterization of an appended fact: the fact is related
// to Value in dimension Dim with annotation Annot.
type Pair = core.Pair

// AppendFact indexes one new fact. Given pairs, it first inserts the fact
// with them into the MO (core.MO.InsertFact, all or nothing) under the
// write lock that every read of the relations and of the fact dictionary
// excludes, so the engine is the served model's only writer. Without
// pairs the fact must already be in the MO
// with its pairs recorded, by a caller that owns the MO while it does
// so. Pairs not admitted by the engine's context are not indexed,
// mirroring NewEngine. The engine's context views (views.go) are
// dropped, not maintained.
func (e *Engine) AppendFact(factID string, pairs ...Pair) error {
	if e.view != nil {
		return fmt.Errorf("storage: a context view is read-only: append %q to its base engine", factID)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.position(factID); ok {
		return fmt.Errorf("storage: fact %q already indexed", factID)
	}
	if len(pairs) > 0 {
		if err := e.mo.InsertFact(factID, pairs...); err != nil {
			return err
		}
	} else if !e.mo.Facts().Has(factID) {
		return fmt.Errorf("storage: fact %q not in the MO", factID)
	}
	id, _ := e.dict.Lookup(factID)
	i := len(e.order)
	e.order = append(e.order, id)
	if n := e.dict.Len(); n > len(e.pos) {
		e.pos = append(e.pos, make([]uint32, n-len(e.pos))...)
	}
	e.pos[id] = uint32(i) + 1
	n := len(e.order)

	for _, name := range e.mo.Schema().DimensionNames() {
		di := e.dims[name]
		if di == nil {
			continue
		}
		d := e.Dimension(name)
		// Setting bits is order-free, so the walk need not sort.
		e.mo.Relation(name).RangeValues(factID, func(v string, a dimension.Annot) bool {
			if !e.ctx.Admits(a) {
				return true
			}
			bm, ok := di.direct[v]
			if !ok {
				bm = NewBitmap(n)
				di.direct[v] = bm
			} else {
				bm.grow(n)
			}
			bm.Set(i)
			// Propagate into the memoized closures of the value itself and
			// of its ancestors (walked once; only existing closures are
			// touched). A cold dimension — no closure memoized yet, the
			// normal state during segment replay at startup — skips the
			// ancestor walk entirely.
			if len(di.closure) == 0 {
				return true
			}
			if cbm, ok := di.closure[v]; ok {
				cbm.grow(n)
				cbm.Set(i)
			}
			for _, anc := range d.Ancestors(v, e.ctx) {
				if cbm, ok := di.closure[anc]; ok {
					cbm.grow(n)
					cbm.Set(i)
				}
			}
			if cbm, ok := di.closure[dimTopValue]; ok {
				cbm.grow(n)
				cbm.Set(i)
			}
			return true
		})
	}
	// Maintain the built characterization columns: append the new fact's
	// code (and overflow entries, for many-to-many facts). Appends never
	// mutate existing elements, so kernels running against a snapshot of
	// the first i facts are unaffected.
	for _, col := range e.cols {
		e.appendToColumn(col, factID, i)
	}
	// Maintain the memoized measure columns: append the new fact's admitted
	// numeric values in each cached argument dimension, in the same
	// relation order argValues uses, so an incrementally maintained column
	// is element-for-element identical to a fresh one.
	for argDim, vals := range e.argCols {
		d := e.Dimension(argDim)
		r := e.mo.Relation(argDim)
		var xs []float64
		for _, v := range r.ValuesOf(factID) {
			a, _ := r.Annot(factID, v)
			if !e.ctx.Admits(a) {
				continue
			}
			if x, ok := d.Numeric(v, e.ctx); ok {
				xs = append(xs, x)
			}
		}
		e.argCols[argDim] = append(vals, xs)
	}
	// The append succeeded: move to a fresh mutation epoch so versioned
	// readers (the result cache) see every entry filled before this write
	// as stale. Failed appends above return without bumping — they did
	// not change what a query would observe. The context views were made
	// over the facts before this one: drop them.
	e.bumpEpoch()
	e.dropViews()
	return nil
}
