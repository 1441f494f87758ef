package storage

import "sync"

// coverKey is one covering question: does every value of category below
// in dimension dim roll up into category cat?
type coverKey struct{ dim, below, cat string }

// coverMemo holds an engine's covering verdicts. A verdict depends only on
// the engine's dimension and its Context, and neither changes for the
// engine's lifetime: an append adds facts and pairs, never dimension
// values or edges, and no serving package calls a dimension mutator
// (lint.CheckServedDimensionWriters) — what the memoized closure bitmaps
// already assume. A view has a memo of its own, since its dimensions are
// sliced.
type coverMemo struct {
	mu sync.RWMutex
	m  map[coverKey]bool
}

// Covering reports whether every value of category below rolls up into
// category cat of dim, a dimension of the engine's schema:
// Dimension.Covering asked of e.Dimension(dim) under e.Context(). A
// category with no values covers. The walk runs once per
// (dim, below, cat) and engine; later calls read the verdict. Concurrent
// first calls may each walk, and store the same verdict.
func (e *Engine) Covering(dim, below, cat string) bool {
	k := coverKey{dim, below, cat}
	c := &e.covers
	c.mu.RLock()
	ok, hit := c.m[k]
	c.mu.RUnlock()
	if hit {
		return ok
	}
	ok = e.Dimension(dim).Covering(below, cat, e.ctx)
	c.mu.Lock()
	if c.m == nil {
		c.m = map[coverKey]bool{}
	}
	c.m[k] = ok
	c.mu.Unlock()
	return ok
}
