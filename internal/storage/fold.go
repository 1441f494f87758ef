package storage

import (
	"context"
	"fmt"
	"math"

	"mddm/internal/qos"
)

// This file holds the late-materialization read primitives the columnar
// query planner (internal/plan) folds over. They follow the same locking
// discipline as the aggregation kernels: materialize missing closures and
// argument columns first (write lock on the cold path only), then read
// under the read lock, so one call observes one consistent snapshot of
// the index even while AppendFact runs concurrently.

// ArgValues returns the memoized measure column of the argument
// dimension: dense fact index → the fact's admitted numeric values, in
// the sorted value order the algebra's argument extraction uses. The
// returned slices are shared with the engine and must be treated as
// read-only; indices beyond the returned length belong to facts appended
// after the call.
func (e *Engine) ArgValues(argDim string) [][]float64 {
	e.ensureArgValues(argDim)
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.argCols[argDim]
}

// SelectedFactIDs returns the fact identities marked in sel in ascending
// dense-index order, or every fact when sel is nil. One read-lock
// acquisition for the whole extraction.
func (e *Engine) SelectedFactIDs(sel *Bitmap) []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if sel == nil {
		return append([]string(nil), e.facts...)
	}
	out := make([]string, 0, sel.Count())
	sel.Iterate(func(i int) bool {
		if i < len(e.facts) {
			out = append(out, e.facts[i])
		}
		return true
	})
	return out
}

// MultiValued reports whether any selected fact (every fact when sel is
// nil) is characterized by two or more distinct values of the category —
// the selection-masked strict-path probe of the summarizability check.
// Like the algebra's StrictPath it charges no fact budget: it is a
// metadata probe, not an aggregation scan.
func (e *Engine) MultiValued(dim, cat string, sel *Bitmap) bool {
	d := e.Dimension(dim)
	if d == nil {
		return false
	}
	vals := e.categoryValues(d, cat)
	_ = e.ensureClosures(nil, dim, vals) // nil guard: cannot fail
	e.mu.RLock()
	defer e.mu.RUnlock()
	di := e.dims[dim]
	if di == nil {
		return false
	}
	n := len(e.facts)
	seen := NewBitmap(n)
	dup := NewBitmap(n)
	scratch := NewBitmap(n)
	for _, v := range vals {
		bm := di.closure[v]
		if bm == nil {
			continue
		}
		scratch.AndInto(seen, bm)
		dup.Or(scratch)
		seen.Or(bm)
	}
	if sel != nil {
		dup.And(sel)
	}
	return !dup.IsEmpty()
}

// AggregateBy is the grouped fold in list form: for every value of the
// category (in CategoryAt order) it returns the value, the number of
// selected facts it characterizes, and — when argDim is non-empty — the
// facts' argument values concatenated in ascending dense-index order
// (the algebra's extraction order, so float folds stay bit-identical).
// Values characterizing no selected fact are omitted. It is one list-member
// kernel scan plus the budget replay: one Check plus Facts(count) per
// category value, selection itself costing nothing.
func (e *Engine) AggregateBy(ctx context.Context, dim, cat, argDim string, sel *Bitmap) (values []string, counts []int, args [][]float64, err error) {
	vals, m, err := e.scanOne(ctx, dim, cat, SharedScanMember{ArgDim: argDim, Sel: sel, ListArgs: true}, 0, math.MaxInt)
	if err != nil {
		return nil, nil, nil, err
	}
	if err := ChargeLeg(qos.NewGuard(ctx), "aggregate", dim, cat, m.Counts); err != nil {
		return nil, nil, nil, err
	}
	values, counts, args = compactLeg(vals, m)
	return values, counts, args, nil
}

// ValueLists returns, per dense fact index, the category values that
// characterize the fact (facts outside sel get nil when sel is non-nil).
// Values appear in CategoryAt order, which is sorted — the same order the
// algebra's per-fact ancestor lists use, so combo expansion over these
// lists reproduces the algebra's group keys. Budget: one Check per
// category value; the per-fact appends are materialization the caller
// charges when it folds the groups. An unknown dimension yields nil.
func (e *Engine) ValueLists(ctx context.Context, dim, cat string, sel *Bitmap) ([][]string, error) {
	g := qos.NewGuard(ctx)
	d := e.Dimension(dim)
	if d == nil {
		return nil, nil
	}
	vals := e.categoryValues(d, cat)
	if err := e.ensureClosures(g, dim, vals); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	di := e.dims[dim]
	out := make([][]string, len(e.facts))
	if di == nil {
		return out, nil
	}
	scanned := int64(0)
	for _, v := range vals {
		if err := g.Check(); err != nil {
			return nil, fmt.Errorf("storage: value-lists %s/%s: %w", dim, cat, err)
		}
		bm := di.closure[v]
		if bm == nil {
			continue
		}
		scanned++
		v := v
		bm.Iterate(func(i int) bool {
			if sel == nil || sel.Has(i) {
				out[i] = append(out[i], v)
			}
			return true
		})
	}
	mBitmapScans.Add(scanned)
	return out, nil
}
