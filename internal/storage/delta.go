package storage

import (
	"context"
	"fmt"
)

// This file holds the delta-fold read primitives of incremental
// maintenance: the scans the aggregation paths run, restricted to the
// appended fact range [lo, hi) an epoch-window lookup resolved (see
// epoch.go). Because AppendFact only ever adds facts at new dense
// indices — it never rewrites an existing fact's
// characterizations — the facts in [lo, hi) are exactly the difference
// between the engine at the old epoch and now, and folding just that
// range continues a cached fold where it stopped.
//
// Delta folds charge no fact budget: they are maintenance work bounded
// by the append volume, priced like a cache hit rather than a query
// (the computation they extend already paid once). Cancellation is
// still honored.

// AggregateByRange is AggregateBy restricted to the dense fact range
// [lo, hi) — the same kernel scan over that range, uncharged: for every
// category value (in CategoryAt order) it returns the value, the number
// of selected in-range facts it characterizes, and — when argDim is
// non-empty — those facts' argument values concatenated in ascending
// dense-index order. Values with no in-range selected facts are omitted;
// the range is clamped to the fact universe. The empty leg is ⊤: its one
// value, "", stands for every selected fact of the range. Appending the returned
// argument lists to a fold over [0, lo) reproduces, element for element,
// the fold AggregateBy would produce over [0, hi).
func (e *Engine) AggregateByRange(ctx context.Context, dim, cat, argDim string, sel *Bitmap, lo, hi int) (values []string, counts []int, args [][]float64, err error) {
	vals, m, err := e.scanOne(ctx, dim, cat, SharedScanMember{ArgDim: argDim, Sel: sel, ListArgs: true}, lo, hi)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("storage: delta aggregate %s/%s: %w", dim, cat, err)
	}
	values, counts, args = compactLeg(vals, m)
	return values, counts, args, nil
}

// MultiValuedRange reports whether any selected fact (every fact when sel
// is nil) in the dense fact range [lo, hi) is characterized by two or more
// distinct values of the category — the selection-masked strict-path
// probe of the summarizability check. It reads the multi-valued bitmap of
// the category's live column (built on first use, whatever the
// cardinality, like the cross kernel's), one word-wise pass over the
// range. Old facts' characterizations are append-invariant, so
//
//	MultiValued(all) == MultiValued(old) || MultiValuedRange(delta)
//
// — which is how a cached strictness verdict is upgraded without
// rescanning history. Like the algebra's StrictPath it charges no fact
// budget: it is a metadata probe, not an aggregation scan.
func (e *Engine) MultiValuedRange(dim, cat string, sel *Bitmap, lo, hi int) bool {
	col, _ := e.liveColumn(context.Background(), dim, cat) // uncancellable: cannot fail but on an oversized dictionary
	if col == nil {
		return false
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if sel == nil {
		return col.multi.CountRange(lo, hi) > 0
	}
	return col.multi.AndCountRange(sel, lo, hi) > 0
}
