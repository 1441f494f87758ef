package plan

import (
	"context"
	"fmt"
	"time"

	"mddm/internal/agg"
	"mddm/internal/obs"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// This file is the planner's half of shared-scan batching (internal/batch):
// PrepareContext stops a query at the brink of shape execution so the
// scheduler can group it with concurrent queries over the same
// (engine, dimension, category) leg, and FinishScan completes it from the
// batch's kernel scan with the finish a solo Execute runs after its own
// scan of one. Batched results are bit-identical to solo execution at the
// same scan degree; see docs/TRAFFIC.md for the float-order argument.

// Batch bypass reasons — the closed set of "why this query cannot join a
// fused scan" labels (internal/batch registers a counter per reason).
const (
	// BypassFallback: the query routes to the algebra path (probabilistic,
	// holistic, timeslice, …) — there is no kernel leg to share.
	BypassFallback = "fallback"
	// BypassFacts: SELECT FACTS enumerates identities, not group folds.
	BypassFacts = "facts"
	// BypassGlobal: the single ⊤ group needs no per-value scan.
	BypassGlobal = "global"
	// BypassCross: multi-leg grouping has combo/merge semantics a fused
	// single-leg scan cannot reproduce.
	BypassCross = "cross"
	// BypassError: planning failed; Execute surfaces the validation error.
	BypassError = "error"
)

// PrepareContext parses and plans a query, stopping short of shape
// execution. The caller then either Executes it solo or — when Batchable —
// routes it through a fused shared scan and FinishScan. The plan.query span
// and the planner latency metric cover prepare through finish.
func PrepareContext(cctx context.Context, src string, cat query.Catalog, ref temporal.Chronon, engines Engines) (*Prepared, error) {
	p := &Prepared{cctx: cctx, cat: cat, ref: ref, sp: obs.StartSpan(cctx, "plan.query"), start: time.Now()}
	q, err := query.Parse(src)
	if err == nil {
		err = p.route(q)
	}
	if err != nil {
		p.finishSpan()
		return nil, err
	}
	p.plan(engines)
	return p, nil
}

// Abort releases the Prepared's span and latency observation without
// executing — the batch glue's path for a member whose context died
// while waiting on its batch.
func (p *Prepared) Abort() { p.finishSpan() }

// Batchable reports whether the prepared query can join a fused shared
// scan — a planned single-leg aggregate — and the bypass reason when it
// cannot (one of the Bypass* constants).
func (p *Prepared) Batchable() (bool, string) {
	switch {
	case p.fallbackReason != "":
		return false, BypassFallback
	case p.planErr != nil:
		return false, BypassError
	case p.factsOnly:
		return false, BypassFacts
	case len(p.grouped) == 0:
		return false, BypassGlobal
	case len(p.grouped) > 1:
		return false, BypassCross
	}
	return true, ""
}

// Engine returns the resolved engine snapshot (nil unless Batchable).
func (p *Prepared) Engine() *storage.Engine { return p.eng }

// GroupLeg returns the single grouping leg a batchable query folds over.
func (p *Prepared) GroupLeg() (dim, cat string) {
	if len(p.grouped) != 1 {
		return "", ""
	}
	return p.grouped[0].dim, p.grouped[0].cat
}

// ArgDim returns the argument dimension ("" when the function takes none).
func (p *Prepared) ArgDim() string { return p.argDim }

// Selection returns the compiled WHERE bitmap (nil admits every fact).
func (p *Prepared) Selection() *storage.Bitmap { return p.sel }

// NeedsArgLists reports whether this member's slice of the fused scan
// must materialize per-value argument lists (storage.SharedScanMember
// ListArgs): delta-capture consumers rebuild mergeable partials from the
// value lists themselves, and aggregates outside the accumulator-foldable
// set finalize with their own Eval over a list. Everything else finishes
// from the scan's constant-size FoldAccs, which cost no per-member
// allocation.
func (p *Prepared) NeedsArgLists() bool {
	if p.argDim == "" {
		return false
	}
	if captureFrom(p.cctx) != nil {
		return true
	}
	return !accFoldable(p.fn)
}

// accFoldable reports whether fn finalizes bit-identically from a FoldAcc
// folded in the solo kernels' ascending order: SUM and AVG replay the
// exact left-to-right addition sequence, COUNT is the fold's value count,
// MIN/MAX replay Eval's seed-then-compare ladder. Anything else (or a
// future registration) falls back to argument lists.
func accFoldable(fn *agg.Func) bool {
	switch fn.Name {
	case "SUM", "COUNT", "AVG", "MIN", "MAX":
		return true
	}
	return false
}

// accApply finalizes fn from a FoldAcc exactly as fn.Apply would from the
// argument list the fold consumed: same empty-list ok semantics, same
// float results.
func accApply(fn *agg.Func, acc storage.FoldAcc) (float64, bool) {
	switch fn.Name {
	case "SUM":
		if acc.N == 0 {
			return 0, false
		}
		return acc.Sum, true
	case "COUNT":
		return float64(acc.N), true
	case "AVG":
		if acc.N == 0 {
			return 0, false
		}
		return acc.Sum / float64(acc.N), true
	case "MIN":
		if !acc.Seen {
			return 0, false
		}
		return acc.Min, true
	case "MAX":
		if !acc.Seen {
			return 0, false
		}
		return acc.Max, true
	}
	return 0, false
}

// FinishScan completes a batchable query from its member slot of a kernel
// scan (storage.ScanLeg): kernel is the strategy the scan ran, values the
// dictionary in CategoryAt order and counts this member's per-value fact
// counts (zero-count values included); an argument-carrying member
// supplies either args (per-value argument lists, when NeedsArgLists) or
// folds (the scan's constant-size per-value FoldAccs). It is the finish
// Execute runs after its own scan of one, so a batched answer is the solo
// answer: same rows, same error texts, same budget spend, same captured
// delta partials.
func (p *Prepared) FinishScan(kernel string, values []string, counts []int64, args [][]float64, folds []storage.FoldAcc) (*query.Result, error) {
	defer p.finishSpan()
	if ok, reason := p.Batchable(); !ok {
		return nil, fmt.Errorf("plan: FinishShared on a non-batchable query (%s)", reason)
	}
	return p.finishLeg(kernel, values, counts, args, folds)
}

// FinishShared is FinishScan without a strategy label, for callers that
// ran the scan through storage.SharedAggregateBy.
func (p *Prepared) FinishShared(values []string, counts []int64, args [][]float64, folds []storage.FoldAcc) (*query.Result, error) {
	return p.FinishScan("", values, counts, args, folds)
}

// finishLeg is the one finish of the one-leg shapes, solo and batched: it
// replays the budget — per dictionary value, Check then Facts(count) —
// against a fresh guard on the query's own context, evaluates the
// aggregate per non-empty group from its argument list or FoldAcc,
// captures the delta partials, and runs the shared result tail. The shapes
// kernel-count (no selection, no argument), kernel-sum (no selection, SUM)
// and group-fold (everything else) are labels on this one path: they name
// the explain shape and the operation in a budget-exhaustion error.
func (p *Prepared) finishLeg(kernel string, values []string, counts []int64, args [][]float64, folds []storage.FoldAcc) (*query.Result, error) {
	if p.NeedsArgLists() && args == nil {
		return nil, fmt.Errorf("plan: FinishShared without argument lists for a list-mode member")
	}
	gd := p.grouped[0]
	shape, op := ShapeGroupFold, "aggregate"
	switch {
	case p.sel == nil && !p.fn.NeedsArg:
		shape, op = ShapeKernelCount, "count-distinct"
	case p.sel == nil && p.fn.Name == "SUM":
		shape, op = ShapeKernelSum, "sum"
	}
	if p.ex != nil {
		p.ex.Shape, p.ex.Kernel = shape, kernel
	}
	if err := storage.ChargeLeg(qos.NewGuard(p.cctx), op, gd.dim, gd.cat, counts); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	parts, cp := p.partials(shape)
	rows := make([][]string, 0, len(values))
	for j, val := range values {
		if counts[j] == 0 {
			continue
		}
		// A list is in ascending dense-index order: fn's own Eval folds it,
		// and the delta partials are rebuilt from the values themselves
		// (capture forces list mode, so parts is nil beside a FoldAcc). The
		// FoldAcc already is that left fold — the scan accumulated it in
		// the same order.
		var list []float64
		if args != nil {
			list = args[j]
		}
		parts.captureGroup(val, int(counts[j]), list)
		var v float64
		var ok bool
		if p.argDim != "" && args == nil {
			v, ok = accApply(p.fn, folds[j])
		} else {
			v, ok = p.fn.Apply(int(counts[j]), list)
		}
		if !ok {
			continue
		}
		rows = append(rows, []string{val, agg.FormatResult(v)})
	}
	return p.finish(rows, parts, cp)
}
