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
// scan of one. Batched results are bit-identical to solo execution; see
// docs/TRAFFIC.md for the float-order argument.

// Batch bypass reasons — the closed set of "why this query cannot join a
// fused scan" labels (internal/batch registers a counter per reason).
const (
	// BypassDescribe: DESCRIBE renders the schema — there is no kernel leg
	// to share.
	BypassDescribe = "describe"
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
		p.q, p.ex, p.guard = q, explainFrom(cctx), qos.NewGuard(cctx)
		if err = p.guard.CheckNow(); err != nil {
			err = fmt.Errorf("query: %w", err)
		}
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
	case p.planErr != nil:
		return false, BypassError
	case p.q.Describe != "":
		return false, BypassDescribe
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

// NeedsArgLists reports whether this member's slice of the scan must
// materialize per-value argument lists (storage.SharedScanMember
// ListArgs): only an aggregate without a Fold — MEDIAN, or a probabilistic
// function registered without one — finalizes with its own Eval over the
// values. Everything else finishes from the scan's constant-size Accs,
// which are also what a delta capture keeps.
func (p *Prepared) NeedsArgLists() bool {
	return (p.argDim != "" || p.fn.NeedsProb) && p.fn.Fold == nil
}

// ProbArg returns the reading of membership probabilities this member's
// slice of the scan folds (storage.SharedScanMember Prob): the function's
// own, the plain probability for one that evaluates from the list, and
// agg.ProbNone for an aggregate that is not probabilistic.
func (p *Prepared) ProbArg() agg.ProbArg {
	if !p.fn.NeedsProb || p.fn.Fold != nil {
		return p.fn.ProbArg
	}
	return agg.ProbValue
}

// groupValue is the one evaluation of a group, for every shape and for a
// delta-upgraded result: count facts, and their argument values — for a
// probabilistic function their membership probabilities — as the scan's
// Acc or, for a function without a Fold, as a list in ascending fact order.
// No facts, no group, no row (the algebra forms no group from an empty fact
// set); not ok — the function is undefined on the group's values, as SUM is
// on none — no row either.
func groupValue(fn *agg.Func, count int64, acc agg.Acc, list []float64) (float64, bool) {
	switch {
	case count == 0:
		return 0, false
	case (fn.NeedsArg || fn.NeedsProb) && fn.Fold != nil:
		return fn.Fold(acc)
	case fn.NeedsProb:
		return fn.ApplyProb(list)
	}
	return fn.Apply(int(count), list)
}

// FinishScan completes a batchable query from its member slot of a kernel
// scan (storage.ScanLeg): kernel is the strategy the scan ran, values the
// dictionary in CategoryAt order and counts this member's per-value fact
// counts (zero-count values included); an argument-carrying member
// supplies either args (per-value argument lists, when NeedsArgLists) or
// folds (the scan's constant-size per-value Accs). It is the finish
// Execute runs after its own scan of one, so a batched answer is the solo
// answer: same rows, same error texts, same budget spend, same captured
// delta partials.
func (p *Prepared) FinishScan(kernel string, values []string, counts []int64, args [][]float64, folds []agg.Acc) (*query.Result, error) {
	return p.finishMember("FinishScan", kernel, values, counts, args, folds)
}

// FinishShared is FinishScan without a strategy label, for callers that
// ran the scan through storage.SharedAggregateBy.
func (p *Prepared) FinishShared(values []string, counts []int64, args [][]float64, folds []agg.Acc) (*query.Result, error) {
	return p.finishMember("FinishShared", "", values, counts, args, folds)
}

// finishMember checks that the query may finish from a batch member's slot
// and that the slot carries what NeedsArgLists asked the scan for; caller
// names the entry point in the refusal.
func (p *Prepared) finishMember(caller, kernel string, values []string, counts []int64, args [][]float64, folds []agg.Acc) (*query.Result, error) {
	defer p.finishSpan()
	if ok, reason := p.Batchable(); !ok {
		return nil, fmt.Errorf("plan: %s on a non-batchable query (%s)", caller, reason)
	}
	if lists := p.NeedsArgLists(); lists && args == nil {
		return nil, fmt.Errorf("plan: %s without argument lists for a list-mode member", caller)
	} else if !lists && (p.argDim != "" || p.fn.NeedsProb) && folds == nil {
		return nil, fmt.Errorf("plan: %s without argument folds for a fold-mode member", caller)
	}
	return p.finishLeg(kernel, values, counts, args, folds)
}

// finishLeg is the one finish of the global and one-leg shapes, solo and
// batched: it replays the budget — per dictionary value, Check then
// Facts(count) — against a fresh guard on the query's own context,
// evaluates each group with groupValue, keeps the scan's (count, Acc) per
// group as the delta partials when the context asked for a capture, and
// runs the shared result tail. The shapes global (the ⊤ leg), kernel-count
// (no selection, no argument), kernel-sum (no selection, SUM) and
// group-fold (everything else) are labels on this one path: they name the
// explain shape and the operation in a budget-exhaustion error.
func (p *Prepared) finishLeg(kernel string, values []string, counts []int64, args [][]float64, folds []agg.Acc) (*query.Result, error) {
	gd := p.leg()
	shape, op := ShapeGroupFold, "aggregate"
	switch {
	case gd.dim == "":
		shape = ShapeGlobal
	case p.sel == nil && !p.fn.NeedsArg && !p.fn.NeedsProb:
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
	parts := p.newPartials(shape, len(values))
	rows := make([][]string, 0, len(values))
	for j, val := range values {
		var acc agg.Acc
		if folds != nil {
			acc = folds[j]
		}
		var list []float64
		if args != nil {
			list = args[j]
		}
		if parts != nil && counts[j] > 0 {
			parts.Groups[val] = Group{Count: counts[j], Acc: acc}
		}
		if v, ok := groupValue(p.fn, counts[j], acc, list); ok {
			rows = append(rows, gd.row(val, v))
		}
	}
	return p.finish(rows, parts)
}
