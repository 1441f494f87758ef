package plan

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"mddm/internal/agg"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// This file is the planner half of delta-merge incremental maintenance.
// The planner's global and one-leg shapes (global, kernel-count,
// kernel-sum, group-fold) are folds over per-group fact sets; because
// AppendFact only ever adds facts at new dense indices, the fold over the
// full engine decomposes as the fold over the old prefix continued with the
// appended range. A Capture installed in the context makes Execute keep
// the scan's per-group partials (Partials) alongside the result rows;
// UpgradeResult later continues them over a delta range [lo, hi) the
// engine's epoch journal resolved, reproducing — bit for bit — what a
// recompute from scratch would return, HAVING/ORDER/LIMIT included.
//
// Partials are captured before HAVING/ORDER/LIMIT prune rows: a LIMIT 5
// result still carries every group, so the continuation never loses a
// group that pruning hid.

// Group is one group's partial, copied from the scan's member slot: the
// group value ("" for ⊤, the global shape's single group), the member
// count and the fold of the group's argument values in ascending
// dense-index order (zero when the function takes no argument: presence
// and result are Count alone). A plain value — copying it is all it takes
// to continue it without touching the cached original.
type Group struct {
	Value string
	Count int64
	Acc   agg.Acc
}

// Partials is everything needed to continue a planned aggregate query
// over appended facts: the parsed query (WHERE is recompiled against the
// grown engine; HAVING/ORDER/LIMIT re-applied to the continued groups),
// the grouping leg, the per-group partials sorted by group value, and the
// decomposed summarizability report — the strictness verdict is continued
// with a delta probe, while the covering reasons are value-level
// hierarchy facts that appends cannot change (hierarchy edits rebuild the
// engine, which empties its epoch journal and forces invalidation).
type Partials struct {
	// Query is the parsed query the partials answer.
	Query *query.Query
	// Shape is the plan shape that produced the partials (informational).
	Shape string
	// Fn is the aggregate function: argument-free, or one with a Fold
	// (MEDIAN has none and is never captured; neither is a probabilistic
	// function, which answers from a context view).
	Fn *agg.Func
	// Dim/Cat are the single effective grouping leg; empty (⊤) for global.
	Dim, Cat string
	// ArgDim is the argument dimension ("" when Fn takes none).
	ArgDim string
	// FactType names the MO's fact type (the strictness reason text).
	FactType string
	// Columns is the result header exactly as the planned query emitted
	// it (shown dimensions then result dimension).
	Columns []string
	// Groups holds the partial of every non-empty group, sorted by value —
	// the canonical row order of a one-leg result.
	Groups []Group
	// MultiValued is the cached strictness verdict for the grouping leg
	// under the query's selection; continued via MultiValuedRange.
	MultiValued bool
	// CoverReasons are the report's covering-failure texts, append-
	// invariant within one engine lifetime.
	CoverReasons []string
}

// Capture is the context sink Execute fills with the partials of an
// upgradeable planned query; Partials stays nil when the query took a
// non-upgradeable shape (describe, facts, cross), a function without a
// constant-size partial, or a context view — an append drops the view, so
// there is nothing to continue.
type Capture struct {
	Partials *Partials
}

type captureKey struct{}

// WithCapture installs a partials sink into the context and returns it;
// the planner fills the sink while executing (mirrors WithExplain).
func WithCapture(ctx context.Context) (context.Context, *Capture) {
	cp := &Capture{}
	return context.WithValue(ctx, captureKey{}, cp), cp
}

// captureFrom returns the context's capture sink, or nil.
func captureFrom(ctx context.Context) *Capture {
	cp, _ := ctx.Value(captureKey{}).(*Capture)
	return cp
}

// newPartials assembles the capture skeleton of a global or one-leg query
// — nil unless the context installed a Capture, the engine is no context
// view, and the function's partial is constant-size: argument-free (the
// count) or with a Fold (the Acc). It
// decomposes the summarizability report into its append-sensitive and
// append-invariant parts. The report lists, in order: the function reason
// (iff Fn is not distributive), the grouping leg's strictness reason, then
// its covering reasons — checkSummarizable order, which rebuildReport
// reproduces.
func (p *Prepared) newPartials(shape string, groups int) *Partials {
	if captureFrom(p.cctx) == nil || p.eng.IsView() || p.NeedsArgLists() {
		return nil
	}
	gd, factType := p.leg(), p.m.Schema().FactType()
	parts := &Partials{
		Query:    p.q,
		Shape:    shape,
		Fn:       p.fn,
		Dim:      gd.dim,
		Cat:      gd.cat,
		ArgDim:   p.argDim,
		FactType: factType,
		Groups:   make([]Group, 0, groups),
	}
	rest := p.report.Reasons
	if !p.fn.Distributive && len(rest) > 0 && rest[0] == fnReason(p.fn) {
		rest = rest[1:]
	}
	if len(rest) > 0 && rest[0] == strictReason(factType, gd.dim, gd.cat) {
		parts.MultiValued = true
		rest = rest[1:]
	}
	if len(rest) > 0 {
		parts.CoverReasons = append([]string(nil), rest...)
	}
	return parts
}

func fnReason(fn *agg.Func) string {
	return fmt.Sprintf("function %s is not distributive", fn.Name)
}

func strictReason(factType, dim, cat string) string {
	return fmt.Sprintf("path from %s facts to %s/%s is non-strict", factType, dim, cat)
}

// rebuildReport reassembles the summarizability report from the
// decomposed parts, in checkSummarizable's reason order.
func (p *Partials) rebuildReport() agg.Report {
	rep := agg.Report{Summarizable: true}
	if !p.Fn.Distributive {
		rep.Summarizable = false
		rep.Reasons = append(rep.Reasons, fnReason(p.Fn))
	}
	if p.MultiValued {
		rep.Summarizable = false
		rep.Reasons = append(rep.Reasons, strictReason(p.FactType, p.Dim, p.Cat))
	}
	if len(p.CoverReasons) > 0 {
		rep.Summarizable = false
		rep.Reasons = append(rep.Reasons, p.CoverReasons...)
	}
	return rep
}

// UpgradeResult continues cached partials over the appended fact range
// [lo, hi) and rebuilds the full query result as of the epoch covering
// [0, hi): it recompiles the WHERE selection against the grown engine
// (old facts' membership is append-invariant, so the new bitmap agrees
// with the old one on [0, lo)), scans only the delta range with the same
// kernel, merges the range's values into one copy of the value-sorted
// groups — continuing each touched group's Acc with its argument values —
// re-derives the summarizability report with a delta strictness probe,
// and evaluates and tails the groups exactly as finishLeg does. The
// returned Partials carry the continued groups for the next continuation;
// the input Partials are never mutated — they stay valid for their own
// version even if this continuation is abandoned (CAS failure,
// cancellation). Bit-identity with a recompute from scratch
// follows from the kernel's extraction order: every argument value is
// Added in ascending dense-index order on both paths, and an Acc is only
// ever continued, never merged. eng is the engine the partials were captured
// on, never a context view; ref is its context's reference chronon, which
// the engine carries (Engine.Context), so it is not read here.
func UpgradeResult(ctx context.Context, eng *storage.Engine, old *Partials, lo, hi int, _ temporal.Chronon) (*query.Result, *Partials, error) {
	q := old.Query
	var sel *storage.Bitmap
	if q.Where != nil {
		var err error
		sel, err = compileWhere(ctx, q.Where, eng)
		if err != nil {
			return nil, nil, err
		}
	}
	values, counts, args, err := eng.AggregateByRange(ctx, old.Dim, old.Cat, old.ArgDim, sel, lo, hi)
	if err != nil {
		return nil, nil, err
	}
	// Merge the delta's few values into a copy of the sorted groups: a
	// value first seen in the delta starts from the zero Group.
	next := *old
	next.Groups = make([]Group, len(old.Groups), len(old.Groups)+len(values))
	copy(next.Groups, old.Groups)
	for j, v := range values {
		i, found := slices.BinarySearchFunc(next.Groups, v, func(g Group, v string) int { return strings.Compare(g.Value, v) })
		if !found {
			next.Groups = slices.Insert(next.Groups, i, Group{Value: v})
		}
		g := &next.Groups[i]
		g.Count += int64(counts[j])
		for _, x := range args[j] {
			g.Acc.Add(x)
		}
	}

	// Continue the strictness verdict: old facts' characterizations are
	// append-invariant, so MultiValued(all) == cached || delta probe (⊤ has
	// no dimension to probe and stays single-valued).
	if !next.MultiValued {
		next.MultiValued = eng.MultiValuedRange(old.Dim, old.Cat, sel, lo, hi)
	}

	gd := groupDim{dim: old.Dim, cat: old.Cat}
	vals := make([]string, len(next.Groups))
	groups := make([]row, 0, len(next.Groups))
	for i, g := range next.Groups {
		if v, ok := groupValue(old.Fn, g.Count, g.Acc, nil); ok {
			vals[i] = g.Value
			groups = append(groups, gd.group(vals[i:i+1:i+1], v))
		}
	}
	res, err := assemble(q, old.Columns, groups, true, next.rebuildReport())
	if err != nil {
		return nil, nil, err
	}
	return res, &next, nil
}
