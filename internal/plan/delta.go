package plan

import (
	"context"
	"fmt"

	"mddm/internal/agg"
	"mddm/internal/dimension"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// This file is the planner half of delta-merge incremental maintenance.
// The planner's single-leg shapes (global, kernel-count, kernel-sum,
// group-fold) are folds over per-group fact sets; because AppendFact only
// ever adds facts at new dense indices, the fold over the full engine
// decomposes as the fold over the old prefix continued with the appended
// range. A Capture installed in the context makes Execute retain those
// per-group partials (Partials) alongside the result rows; UpgradeResult
// later continues them over a delta range [lo, hi) the engine's epoch
// journal resolved, reproducing — bit for bit — what a recompute from
// scratch would return, HAVING/ORDER/LIMIT included.
//
// Partials are captured before HAVING/ORDER/LIMIT prune rows: a LIMIT 5
// result still carries every group, so the continuation never loses a
// group that pruning hid.

// GroupState is one group's mergeable partial: the member count and, for
// argument-consuming functions, the partial-aggregate state fed with the
// group's argument values in ascending dense-index order. State is nil
// when the function takes no argument (presence and result are Count
// alone).
type GroupState struct {
	Count int
	State agg.State
}

// clone copies the group partial so a continuation never mutates the
// cached original (which stays valid for the entry's own version).
func (g *GroupState) clone() *GroupState {
	cp := &GroupState{Count: g.Count}
	if g.State != nil {
		cp.State = g.State.Clone()
	}
	return cp
}

// Partials is everything needed to continue a planned aggregate query
// over appended facts: the parsed query (WHERE is recompiled against the
// grown engine; HAVING/ORDER/LIMIT re-applied to the rebuilt rows), the
// single grouping leg, the per-group partial states keyed by group value
// ("" for the global shape's single group), and the decomposed
// summarizability report — the strictness verdict is continued with a
// delta probe, while the covering reasons are value-level hierarchy
// facts that appends cannot change (hierarchy edits rebuild the engine,
// which empties its epoch journal and forces invalidation).
type Partials struct {
	// Query is the parsed query the partials answer.
	Query *query.Query
	// Shape is the plan shape that produced the partials (informational).
	Shape string
	// Fn is the aggregate function; always mergeable (holistic and
	// probabilistic functions fall back to the algebra and are never
	// captured).
	Fn *agg.Func
	// Dim/Cat are the single effective grouping leg; empty for global.
	Dim, Cat string
	// ArgDim is the argument dimension ("" when Fn takes none).
	ArgDim string
	// FactType names the MO's fact type (the strictness reason text).
	FactType string
	// Columns is the result header exactly as the planned query emitted
	// it (shown dimensions then result dimension).
	Columns []string
	// Groups holds the per-group partials, keyed by group value.
	Groups map[string]*GroupState
	// MultiValued is the cached strictness verdict for the grouping leg
	// under the query's selection; continued via MultiValuedRange.
	MultiValued bool
	// CoverReasons are the report's covering-failure texts, append-
	// invariant within one engine lifetime.
	CoverReasons []string
}

// Capture is the context sink Execute fills with the partials of an
// upgradeable planned query; Partials stays nil when the query took a
// fallback or a non-upgradeable shape (facts, cross).
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

// newPartials assembles the capture skeleton for an upgradeable shape,
// decomposing the summarizability report into its append-sensitive and
// append-invariant parts. The report lists, in order: the function
// reason (iff Fn is not distributive), the grouping leg's strictness
// reason, then its covering reasons — checkSummarizable order, which
// rebuildReport reproduces.
func newPartials(q *query.Query, fn *agg.Func, grouped []groupDim, argDim, factType string, report agg.Report) *Partials {
	p := &Partials{
		Query:    q,
		Fn:       fn,
		ArgDim:   argDim,
		FactType: factType,
		Groups:   map[string]*GroupState{},
	}
	if len(grouped) == 1 {
		p.Dim, p.Cat = grouped[0].dim, grouped[0].cat
	}
	rest := report.Reasons
	if !fn.Distributive && len(rest) > 0 && rest[0] == fnReason(fn) {
		rest = rest[1:]
	}
	if p.Dim != "" && len(rest) > 0 && rest[0] == strictReason(factType, p.Dim, p.Cat) {
		p.MultiValued = true
		rest = rest[1:]
	}
	if len(rest) > 0 {
		p.CoverReasons = append([]string(nil), rest...)
	}
	return p
}

func fnReason(fn *agg.Func) string {
	return fmt.Sprintf("function %s is not distributive", fn.Name)
}

func strictReason(factType, dim, cat string) string {
	return fmt.Sprintf("path from %s facts to %s/%s is non-strict", factType, dim, cat)
}

// rebuildReport reassembles the summarizability report from the
// decomposed parts, in checkSummarizable's reason order.
func (p *Partials) rebuildReport(multiValued bool) agg.Report {
	rep := agg.Report{Summarizable: true}
	if !p.Fn.Distributive {
		rep.Summarizable = false
		rep.Reasons = append(rep.Reasons, fnReason(p.Fn))
	}
	if multiValued {
		rep.Summarizable = false
		rep.Reasons = append(rep.Reasons, strictReason(p.FactType, p.Dim, p.Cat))
	}
	if len(p.CoverReasons) > 0 {
		rep.Summarizable = false
		rep.Reasons = append(rep.Reasons, p.CoverReasons...)
	}
	return rep
}

// captureGroup records one group's partial: the member count and, for an
// argument-consuming function, the state fed with the group's argument
// values in ascending dense-index order. Nil-safe, so exec code calls it
// unconditionally.
func (p *Partials) captureGroup(value string, count int, argvals []float64) {
	if p == nil {
		return
	}
	gs := &GroupState{Count: count}
	if p.Fn.NeedsArg {
		st := p.Fn.State()
		for _, v := range argvals {
			st.Add(v)
		}
		gs.State = st
	}
	p.Groups[value] = gs
}

// UpgradeResult continues cached partials over the appended fact range
// [lo, hi) and rebuilds the full query result as of the epoch covering
// [0, hi): it recompiles the WHERE selection against the grown engine
// (old facts' membership is append-invariant, so the new bitmap agrees
// with the old one on [0, lo)), folds only the delta range with the
// storage delta kernels, merges into clones of the cached group states,
// re-derives the summarizability report with a delta strictness probe,
// and re-applies HAVING/ORDER/LIMIT. The returned Partials carry the
// merged states for the next continuation; the input Partials are never
// mutated. Bit-identity with a recompute from scratch follows from the
// kernels' shared extraction order: every argument value is Added in
// ascending dense-index order on both paths.
func UpgradeResult(ctx context.Context, eng *storage.Engine, old *Partials, lo, hi int, ref temporal.Chronon) (*query.Result, *Partials, error) {
	q := old.Query
	var sel *storage.Bitmap
	if q.Where != nil {
		var err error
		sel, err = compileWhere(ctx, q.Where, eng.MO(), eng, dimension.CurrentContext(ref))
		if err != nil {
			return nil, nil, err
		}
	}

	// Clone-then-fold: the cached partials stay valid for their own
	// version even if this continuation is abandoned (CAS failure,
	// cancellation).
	merged := make(map[string]*GroupState, len(old.Groups)+4)
	for v, gs := range old.Groups {
		merged[v] = gs.clone()
	}

	argDim := old.ArgDim
	if old.Dim == "" {
		count, argvals, err := eng.GlobalRange(ctx, argDim, sel, lo, hi)
		if err != nil {
			return nil, nil, err
		}
		gs := merged[""]
		if gs == nil {
			gs = &GroupState{}
			if old.Fn.NeedsArg {
				gs.State = old.Fn.State()
			}
			merged[""] = gs
		}
		gs.Count += count
		if gs.State != nil {
			for _, v := range argvals {
				gs.State.Add(v)
			}
		}
	} else {
		values, counts, args, err := eng.AggregateByRange(ctx, old.Dim, old.Cat, argDim, sel, lo, hi)
		if err != nil {
			return nil, nil, err
		}
		for j, v := range values {
			gs := merged[v]
			if gs == nil {
				gs = &GroupState{}
				if old.Fn.NeedsArg {
					gs.State = old.Fn.State()
				}
				merged[v] = gs
			}
			gs.Count += counts[j]
			if gs.State != nil {
				for _, x := range args[j] {
					gs.State.Add(x)
				}
			}
		}
	}

	// Continue the strictness verdict: old facts' characterizations are
	// append-invariant, so MultiValued(all) == cached || delta probe.
	multiValued := old.MultiValued
	if old.Dim != "" && !multiValued {
		multiValued = eng.MultiValuedRange(old.Dim, old.Cat, sel, lo, hi)
	}
	report := old.rebuildReport(multiValued)

	// Rebuild the full (pre-HAVING) row set with the planner's presence
	// semantics: no facts, no group, no row; argument-consuming functions
	// skip groups whose state finalizes not-ok (exactly fn.Apply on an
	// empty extraction).
	var rows [][]string
	if old.Dim == "" {
		if gs := merged[""]; gs != nil && gs.Count > 0 {
			if !old.Fn.NeedsArg {
				rows = [][]string{{agg.FormatResult(float64(gs.Count))}}
			} else if v, ok := gs.State.Finalize(); ok {
				rows = [][]string{{agg.FormatResult(v)}}
			}
		}
	} else {
		rows = make([][]string, 0, len(merged))
		for val, gs := range merged {
			if !old.Fn.NeedsArg {
				if gs.Count == 0 {
					continue
				}
				rows = append(rows, []string{val, agg.FormatResult(float64(gs.Count))})
				continue
			}
			v, ok := gs.State.Finalize()
			if !ok {
				continue
			}
			rows = append(rows, []string{val, agg.FormatResult(v)})
		}
	}
	sortRows(rows)
	if len(rows) == 0 {
		rows = nil
	}

	res := &query.Result{
		Columns:      old.Columns,
		Rows:         rows,
		Summarizable: report.Summarizable,
		Reasons:      report.Reasons,
	}
	if err := query.ApplyHaving(q, res); err != nil {
		return nil, nil, err
	}
	if err := query.OrderAndLimit(q, res); err != nil {
		return nil, nil, err
	}

	next := &Partials{
		Query:        old.Query,
		Shape:        old.Shape,
		Fn:           old.Fn,
		Dim:          old.Dim,
		Cat:          old.Cat,
		ArgDim:       old.ArgDim,
		FactType:     old.FactType,
		Columns:      old.Columns,
		Groups:       merged,
		MultiValued:  multiValued,
		CoverReasons: old.CoverReasons,
	}
	return res, next, nil
}
