package algebra

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"mddm/internal/agg"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/fact"
	"mddm/internal/obs"
	"mddm/internal/qos"
	"mddm/internal/temporal"
)

// Range is an optional bucket of the result dimension, one level above the
// raw results — Figure 3 groups counts into the ranges "0-1" and ">1".
// Both bounds are inclusive.
type Range struct {
	Label  string
	Lo, Hi float64
}

// Contains reports whether v falls into the bucket.
func (r Range) Contains(v float64) bool { return r.Lo <= v && v <= r.Hi }

// Category type names of result dimensions built by Aggregate.
const (
	ResultValueCat = "Value"
	ResultRangeCat = "Range"
)

// AggSpec parameterizes the aggregate-formation operator
// α[D_{n+1}, g, C_1, …, C_n](M).
type AggSpec struct {
	// ResultDim names the new dimension D_{n+1}.
	ResultDim string
	// Func is the aggregate function g.
	Func *agg.Func
	// ArgDims are the argument dimensions of g (Args(g)); empty for
	// SETCOUNT.
	ArgDims []string
	// GroupBy maps dimension names to the grouping category C_i; omitted
	// dimensions group at ⊤ (their detail is aggregated away).
	GroupBy map[string]string
	// Ranges optionally buckets the result values into a Range category
	// above the Value category.
	Ranges []Range
	// Warn downgrades "illegal function application" (g not admitted by
	// the argument's aggregation type) from an error to a recorded
	// warning. The default (false) enforces the paper's guard strictly.
	Warn bool
}

// AggResult is the outcome of aggregate formation: the result MO plus the
// bookkeeping a user or UI needs — the summarizability report that
// determined the result's aggregation type, and any warnings.
type AggResult struct {
	MO *core.MO
	// Report is the summarizability check underlying the aggregation-type
	// rule.
	Report agg.Report
	// ResultAggType is the aggregation type assigned to the result
	// dimension's bottom category: min of the argument bottoms when
	// summarizable, c otherwise.
	ResultAggType dimension.AggType
	// Warnings lists non-fatal issues (illegal applications under Warn).
	Warnings []string
}

// Aggregate implements the aggregate-formation operator: for every
// combination (e_1, …, e_n) of values of the grouping categories, the set
// of facts characterized by the combination becomes a set-valued fact,
// related to e_i in each cut-down argument dimension and to
// g(Group(e_1, …, e_n)) in the new result dimension. Aggregation types
// follow the paper's rule, so non-summarizable ("unsafe") results get type
// c and cannot be aggregated further.
func Aggregate(m *core.MO, spec AggSpec, ctx dimension.Context) (*AggResult, error) {
	return AggregateContext(context.Background(), m, spec, ctx)
}

// AggregateContext is Aggregate with cooperative cancellation and
// fact-budget accounting: the per-fact grouping loop and the per-group
// output loop both consult the query context (via internal/qos), so a
// canceled or deadline-expired context aborts a large aggregate formation
// within a bounded number of iterations, and a serving-layer fact budget
// stops runaway scans with a typed qos.ErrResourceExhausted.
func AggregateContext(cctx context.Context, m *core.MO, spec AggSpec, ctx dimension.Context) (*AggResult, error) {
	start := time.Now()
	sp := obs.StartSpan(cctx, "algebra.aggregate")
	defer func() {
		mOpAggregate.Observe(time.Since(start))
		sp.End()
	}()
	guard := qos.NewGuard(cctx)
	if err := guard.CheckNow(); err != nil {
		return nil, fmt.Errorf("algebra: aggregate: %w", err)
	}
	if spec.Func == nil {
		return nil, fmt.Errorf("algebra: aggregate: nil function")
	}
	if spec.ResultDim == "" {
		return nil, fmt.Errorf("algebra: aggregate: empty result dimension name")
	}
	if m.Schema().DimensionType(spec.ResultDim) != nil {
		return nil, fmt.Errorf("algebra: aggregate: result dimension %q collides with an argument dimension", spec.ResultDim)
	}
	res := &AggResult{}

	names := m.Schema().DimensionNames()
	groupCats := make(map[string]string, len(names))
	for _, n := range names {
		groupCats[n] = dimension.TopName
	}
	for n, c := range spec.GroupBy {
		dt := m.Schema().DimensionType(n)
		if dt == nil {
			return nil, fmt.Errorf("algebra: aggregate: unknown dimension %q in GroupBy", n)
		}
		if !dt.Has(c) {
			return nil, fmt.Errorf("algebra: aggregate: dimension %q has no category %q", n, c)
		}
		groupCats[n] = c
	}
	for _, a := range spec.ArgDims {
		if m.Schema().DimensionType(a) == nil {
			return nil, fmt.Errorf("algebra: aggregate: unknown argument dimension %q", a)
		}
	}

	// The paper's legality guard: g must be admitted by the aggregation
	// type of every argument dimension's bottom category.
	if err := agg.CheckLegal(m, spec.Func, spec.ArgDims); err != nil {
		if !spec.Warn {
			return nil, err
		}
		res.Warnings = append(res.Warnings, err.Error())
	}

	res.Report = agg.CheckSummarizable(m, spec.Func, spec.GroupBy, ctx)
	res.ResultAggType = agg.ResultAggType(m, spec.Func, spec.ArgDims, res.Report.Summarizable)

	// Build the cut-down argument dimensions and their restricted types.
	outDims := make(map[string]*dimension.Dimension, len(names))
	for _, n := range names {
		cat := groupCats[n]
		var keep []string
		for _, c := range m.Dimension(n).Type().UpSet(cat) {
			if c != dimension.TopName {
				keep = append(keep, c)
			}
		}
		if len(keep) == 0 {
			// Grouping at ⊤: the dimension collapses to the trivial
			// dimension holding only ⊤. Restrict needs at least one
			// category, so synthesize a minimal type by keeping the top-most
			// real category with no values.
			trivial := dimension.MustDimensionType(n, dimension.Constant, dimension.KindString, topProxyCat)
			outDims[n] = dimension.New(trivial)
			continue
		}
		sub, err := m.Dimension(n).SubDimension(n, keep...)
		if err != nil {
			return nil, fmt.Errorf("algebra: aggregate: %w", err)
		}
		outDims[n] = sub
	}

	// Build the result dimension type and instance.
	rt := dimension.NewDimensionType(spec.ResultDim)
	kind := dimension.KindFloat
	if err := rt.AddCategoryType(ResultValueCat, res.ResultAggType, kind); err != nil {
		return nil, err
	}
	if len(spec.Ranges) > 0 {
		// Higher categories: min of their own (constant labels) and the
		// bottom's type — constants either way.
		if err := rt.AddCategoryType(ResultRangeCat, dimension.Constant, dimension.KindString); err != nil {
			return nil, err
		}
		if err := rt.AddOrder(ResultValueCat, ResultRangeCat); err != nil {
			return nil, err
		}
	}
	if err := rt.Finalize(); err != nil {
		return nil, err
	}
	resultDim := dimension.New(rt)
	for _, r := range spec.Ranges {
		if err := resultDim.AddValue(ResultRangeCat, r.Label); err != nil {
			return nil, err
		}
	}

	// Assemble the result schema and MO.
	outSchema, err := core.NewSchema("Set-of-" + m.Schema().FactType())
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if err := outSchema.AddDimensionType(outDims[n].Type()); err != nil {
			return nil, err
		}
	}
	if err := outSchema.AddDimensionType(rt); err != nil {
		return nil, err
	}
	out := core.NewMO(outSchema)
	out.SetKind(m.Kind())
	for _, n := range names {
		if err := out.SetDimension(n, outDims[n]); err != nil {
			return nil, err
		}
	}
	if err := out.SetDimension(spec.ResultDim, resultDim); err != nil {
		return nil, err
	}

	// Phase A — group the facts: for each fact, its ancestor set in every
	// grouping category; the fact belongs to every combination of its
	// per-dimension ancestors. (Iterating C_1 × … × C_n directly would be
	// exponential in n; per-fact expansion visits exactly the non-empty
	// groups.)
	factIDs := m.Facts().IDs()
	groups := map[string]*fact.Set{} // combo key -> member facts
	combos := map[string]combo{}
	for _, f := range factIDs {
		if err := guard.Facts(1); err != nil {
			return nil, fmt.Errorf("algebra: aggregate: %w", err)
		}
		groupOneFact(m, names, groupCats, f, ctx, func(key string, vals []string, ff fact.Fact) {
			if _, seen := groups[key]; !seen {
				groups[key] = fact.NewSet()
				combos[key] = combo{key: key, vals: append([]string(nil), vals...)}
			}
			groups[key].Add(ff)
		})
	}

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	sp.SetAttr("facts", int64(len(factIDs)))
	sp.SetAttr("groups", int64(len(keys)))

	// Phase B — evaluate each group: the group fact, the R'_i annotations,
	// and g(group), folding over the group's sorted member ids.
	outs := make([]*groupOut, len(keys))
	for t, key := range keys {
		if err := guard.Check(); err != nil {
			return nil, fmt.Errorf("algebra: aggregate: %w", err)
		}
		o, err := evalGroup(guard, m, &spec, names, combos[key], groups[key], ctx)
		if err != nil {
			return nil, err
		}
		outs[t] = o
	}

	// Apply, in sorted key order: add every group's fact, annotations and
	// result value to the result MO.
	for t, key := range keys {
		o := outs[t]
		cb := combos[key]
		out.AddFact(o.groupFact)
		for i, n := range names {
			out.Relation(n).AddAnnot(o.groupFact.ID, cb.vals[i], o.annots[i])
		}
		if !o.okv {
			continue // no result for this group (e.g. AVG over no values)
		}
		rv := agg.FormatResult(o.v)
		if !resultDim.Has(rv) {
			if err := resultDim.AddValue(ResultValueCat, rv); err != nil {
				return nil, err
			}
			for _, r := range spec.Ranges {
				if r.Contains(o.v) {
					if err := resultDim.AddEdge(rv, r.Label); err != nil {
						return nil, err
					}
				}
			}
		}
		out.Relation(spec.ResultDim).AddAnnot(o.groupFact.ID, rv, o.resAnnot)
	}

	res.MO = out
	return res, nil
}

// combo is one grouping combination (e_1, …, e_n) and its map key.
type combo struct {
	key  string
	vals []string
}

// groupOut is the evaluation of one group, ready for the serial apply
// step: the set-valued fact, its annotation toward e_i in each cut-down
// dimension, and the function result with its annotation.
type groupOut struct {
	groupFact fact.Fact
	annots    []dimension.Annot
	v         float64
	okv       bool
	resAnnot  dimension.Annot
}

// groupOneFact resolves one fact's grouping combinations and hands each
// (key, combination, fact) to sink; facts reaching no value of some
// grouping category yield nothing.
func groupOneFact(m *core.MO, names []string, groupCats map[string]string, f string, ctx dimension.Context, sink func(key string, vals []string, ff fact.Fact)) {
	perDim := make([][]string, len(names))
	for i, n := range names {
		anc := factAncestors(m, n, f, groupCats[n], ctx)
		if len(anc) == 0 {
			return
		}
		perDim[i] = anc
	}
	ff, _ := m.Facts().Get(f)
	expandCombos(perDim, func(vals []string) {
		sink(strings.Join(vals, "\x00"), vals, ff)
	})
}

// evalGroup computes one group's output without touching the result MO. The
// fold over members is sequential in sorted member-id order.
func evalGroup(guard *qos.Guard, m *core.MO, spec *AggSpec, names []string, cb combo, members *fact.Set, ctx dimension.Context) (*groupOut, error) {
	o := &groupOut{annots: make([]dimension.Annot, len(names))}
	if spec.Func.NeedsProb {
		// Probabilistic results depend on the grouping combination, not
		// only on the member set: keep equal sets under different
		// combinations apart by tagging the identity.
		o.groupFact = fact.NewGroupTagged(members.IDs(), comboTag(cb.vals))
	} else {
		o.groupFact = fact.NewGroup(members.IDs())
	}

	// R'_i: the group is related to e_i with the intersection of the
	// members' characterization times and the minimum member probability.
	for i, n := range names {
		ei := cb.vals[i]
		t := temporal.AlwaysElement()
		prob := 1.0
		for _, mf := range members.IDs() {
			// Immediate poll: one temporal intersection dwarfs the
			// channel check, and accumulated elements make iterations
			// arbitrarily slow — sampling would miss the deadline.
			if err := guard.CheckNow(); err != nil {
				return nil, fmt.Errorf("algebra: aggregate: %w", err)
			}
			mt, mp := m.CharacterizationTime(n, mf, ei, ctx)
			t = t.Intersect(mt)
			if mp < prob {
				prob = mp
			}
		}
		a := dimension.Annot{Time: temporal.ValidOnly(t), Prob: prob}
		if ei == dimension.TopValue {
			a = dimension.Always()
		}
		o.annots[i] = a
	}

	// R'_{n+1}: the group is related to g(group).
	if spec.Func.NeedsProb {
		// Probabilistic functions fold the members' membership
		// probabilities: for each member, the product over grouping
		// dimensions of P(f ⤳ e_i).
		probs := make([]float64, 0, members.Len())
		for _, mf := range members.IDs() {
			if err := guard.Check(); err != nil {
				return nil, fmt.Errorf("algebra: aggregate: %w", err)
			}
			p := 1.0
			for i, n := range names {
				if cb.vals[i] == dimension.TopValue {
					continue
				}
				_, cp := m.CharacterizedBy(n, mf, cb.vals[i], ctx)
				p *= cp
			}
			probs = append(probs, p)
		}
		o.v, o.okv = spec.Func.ApplyProb(probs)
	} else {
		nVals, err := extractArgs(guard, m, spec.ArgDims, members, ctx)
		if err != nil {
			return nil, fmt.Errorf("algebra: aggregate: %w", err)
		}
		o.v, o.okv = spec.Func.Apply(members.Len(), nVals)
	}
	if !o.okv {
		return o, nil
	}
	// Time: intersection over members and argument dimensions of the
	// characterization times (the paper's rule; Always when Args(g) is
	// empty).
	t := temporal.AlwaysElement()
	prob := 1.0
	for _, ad := range spec.ArgDims {
		i := indexOf(names, ad)
		for _, mf := range members.IDs() {
			mt, mp := m.CharacterizationTime(ad, mf, cb.vals[i], ctx)
			t = t.Intersect(mt)
			if mp < prob {
				prob = mp
			}
		}
	}
	o.resAnnot = dimension.Annot{Time: temporal.ValidOnly(t), Prob: prob}
	return o, nil
}

// topProxyCat is the placeholder bottom category of a dimension collapsed
// to ⊤ by grouping (the trivial dimensions of Example 12).
const topProxyCat = "(all)"

// comboTag renders a grouping combination compactly, skipping ⊤ entries.
func comboTag(vals []string) string {
	var parts []string
	for _, v := range vals {
		if v != dimension.TopValue {
			parts = append(parts, v)
		}
	}
	return strings.Join(parts, "/")
}

// factAncestors returns the values of the given category that characterize
// the fact (f ⤳ a), sorted.
func factAncestors(m *core.MO, dim, factID, cat string, ctx dimension.Context) []string {
	if cat == dimension.TopName {
		return []string{dimension.TopValue}
	}
	d := m.Dimension(dim)
	r := m.Relation(dim)
	set := map[string]bool{}
	for _, e := range r.ValuesOf(factID) {
		a, _ := r.Annot(factID, e)
		if !ctx.Admits(a) {
			continue
		}
		for _, anc := range d.AncestorsIn(cat, e, ctx) {
			set[anc] = true
		}
	}
	out := make([]string, 0, len(set))
	for a := range set {
		out = append(out, a)
	}
	sort.Strings(out)
	return out
}

// expandCombos calls fn for every element of the cross product of the
// per-dimension ancestor lists.
func expandCombos(perDim [][]string, fn func(vals []string)) {
	vals := make([]string, len(perDim))
	var rec func(i int)
	rec = func(i int) {
		if i == len(perDim) {
			fn(vals)
			return
		}
		for _, v := range perDim[i] {
			vals[i] = v
			rec(i + 1)
		}
	}
	rec(0)
}

// extractArgs collects the numeric argument values of a group: for each
// member fact and each argument dimension, the numeric interpretations of
// the values directly characterizing the fact.
func extractArgs(guard *qos.Guard, m *core.MO, argDims []string, members *fact.Set, ctx dimension.Context) ([]float64, error) {
	var vals []float64
	for _, ad := range argDims {
		d := m.Dimension(ad)
		r := m.Relation(ad)
		for _, f := range members.IDs() {
			if err := guard.Check(); err != nil {
				return nil, err
			}
			for _, e := range r.ValuesOf(f) {
				a, _ := r.Annot(f, e)
				if !ctx.Admits(a) {
					continue
				}
				if v, ok := d.Numeric(e, ctx); ok {
					vals = append(vals, v)
				}
			}
		}
	}
	return vals, nil
}

func indexOf(xs []string, x string) int {
	for i, v := range xs {
		if v == x {
			return i
		}
	}
	return -1
}
