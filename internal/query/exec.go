package query

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"mddm/internal/agg"
	"mddm/internal/algebra"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/obs"
	"mddm/internal/qos"
	"mddm/internal/temporal"
)

// Parse timing joins the operator family the algebra layer populates, so
// one histogram answers "where does query time go" across the whole path.
var mOpParse = obs.NewHistogram("mddm_operator_seconds",
	"Latency of one operator invocation, by operator.",
	obs.DurationBuckets, obs.Label{Key: "op", Value: "parse"})

// Catalog names the MOs a query may address.
type Catalog map[string]*core.MO

// Result is a query's outcome: either fact identities (SELECT FACTS) or
// aggregation rows, plus the summarizability bookkeeping.
type Result struct {
	// Columns names the output columns (grouping dimensions, then the
	// aggregate).
	Columns []string
	// Rows are the output rows (fact ids for SELECT FACTS).
	Rows [][]string
	// Summarizable and Reasons report the aggregation-type rule's input.
	Summarizable bool
	Reasons      []string
	// Warnings lists non-fatal issues.
	Warnings []string
}

// Exec parses and executes a query against the catalog. NOW resolves to
// ref.
func Exec(src string, cat Catalog, ref temporal.Chronon) (*Result, error) {
	return ExecContext(context.Background(), src, cat, ref)
}

// ExecContext is Exec with cooperative cancellation: the context is
// threaded through selection, aggregate formation, and the row loops, so
// canceling it (or letting its deadline expire) aborts the query promptly
// with a qos.ErrCanceled-wrapped error. A fact budget installed with
// qos.WithFactBudget bounds the number of facts the query may scan.
func ExecContext(cctx context.Context, src string, cat Catalog, ref temporal.Chronon) (*Result, error) {
	start := time.Now()
	sp := obs.StartSpan(cctx, "query.parse")
	q, err := Parse(src)
	mOpParse.Observe(time.Since(start))
	sp.End()
	if err != nil {
		return nil, err
	}
	return RunContext(cctx, q, cat, ref)
}

// RunContext executes a parsed query: timeslices first (changing the
// MO's temporal type), then selection, then aggregate formation, rendered
// as rows. It checks cctx cooperatively; see ExecContext.
func RunContext(cctx context.Context, q *Query, cat Catalog, ref temporal.Chronon) (*Result, error) {
	guard := qos.NewGuard(cctx)
	if err := guard.CheckNow(); err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	if q.Describe != "" {
		return Describe(q, cat)
	}
	m, ok := cat[q.From]
	if !ok {
		return nil, fmt.Errorf("query: unknown MO %q (catalog has %v)", q.From, CatalogNames(cat))
	}
	ctx := dimension.CurrentContext(ref).WithMinProb(q.MinProb)

	if q.AsofValid != nil {
		var err error
		m, err = algebra.ValidTimeslice(m, *q.AsofValid, ref)
		if err != nil {
			return nil, fmt.Errorf("query: valid timeslice: %w", err)
		}
	}
	if q.AsofTrans != nil {
		var err error
		m, err = algebra.TransactionTimeslice(m, *q.AsofTrans, ref)
		if err != nil {
			return nil, fmt.Errorf("query: transaction timeslice: %w", err)
		}
	}

	if q.Where != nil {
		pred, err := compilePred(q.Where, m)
		if err != nil {
			return nil, err
		}
		m, err = algebra.SelectContext(cctx, m, pred, ctx)
		if err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
	}

	if q.FactsOnly {
		res := &Result{Columns: []string{m.Schema().FactType()}, Summarizable: true}
		ids := m.Facts().IDs()
		if q.Limit > 0 && len(ids) > q.Limit {
			ids = ids[:q.Limit] // LIMIT keeps the first facts in sorted id order
		}
		for _, f := range ids {
			if err := guard.Facts(1); err != nil {
				return nil, fmt.Errorf("query: %w", err)
			}
			res.Rows = append(res.Rows, []string{f})
		}
		return res, nil
	}

	fn, err := agg.Lookup(q.Agg)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	spec := algebra.AggSpec{
		ResultDim: q.Alias,
		Func:      fn,
		GroupBy:   map[string]string{},
	}
	if spec.ResultDim == "" {
		spec.ResultDim = q.Agg
	}
	if fn.NeedsArg {
		if q.AggArg == "*" {
			return nil, fmt.Errorf("query: %s needs an argument dimension", q.Agg)
		}
		spec.ArgDims = []string{q.AggArg}
	} else if q.AggArg != "*" {
		return nil, fmt.Errorf("query: %s takes no argument dimension (use %s(*))", q.Agg, q.Agg)
	}
	for _, g := range q.GroupBy {
		if _, dup := spec.GroupBy[g.Dim]; dup {
			return nil, fmt.Errorf("query: GROUP BY names dimension %q twice", g.Dim)
		}
		dt := m.Schema().DimensionType(g.Dim)
		if dt == nil {
			return nil, fmt.Errorf("query: unknown dimension %q", g.Dim)
		}
		cat := g.Cat
		if cat == "" {
			cat = dt.Bottom()
		}
		if !dt.Has(cat) {
			return nil, fmt.Errorf("query: dimension %q has no category %q (has %v)", g.Dim, cat, dt.CategoryTypes())
		}
		spec.GroupBy[g.Dim] = cat
	}
	// The header names the columns the rows fill: the grouped dimensions
	// in schema order, a dimension grouped at ⊤ showing none.
	var shownDims []string
	for _, n := range m.Schema().DimensionNames() {
		if c, ok := spec.GroupBy[n]; ok && c != dimension.TopName {
			shownDims = append(shownDims, n)
		}
	}

	rows, aggRes, err := algebra.SQLAggregateContext(cctx, m, spec, ctx)
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	res := &Result{
		Columns:      append(append([]string{}, shownDims...), spec.ResultDim),
		Summarizable: aggRes.Report.Summarizable,
		Reasons:      aggRes.Report.Reasons,
		Warnings:     aggRes.Warnings,
	}
	for _, r := range rows {
		res.Rows = append(res.Rows, append(append([]string{}, r.Group...), r.Value))
	}
	if err := ApplyHaving(q, res); err != nil {
		return nil, err
	}
	if err := OrderAndLimit(q, res); err != nil {
		return nil, err
	}
	return res, nil
}

// ApplyHaving filters the flattened rows by the HAVING clause, comparing
// the last (aggregate) column numerically; rows whose aggregate does not
// parse as a number are dropped. Exported so the planned execution path
// post-processes rows exactly like the algebra path.
func ApplyHaving(q *Query, res *Result) error {
	if !q.Having {
		return nil
	}
	op, err := CmpOp(q.HavingOp)
	if err != nil {
		return err
	}
	col := len(res.Columns) - 1
	kept := res.Rows[:0]
	for _, row := range res.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err == nil && op.Holds(v, q.HavingVal) {
			kept = append(kept, row)
		}
	}
	res.Rows = kept
	return nil
}

// OrderAndLimit applies ORDER BY and LIMIT to the flattened rows. Values
// that parse as numbers sort numerically, others lexicographically (the
// aggregate column is almost always numeric): each sort cell is parsed
// once, and the stable sort compares the parsed keys. Exported for the
// planned execution path, which keeps this string finish for orders its
// typed one cannot reproduce.
func OrderAndLimit(q *Query, res *Result) error {
	if q.OrderBy != "" {
		col := -1
		for i, c := range res.Columns {
			if c == q.OrderBy {
				col = i
				break
			}
		}
		if col < 0 {
			return fmt.Errorf("query: ORDER BY %q is not an output column (have %v)", q.OrderBy, res.Columns)
		}
		if len(res.Rows) > 1 { // a sort of fewer rows reads no cell
			sortRowsBy(res.Rows, col, q.OrderDesc)
		}
	}
	if q.Limit > 0 && len(res.Rows) > q.Limit {
		res.Rows = res.Rows[:q.Limit]
	}
	return nil
}

// sortKey is a row decorated with its sort cell, parsed once.
type sortKey struct {
	row   []string
	num   float64
	isNum bool
}

// sortRowsBy stably sorts rows by column col: numerically when both cells
// parse as numbers, otherwise as strings — the comparison is not a strict
// weak order on mixed or NaN cells, so the permutation is whatever
// sort.SliceStable makes of it, the same on every call.
func sortRowsBy(rows [][]string, col int, desc bool) {
	keys := make([]sortKey, len(rows))
	for i, row := range rows {
		v, err := strconv.ParseFloat(row[col], 64)
		keys[i] = sortKey{row: row, num: v, isNum: err == nil}
	}
	less := func(a, b *sortKey) bool {
		if a.isNum && b.isNum {
			return a.num < b.num
		}
		return a.row[col] < b.row[col]
	}
	sort.SliceStable(keys, func(i, j int) bool {
		if desc {
			return less(&keys[j], &keys[i])
		}
		return less(&keys[i], &keys[j])
	})
	for i := range keys {
		rows[i] = keys[i].row
	}
}

// compilePred lowers the WHERE tree to an algebra predicate, resolving
// names against the MO: a qualifier names a representation; an unqualified
// string literal is resolved first as a value id, then through every
// representation of the dimension.
func compilePred(n PredNode, m *core.MO) (algebra.Predicate, error) {
	switch x := n.(type) {
	case AndNode:
		kids, err := compileKids(x.Kids, m)
		if err != nil {
			return nil, err
		}
		return algebra.And(kids...), nil
	case OrNode:
		kids, err := compileKids(x.Kids, m)
		if err != nil {
			return nil, err
		}
		return algebra.Or(kids...), nil
	case NotNode:
		kid, err := compilePred(x.Kid, m)
		if err != nil {
			return nil, err
		}
		return algebra.Not(kid), nil
	case CondNode:
		return compileCond(x, m)
	case InNode:
		d := m.Dimension(x.Dim)
		if d == nil {
			return nil, fmt.Errorf("query: unknown dimension %q", x.Dim)
		}
		alts := make([]algebra.Predicate, 0, len(x.Vals))
		for _, v := range x.Vals {
			p, err := resolveValuePred(CondNode{Dim: x.Dim, Qualifier: x.Qualifier, Op: "=", StrVal: v}, d)
			if err != nil {
				return nil, err
			}
			alts = append(alts, p)
		}
		pred := algebra.Or(alts...)
		if x.Negated {
			pred = algebra.Not(pred)
		}
		return pred, nil
	default:
		return nil, fmt.Errorf("query: unknown predicate node %T", n)
	}
}

func compileKids(kids []PredNode, m *core.MO) ([]algebra.Predicate, error) {
	out := make([]algebra.Predicate, len(kids))
	for i, k := range kids {
		p, err := compilePred(k, m)
		if err != nil {
			return nil, err
		}
		out[i] = p
	}
	return out, nil
}

func compileCond(c CondNode, m *core.MO) (algebra.Predicate, error) {
	d := m.Dimension(c.Dim)
	if d == nil {
		return nil, fmt.Errorf("query: unknown dimension %q", c.Dim)
	}
	if c.IsNum {
		op, err := CmpOp(c.Op)
		if err != nil {
			return nil, err
		}
		return algebra.NumericCmp(c.Dim, op, c.NumVal), nil
	}
	base, err := resolveValuePred(c, d)
	if err != nil {
		return nil, err
	}
	if c.Op == "<>" || c.Op == "!=" {
		return algebra.Not(base), nil
	}
	return base, nil
}

func resolveValuePred(c CondNode, d *dimension.Dimension) (algebra.Predicate, error) {
	if c.Qualifier != "" {
		if d.Representation(c.Qualifier) == nil {
			return nil, fmt.Errorf("query: dimension %q has no representation %q (has %v)", c.Dim, c.Qualifier, d.Representations())
		}
		return algebra.CharacterizedRep(c.Dim, c.Qualifier, c.StrVal), nil
	}
	if d.Has(c.StrVal) {
		return algebra.Characterized(c.Dim, c.StrVal), nil
	}
	// Fall back to any representation that knows the literal at execution
	// time.
	reps := d.Representations()
	preds := make([]algebra.Predicate, 0, len(reps))
	for _, r := range reps {
		preds = append(preds, algebra.CharacterizedRep(c.Dim, r, c.StrVal))
	}
	if len(preds) == 0 {
		// No such value and no representations: matches nothing.
		return func(*core.MO, string, dimension.Context) bool { return false }, nil
	}
	return algebra.Or(preds...), nil
}

// CmpOp resolves a comparison operator literal to its algebra CmpOp;
// exported so the planner compiles WHERE/HAVING operators identically.
func CmpOp(s string) (algebra.CmpOp, error) {
	switch s {
	case "=":
		return algebra.EQ, nil
	case "<>", "!=":
		return algebra.NE, nil
	case "<":
		return algebra.LT, nil
	case "<=":
		return algebra.LE, nil
	case ">":
		return algebra.GT, nil
	case ">=":
		return algebra.GE, nil
	default:
		return 0, fmt.Errorf("query: unknown operator %q", s)
	}
}

// Describe answers a DESCRIBE query: it renders an MO's schema lattices (or
// one dimension's) as rows of (category, aggregation type, immediate
// containments). It reads the schema only, so the planner answers DESCRIBE
// with it as well.
func Describe(q *Query, cat Catalog) (*Result, error) {
	m, ok := cat[q.Describe]
	if !ok {
		return nil, fmt.Errorf("query: unknown MO %q (catalog has %v)", q.Describe, CatalogNames(cat))
	}
	res := &Result{Columns: []string{"Dimension", "Category", "AggType", "ContainedIn"}, Summarizable: true}
	dims := m.Schema().DimensionNames()
	if q.DescribeDim != "" {
		if m.Schema().DimensionType(q.DescribeDim) == nil {
			return nil, fmt.Errorf("query: unknown dimension %q", q.DescribeDim)
		}
		dims = []string{q.DescribeDim}
	}
	for _, name := range dims {
		dt := m.Schema().DimensionType(name)
		for _, c := range dt.CategoryTypes() {
			res.Rows = append(res.Rows, []string{
				name, c, dt.AggTypeOf(c).String(), strings.Join(dt.Pred(c), ", "),
			})
		}
	}
	return res, nil
}

// CatalogNames returns the catalog's MO names, sorted; exported so the
// planner's unknown-MO error lists the same names in the same order.
func CatalogNames(cat Catalog) []string {
	out := make([]string, 0, len(cat))
	for n := range cat {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// RenderResult renders a result as a fixed-width text table with a
// summarizability footnote — the warning the paper wants shown when a
// result is "unsafe".
func RenderResult(r *Result) string {
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	var b strings.Builder
	line := func(cells []string) {
		for i, c := range cells {
			fmt.Fprintf(&b, "%-*s", widths[i]+2, c)
		}
		b.WriteString("\n")
	}
	line(r.Columns)
	for _, row := range r.Rows {
		line(row)
	}
	if !r.Summarizable && len(r.Reasons) > 0 {
		fmt.Fprintf(&b, "-- not summarizable: %s\n", strings.Join(r.Reasons, "; "))
	}
	for _, w := range r.Warnings {
		fmt.Fprintf(&b, "-- warning: %s\n", w)
	}
	return b.String()
}
