// Package plan is the columnar query planner: it lowers a parsed query to
// a physical plan over the storage engine's kernels and bitmap indexes —
// selection becomes bitmap algebra, grouping becomes per-value closure
// folds, aggregation becomes flat column folds, and the evaluation context
// (ASOF VALID, ASOF TRANS, WITH PROB >=) becomes a context view of the
// engine that the same kernels scan — and materializes nothing but the
// surviving result rows; DESCRIBE renders the schema (query.Describe). The
// full-algebra path (internal/query → internal/algebra), which builds a
// complete result MO per the paper's aggregate-formation operator, is the
// semantic oracle and nothing else: the planner never calls it, and every
// planned result is differentially tested against it (see plan_test.go),
// mirroring how column ≡ bitmap ≡ index-free is pinned per-kernel in
// internal/storage. A query whose engine cannot be resolved fails with the
// resolver's error.
package plan

import (
	"context"
	"fmt"
	"time"

	"mddm/internal/agg"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/obs"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// Engines resolves the read-optimized engine snapshot for a catalog MO,
// under the current context at the resolver's reference chronon. The
// planner derives the engine for the query's own context from it
// (storage.Engine.View), so a resolver memoizes per context through the
// snapshot it hands out. serve.(*Server) satisfies it directly; standalone
// callers use CatalogEngines.
type Engines interface {
	EngineFor(ctx context.Context, name string) (*storage.Engine, error)
}

// ExecContext parses and executes a query through the planner. It is a
// drop-in replacement for query.ExecContext: same results, same error texts
// for every validation error, same result-cache canonical key (planning
// happens after cache keying). It is PrepareContext followed by Execute —
// the split exists so the batch scheduler (internal/batch) can hold a query
// between planning and shape execution.
func ExecContext(cctx context.Context, src string, cat query.Catalog, ref temporal.Chronon, engines Engines) (*query.Result, error) {
	p, err := PrepareContext(cctx, src, cat, ref, engines)
	if err != nil {
		return nil, err
	}
	return p.Execute()
}

// Prepared is a query planned to the brink of shape execution: parsed,
// engine-resolved, WHERE-compiled, and validated. Execute runs the solo
// tail; FinishScan consumes a batch's kernel scan instead (batch.go). A
// Prepared is good for one execution and is not safe for concurrent use.
type Prepared struct {
	cctx    context.Context
	q       *query.Query
	cat     query.Catalog
	ref     temporal.Chronon
	ex      *Explain
	guard   *qos.Guard
	eng     *storage.Engine
	m       *core.MO
	sel     *storage.Bitmap
	fn      *agg.Func
	report  agg.Report
	grouped []groupDim

	resultDim string
	argDim    string

	factsOnly bool

	// planErr is the first error planning met — engine resolution, WHERE
	// compilation, validation — deferred so Execute surfaces it.
	planErr error

	// The plan.query span (nil when the query is untraced) and the start of
	// the latency observation PrepareContext opened; finishSpan closes both,
	// once.
	sp       *obs.Span
	start    time.Time
	finished bool
}

// evalContext is the evaluation context the query's clauses ask for: the
// current one at ref, at the ASOF instants, above the WITH PROB threshold —
// the instants the algebra path slices the MO at and the context it then
// evaluates under, in one value.
func evalContext(q *query.Query, ref temporal.Chronon) dimension.Context {
	ectx := dimension.CurrentContext(ref).WithMinProb(q.MinProb)
	if q.AsofValid != nil {
		ectx = ectx.AtValid(*q.AsofValid)
	}
	if q.AsofTrans != nil {
		ectx = ectx.AtTrans(*q.AsofTrans)
	}
	return ectx
}

// plan resolves the engine, compiles the WHERE selection, and runs every
// validation up to the shape dispatch. Errors are deferred into planErr so
// Execute surfaces them in the original call order.
func (p *Prepared) plan(engines Engines) {
	q := p.q
	if q.Describe != "" {
		// DESCRIBE reads the schema only: no engine, nothing to compile.
		p.markPlanned()
		return
	}
	if _, ok := p.cat[q.From]; !ok {
		p.planErr = fmt.Errorf("query: unknown MO %q (catalog has %v)", q.From, query.CatalogNames(p.cat))
		return
	}
	eng, err := engines.EngineFor(p.cctx, q.From)
	if err != nil {
		p.planErr = err
		return
	}
	// The engine for the query's context: the snapshot itself for a plain
	// query, a context view of it otherwise. A probabilistic aggregate (a
	// name that does not resolve errors later, where the algebra reports it)
	// reads membership probabilities, which only views index.
	fn, fnErr := agg.Lookup(q.Agg)
	ectx := evalContext(q, p.ref)
	eng, resolved := eng.View(ectx, !q.FactsOnly && fnErr == nil && fn.NeedsProb)
	if p.ex != nil && resolved != "" {
		p.ex.View = resolved
		p.ex.MinProb = ectx.MinProb
		if ectx.Valid != nil {
			p.ex.AsofValid = ectx.Valid.String()
		}
		if ectx.Trans != nil {
			p.ex.AsofTrans = ectx.Trans.String()
		}
	}
	// The engine's MO is the authoritative pairing: reading names through
	// it keeps dimension metadata and bitmap indexes from one snapshot
	// even if the catalog entry was swapped after the engine resolved.
	// Dimensions are read through the engine: a view's are sliced.
	p.eng = eng
	m := eng.MO()
	p.m = m

	if q.Where != nil {
		p.sel, err = compileWhere(p.cctx, q.Where, eng)
		if err != nil {
			p.planErr = err
			return
		}
	}
	if err := faultinject.Check(faultinject.PlanExec); err != nil {
		p.planErr = fmt.Errorf("plan: %w", err)
		return
	}
	p.markPlanned()

	if q.FactsOnly {
		p.factsOnly = true
		return
	}

	if fnErr != nil {
		p.planErr = fmt.Errorf("query: %w", fnErr)
		return
	}
	p.fn = fn
	p.resultDim = q.Alias
	if p.resultDim == "" {
		p.resultDim = q.Agg
	}
	if fn.NeedsArg {
		if q.AggArg == "*" {
			p.planErr = fmt.Errorf("query: %s needs an argument dimension", q.Agg)
			return
		}
		p.argDim = q.AggArg
	} else if q.AggArg != "*" {
		p.planErr = fmt.Errorf("query: %s takes no argument dimension (use %s(*))", q.Agg, q.Agg)
		return
	}
	groupBy := map[string]string{}
	for _, g := range q.GroupBy {
		if _, dup := groupBy[g.Dim]; dup {
			p.planErr = fmt.Errorf("query: GROUP BY names dimension %q twice", g.Dim)
			return
		}
		dt := m.Schema().DimensionType(g.Dim)
		if dt == nil {
			p.planErr = fmt.Errorf("query: unknown dimension %q", g.Dim)
			return
		}
		c := g.Cat
		if c == "" {
			c = dt.Bottom()
		}
		if !dt.Has(c) {
			p.planErr = fmt.Errorf("query: dimension %q has no category %q (has %v)", g.Dim, c, dt.CategoryTypes())
			return
		}
		groupBy[g.Dim] = c
	}
	// Aggregate-formation validations, replicated in the algebra's order
	// and wrapping so error texts match the oracle's byte-for-byte.
	if m.Schema().DimensionType(p.resultDim) != nil {
		p.planErr = fmt.Errorf("query: algebra: aggregate: result dimension %q collides with an argument dimension", p.resultDim)
		return
	}
	var argDims []string
	if p.argDim != "" {
		if m.Schema().DimensionType(p.argDim) == nil {
			p.planErr = fmt.Errorf("query: algebra: aggregate: unknown argument dimension %q", p.argDim)
			return
		}
		argDims = []string{p.argDim}
	}
	if err := agg.CheckLegal(m, fn, argDims); err != nil {
		p.planErr = fmt.Errorf("query: %w", err)
		return
	}
	p.report = checkSummarizable(eng, fn, groupBy, p.sel)
	p.grouped = groupedDims(m, groupBy)
}

// markPlanned counts the query in the planned mode series and reports the
// mode to explain.
func (p *Prepared) markPlanned() {
	mPlanPlanned.Inc()
	if p.ex != nil {
		p.ex.Mode = ModePlanned
	}
}

// finishSpan closes the span and the latency observation PrepareContext
// opened. Idempotent: Abort, Execute and FinishScan all end through it.
func (p *Prepared) finishSpan() {
	if p.finished {
		return
	}
	p.finished = true
	mPlanSeconds.Observe(time.Since(p.start))
	p.sp.End()
}

// Execute runs the prepared query's solo tail: the schema rendering for
// DESCRIBE, otherwise the shape dispatch over the engine kernels.
func (p *Prepared) Execute() (*query.Result, error) {
	defer p.finishSpan()
	if p.planErr != nil {
		return nil, p.planErr
	}
	if p.q.Describe != "" {
		if p.ex != nil {
			p.ex.Shape = ShapeDescribe
		}
		return query.Describe(p.q, p.cat)
	}
	if p.factsOnly {
		return execFacts(p.guard, p.eng, p.m, p.sel, p.q.Limit, p.ex)
	}
	if len(p.grouped) > 1 {
		if p.ex != nil {
			p.ex.Shape = ShapeCross
			p.ex.Kernel = storage.KernelColumn
		}
		// Cross captures nothing: its merged set-valued groups do not
		// decompose per appended fact.
		groups, err := p.execCross()
		if err != nil {
			return nil, err
		}
		return p.finish(groups, false, nil)
	}
	// Solo is a batch of one, and ungrouped is a leg of one value: the same
	// kernel scan the batch scheduler runs, with this query as its only
	// member, then the same finish.
	gd := p.leg()
	scan, err := p.eng.ScanLeg(p.cctx, gd.dim, gd.cat,
		[]storage.SharedScanMember{{ArgDim: p.argDim, Sel: p.sel, ListArgs: p.NeedsArgLists(), Prob: p.ProbArg()}})
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	m := scan.Members[0]
	return p.finishLeg(scan.Kernel, scan.Values, m.Counts, m.Args, m.Folds)
}

// leg returns the leg a global or one-leg query scans: its single grouping
// leg, or ⊤ — the zero groupDim, storage's empty leg — when no dimension is
// grouped below ⊤.
func (p *Prepared) leg() groupDim {
	if len(p.grouped) == 0 {
		return groupDim{}
	}
	return p.grouped[0]
}

// finish is the planned shapes' result tail: header assembly and the
// typed row tail (sorted says the groups arrive in canonical order), then —
// for a shape that captured partials — their attachment to the context's
// sink.
func (p *Prepared) finish(groups []row, sorted bool, parts *Partials) (*query.Result, error) {
	// The header names the columns the rows fill: the grouped legs in
	// schema order, ⊤ showing none, then the aggregate.
	columns := make([]string, 0, len(p.grouped)+1)
	for _, gd := range p.grouped {
		columns = append(columns, gd.dim)
	}
	columns = append(columns, p.resultDim)
	if p.ex != nil {
		p.ex.Groups = len(groups)
	}
	res, err := assemble(p.q, columns, groups, sorted, p.report)
	if err != nil {
		return nil, err
	}
	if parts != nil {
		parts.Columns = columns
		captureFrom(p.cctx).Partials = parts
	}
	return res, nil
}

// groupDim is one effective grouping leg: a dimension grouped below ⊤. The
// zero value is ⊤ itself, the leg of the global shape.
type groupDim struct {
	dim string
	cat string
}

// group is one group of the leg: its value in a one-element slice — ⊤
// shows none — and the aggregate.
func (gd groupDim) group(val []string, v float64) row {
	if gd.dim == "" {
		return row{v: v}
	}
	return row{keys: val, v: v}
}

// groupedDims lists the effective grouping legs in schema order — the
// same order the algebra's row flattening shows them, with ⊤-grouped
// dimensions dropped.
func groupedDims(m *core.MO, groupBy map[string]string) []groupDim {
	var out []groupDim
	for _, n := range m.Schema().DimensionNames() {
		if c, ok := groupBy[n]; ok && c != dimension.TopName {
			out = append(out, groupDim{dim: n, cat: c})
		}
	}
	return out
}
