package storage

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/obs"
	"mddm/internal/qos"
)

// Storage metrics. Bitmap scans are counted once per aggregation call
// (folding a local tally), not per fact, so the hot popcount loops stay
// atomic-free; closure expansions count only the memoization cold path —
// after warmup the counter goes quiet, which is itself the signal.
var (
	mEngineBuilds = obs.NewCounter("mddm_storage_engine_builds_total",
		"Engine snapshots built (index construction runs).")
	mClosureExpansions = obs.NewCounter("mddm_storage_closure_expansions_total",
		"Rollup closure bitmaps computed and memoized (cold-path work).")
	mBitmapScans = obs.NewCounter("mddm_storage_bitmap_scans_total",
		"Closure bitmaps scanned (popcounted or iterated) by aggregation paths.")
)

// Engine is a read-optimized snapshot of an MO evaluated under a fixed
// context: dense fact indices, per-dimension bitmap indexes of the direct
// fact–dimension pairs, and lazily memoized rollup closures giving, for any
// dimension value e, the bitmap of facts with f ⤳ e. Distinct-count
// aggregation (requirement 4's "count the same patient once per group") is
// a population count on the closure bitmap.
//
// An Engine is safe for concurrent use: an RWMutex separates the writers
// (index construction, closure memoization, AppendFact, column builds)
// from the readers (every aggregation path), so concurrent queries share
// the lock instead of serializing. Query paths first materialize any
// missing closure bitmaps under the write lock (ensureClosures), then
// aggregate under the read lock over the shared memoized bitmaps; bitmaps
// returned by exported methods are defensive copies, so a caller holding
// a bitmap never races with a concurrent AppendFact.
type Engine struct {
	mo    *core.MO
	ctx   dimension.Context
	mu    sync.RWMutex // guards facts, idx, dims (direct + closure bitmaps), cols, argCols
	facts []string
	idx   map[string]int
	dims  map[string]*dimIndex
	// cols holds the built characterization columns, keyed by
	// (dimension, category); see column.go.
	cols map[string]*column
	// argCols memoizes, per argument dimension, the measure column: dense
	// fact index → the fact's admitted numeric values. Computed once,
	// maintained by AppendFact, shared by every SUM path.
	argCols map[string][][]float64
	// colMin overrides DefaultColumnMinValues when positive: the minimum
	// category cardinality at which a built column is preferred over the
	// per-value bitmap scans.
	colMin int
	// epoch is the engine's mutation epoch (see epoch.go): a fresh
	// process-unique value at build time and after every AppendFact.
	// Atomic so Epoch() never takes the engine lock.
	epoch atomic.Uint64
	// windows journals (epoch, fact count) pairs so delta maintenance can
	// resolve "what was appended since epoch E" (see epoch.go); guarded
	// by mu, appended by bumpEpoch.
	windows []epochWindow
	// view is set on a context view of another engine, views memoizes this
	// engine's own; see views.go.
	view  *view
	views viewTable
}

// dimIndex is one dimension's bitmaps. A base engine holds the direct
// pairs and memoizes closures on demand. A view holds no direct bitmaps:
// its closure map is complete from the start (indexViewDim) and prob lists,
// per value, the membership probabilities that are not 1, sorted by fact.
type dimIndex struct {
	direct  map[string]*Bitmap
	closure map[string]*Bitmap
	prob    map[string][]factProb
}

// ErrUnknownFact reports a fact–dimension pair whose fact identity is not
// in the MO's fact set. Before this validation existed, such a pair was
// silently attributed to dense index 0, corrupting the first fact's
// bitmaps.
var ErrUnknownFact = errors.New("storage: fact-dimension pair references unknown fact")

// UnknownFactError carries the offending pair; errors.Is(err,
// ErrUnknownFact) holds.
type UnknownFactError struct {
	Dim     string
	FactID  string
	ValueID string
}

// Error implements error.
func (e *UnknownFactError) Error() string {
	return fmt.Sprintf("storage: dimension %q relates unknown fact %q to value %q", e.Dim, e.FactID, e.ValueID)
}

// Is reports target == ErrUnknownFact.
func (e *UnknownFactError) Is(target error) bool { return target == ErrUnknownFact }

// BuildEngine builds the indexes for an MO under the given evaluation
// context (time instants and probability thresholds are baked in). It is
// the cancellation-aware, validating constructor: the pair scan checks
// ctx cooperatively, every fact–dimension pair must reference a known
// fact identity (returning an UnknownFactError otherwise), and the
// faultinject.EngineBuild point is honored for robustness tests. The scan
// charges no fact budget: the engine is a shared, memoized index, not the
// scan of the query whose context happens to trigger its build.
func BuildEngine(ctx context.Context, m *core.MO, ectx dimension.Context) (*Engine, error) {
	if err := faultinject.Check(faultinject.EngineBuild); err != nil {
		return nil, fmt.Errorf("storage: engine build: %w", err)
	}
	g := qos.NewGuard(ctx)
	if err := g.CheckNow(); err != nil {
		return nil, fmt.Errorf("storage: engine build: %w", err)
	}
	e := &Engine{
		mo:    m,
		ctx:   ectx,
		facts: m.Facts().IDs(),
		idx:   map[string]int{},
		dims:  map[string]*dimIndex{},
	}
	for i, f := range e.facts {
		e.idx[f] = i
	}
	n := len(e.facts)
	for _, name := range m.Schema().DimensionNames() {
		di := &dimIndex{direct: map[string]*Bitmap{}, closure: map[string]*Bitmap{}}
		r := m.Relation(name)
		for _, p := range r.Pairs() {
			if err := g.Check(); err != nil {
				return nil, fmt.Errorf("storage: engine build: %w", err)
			}
			i, known := e.idx[p.FactID]
			if !known {
				return nil, &UnknownFactError{Dim: name, FactID: p.FactID, ValueID: p.ValueID}
			}
			if !ectx.Admits(p.Annot) {
				continue
			}
			bm, ok := di.direct[p.ValueID]
			if !ok {
				bm = NewBitmap(n)
				di.direct[p.ValueID] = bm
			}
			bm.Set(i)
		}
		e.dims[name] = di
	}
	e.bumpEpoch()
	mEngineBuilds.Inc()
	return e, nil
}

// NewEngine is BuildEngine without cancellation, for embedded datasets and
// tests whose MOs are valid by construction; it panics on the validation
// errors BuildEngine reports (a programmer-error invariant at this call
// site — serving paths use BuildEngine and handle the error).
func NewEngine(m *core.MO, ectx dimension.Context) *Engine {
	e, err := BuildEngine(context.Background(), m, ectx)
	if err != nil {
		panic(err)
	}
	return e
}

// NumFacts returns the number of indexed facts.
func (e *Engine) NumFacts() int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return len(e.facts)
}

// FactID returns the fact identity of a dense index.
func (e *Engine) FactID(i int) string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.facts[i]
}

// Characterizing returns the bitmap of facts with f ⤳ value in the named
// dimension: the direct bitmap unioned with the closures of all direct
// children (memoized; the dimension order is a DAG, so the recursion
// terminates). The returned bitmap is a copy owned by the caller.
func (e *Engine) Characterizing(dim, value string) *Bitmap {
	bm, _ := e.characterizingClone(nil, dim, value) // nil guard: cannot fail
	return bm
}

// CharacterizingContext is Characterizing with cooperative cancellation
// and the faultinject.ClosureExpand robustness hook.
func (e *Engine) CharacterizingContext(ctx context.Context, dim, value string) (*Bitmap, error) {
	if err := faultinject.Check(faultinject.ClosureExpand); err != nil {
		return nil, fmt.Errorf("storage: closure expand: %w", err)
	}
	return e.characterizingClone(qos.NewGuard(ctx), dim, value)
}

// characterizingClone materializes one closure bitmap (write-locking only
// on a cold miss) and returns a caller-owned clone taken under the read
// lock.
func (e *Engine) characterizingClone(g *qos.Guard, dim, value string) (*Bitmap, error) {
	if err := e.ensureClosures(g, dim, []string{value}); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if di := e.dims[dim]; di != nil {
		if bm := di.closure[value]; bm != nil {
			bm = bm.Clone()
			// Under a threshold a fact is characterized by the value only
			// when the whole witness — pair times path — reaches it
			// (core.MO.CharacterizedBy); the closure, like the algebra's
			// grouping, asks that of the pair and of the path separately.
			for _, fp := range di.prob[value] {
				if fp.p < e.ctx.MinProb || fp.p <= 0 {
					bm.Clear(fp.fact)
				}
			}
			return bm, nil
		}
	}
	return NewBitmap(len(e.facts)), nil
}

// ensureClosures materializes the closure bitmaps of the given values so
// the aggregation paths can run entirely under the read lock. The common
// case — every closure already memoized — takes only an RLock; a cold
// miss upgrades to the write lock and computes every missing closure.
// Nothing evicts memoized closures, so after this returns nil the read
// paths can rely on di.closure[v] being present for every v — on a context
// view, for every v that characterizes a fact: its index is built whole.
func (e *Engine) ensureClosures(g *qos.Guard, dim string, vals []string) error {
	if e.view != nil {
		return e.ensureViewIndex(g, dim) // complete once built: nothing to expand per value
	}
	e.mu.RLock()
	di := e.dims[dim]
	missing := false
	if di != nil {
		for _, v := range vals {
			if _, ok := di.closure[v]; !ok {
				missing = true
				break
			}
		}
	}
	e.mu.RUnlock()
	if di == nil || !missing {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, v := range vals {
		if _, ok := di.closure[v]; ok {
			continue
		}
		if _, err := e.closure(g, dim, di, v, map[string]bool{}); err != nil {
			return err
		}
	}
	return nil
}

// closure resolves and memoizes one closure bitmap; the caller holds the
// write lock (memoization mutates di.closure). The returned bitmap is the
// shared memoized instance.
func (e *Engine) closure(g *qos.Guard, dim string, di *dimIndex, value string, onPath map[string]bool) (*Bitmap, error) {
	if bm, ok := di.closure[value]; ok {
		return bm, nil
	}
	if err := g.Check(); err != nil {
		return nil, fmt.Errorf("storage: closure expand: %w", err)
	}
	if onPath[value] {
		// Defensive: the dimension order is acyclic by construction.
		return NewBitmap(len(e.facts)), nil
	}
	onPath[value] = true
	bm := NewBitmap(len(e.facts))
	if d := di.direct[value]; d != nil {
		bm.Or(d)
	}
	d := e.Dimension(dim)
	if value == dimension.TopValue {
		// ⊤ logically contains every value: union every direct bitmap.
		for _, dbm := range di.direct {
			bm.Or(dbm)
		}
	} else {
		for _, child := range d.Children(value) {
			a, _ := d.EdgeAnnot(child, value)
			if !e.ctx.Admits(a) {
				continue
			}
			cbm, err := e.closure(g, dim, di, child, onPath)
			if err != nil {
				return nil, err
			}
			bm.Or(cbm)
		}
	}
	delete(onPath, value)
	di.closure[value] = bm
	mClosureExpansions.Inc()
	return bm, nil
}

// CountDistinctBy returns, for every value of the category, the number of
// distinct facts characterized by it — the bitmap-index fast path of
// Example 12's set-count.
func (e *Engine) CountDistinctBy(dim, cat string) map[string]int {
	out, _ := e.CountDistinctByContext(context.Background(), dim, cat) // background ctx: cannot fail
	return out
}

// CountDistinctByContext is CountDistinctBy with cooperative cancellation
// and fact-budget accounting: one count-only kernel scan (kernel.go picks
// the column or the bitmap strategy), then the budget replay. The result
// and the budget charged are identical across strategies.
func (e *Engine) CountDistinctByContext(ctx context.Context, dim, cat string) (map[string]int, error) {
	vals, m, err := e.scanOne(ctx, dim, cat, SharedScanMember{}, 0, math.MaxInt)
	if err != nil {
		return nil, err
	}
	if err := ChargeLeg(qos.NewGuard(ctx), "count-distinct", dim, cat, m.Counts); err != nil {
		return nil, err
	}
	out := make(map[string]int, len(vals))
	for j, v := range vals {
		if m.Counts[j] > 0 {
			out[v] = int(m.Counts[j])
		}
	}
	return out, nil
}

// CountDistinctScan is the index-free comparator: it answers the same
// query by testing f ⤳ e for every (fact, value) pair through the model
// layer. Benchmarks contrast it with CountDistinctBy. It reads the base
// model, so it is a comparator for base engines, not for context views.
func (e *Engine) CountDistinctScan(dim, cat string) map[string]int {
	d := e.Dimension(dim)
	if d == nil {
		return map[string]int{}
	}
	e.mu.RLock()
	facts := append([]string(nil), e.facts...)
	e.mu.RUnlock()
	out := map[string]int{}
	for _, v := range d.CategoryAt(cat, e.ctx) {
		c := 0
		for _, f := range facts {
			if ok, _ := e.mo.CharacterizedBy(dim, f, v, e.ctx); ok {
				c++
			}
		}
		if c > 0 {
			out[v] = c
		}
	}
	return out
}

// SumBy computes SUM of the argument dimension's values per category value
// of the grouping dimension, using the closure bitmaps. Facts with several
// argument values contribute all of them.
func (e *Engine) SumBy(dim, cat, argDim string) map[string]float64 {
	out, _ := e.SumByContext(context.Background(), dim, cat, argDim) // background ctx: cannot fail
	return out
}

// SumByContext is SumBy with cooperative cancellation: one accumulator
// kernel scan, then the budget replay. Every sum is the left fold in
// ascending fact order.
func (e *Engine) SumByContext(ctx context.Context, dim, cat, argDim string) (map[string]float64, error) {
	vals, m, err := e.scanOne(ctx, dim, cat, SharedScanMember{ArgDim: argDim}, 0, math.MaxInt)
	if err != nil {
		return nil, err
	}
	if err := ChargeLeg(qos.NewGuard(ctx), "sum", dim, cat, m.Counts); err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(vals))
	for j, f := range m.Folds {
		// A value appears only when a fact contributed an argument value.
		if f.N > 0 {
			out[vals[j]] = f.Sum
		}
	}
	return out, nil
}

// ensureArgValues memoizes the measure column of argDim so the SUM paths
// read a prebuilt dense array instead of re-walking the fact–dimension
// relation per query. Like closure memoization this is infrastructure
// work: computed once under the write lock, extended by AppendFact, and
// charged to no query's fact budget. The caller must not hold e.mu; the
// column is then read from e.argCols under the read lock, so it stays
// consistent with the closure bitmaps and characterization columns
// captured in the same critical section.
func (e *Engine) ensureArgValues(argDim string) {
	e.mu.RLock()
	_, ok := e.argCols[argDim]
	e.mu.RUnlock()
	if ok {
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.argCols[argDim]; ok {
		return
	}
	if e.argCols == nil {
		e.argCols = map[string][][]float64{}
	}
	e.argCols[argDim] = e.argValues(argDim)
}

// argValues computes, per dense fact index, the numeric values of the
// fact in the argument dimension — the memoization cold path of
// ensureArgValues. The caller holds e.mu (read or write).
func (e *Engine) argValues(argDim string) [][]float64 {
	d := e.Dimension(argDim)
	r := e.mo.Relation(argDim)
	out := make([][]float64, len(e.facts))
	defer e.lockRelations()()
	for i, f := range e.facts {
		for _, v := range r.ValuesOf(f) {
			a, _ := r.Annot(f, v)
			if !e.admits(d, v, a) {
				continue
			}
			if x, ok := d.Numeric(v, e.ctx); ok {
				out[i] = append(out[i], x)
			}
		}
	}
	return out
}

// Values returns the sorted values of a category that characterize at
// least one fact.
func (e *Engine) Values(dim, cat string) []string {
	d := e.Dimension(dim)
	if d == nil {
		return nil
	}
	vals := e.categoryValues(d, cat)
	_ = e.ensureClosures(nil, dim, vals) // nil guard: cannot fail
	e.mu.RLock()
	defer e.mu.RUnlock()
	di := e.dims[dim]
	var out []string
	for _, v := range vals {
		if di == nil {
			break
		}
		if bm := di.closure[v]; bm != nil && !bm.IsEmpty() {
			out = append(out, v)
		}
	}
	sort.Strings(out)
	return out
}

// MO returns the engine's underlying MO.
func (e *Engine) MO() *core.MO { return e.mo }

// Context returns the evaluation context to pass to dimension-level calls
// on the engine's dimensions (Engine.Dimension): the context the engine was
// built under or, for a view, what remains of its context once the
// dimensions are sliced — the reference chronon and the probability
// threshold. Answers is the whole context.
func (e *Engine) Context() dimension.Context { return e.ctx }

// String summarizes the engine.
func (e *Engine) String() string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return fmt.Sprintf("storage.Engine{%d facts, %d dimensions}", len(e.facts), len(e.dims))
}
