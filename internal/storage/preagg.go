package storage

import (
	"context"
	"fmt"
	"strings"
	"sync"

	"mddm/internal/obs"
)

// Pre-aggregate reuse outcomes, the process-wide view of the per-cache
// Hits/Misses fields: "hit" is a guard-approved rollup, "miss" is a
// rollup that had to materialize its source first, and "fallback" is the
// summarizability guard rejecting reuse and forcing a base-cube recompute
// — the paper's §3.4 safety rule firing in production.
var (
	mPreaggHits = obs.NewCounter("mddm_storage_preagg_total",
		"Pre-aggregate reuse decisions by outcome.", obs.Label{Key: "outcome", Value: "hit"})
	mPreaggMisses = obs.NewCounter("mddm_storage_preagg_total",
		"Pre-aggregate reuse decisions by outcome.", obs.Label{Key: "outcome", Value: "miss"})
	mPreaggFallbacks = obs.NewCounter("mddm_storage_preagg_total",
		"Pre-aggregate reuse decisions by outcome.", obs.Label{Key: "outcome", Value: "fallback"})
)

// This file implements the summarizability-guarded pre-aggregate cache:
// the flexible reuse of pre-computed aggregates that §3.4 identifies as the
// payoff of summarizability. A materialized lower-level result is combined
// into a higher-level result only when the guard holds (distributive
// function, strict mapping, covering rollup between the two categories);
// otherwise the engine recomputes from the base bitmaps — by Lenz &
// Shoshani, combining would double-count or drop data.

// AggKind is the cached aggregate's function (the distributive subset that
// pre-aggregation supports).
type AggKind string

// Cacheable aggregate kinds.
const (
	KindCount AggKind = "COUNT" // distinct facts per value
	KindSum   AggKind = "SUM"   // sum of an argument dimension per value
)

// Materialization is one cached aggregate: fn per value of (dim, cat).
type Materialization struct {
	Dim  string
	Cat  string
	Kind AggKind
	Arg  string // argument dimension for SUM
	Rows map[string]float64
}

// Cache holds materializations keyed by (dim, cat, kind, arg). It is
// safe for concurrent use; the underlying engine carries its own lock
// (lock order: Cache.mu, then the engine's — never the reverse).
type Cache struct {
	engine *Engine
	mu     sync.Mutex // guards mats, guards, epoch, Hits, Misses
	mats   map[string]*Materialization
	guards map[string]error // memoized ReuseGuard verdicts
	// epoch is the engine epoch every cached materialization (and guard
	// verdict) reflects; refresh drops them all when it lags.
	epoch uint64
	// Hits and Misses count reuse outcomes. For observability and tests —
	// read them only after concurrent work has quiesced.
	Hits, Misses int
}

// NewCache creates an empty pre-aggregate cache over an engine.
func NewCache(e *Engine) *Cache {
	return &Cache{engine: e, mats: map[string]*Materialization{}, guards: map[string]error{}, epoch: e.Epoch()}
}

func key(dim, cat string, kind AggKind, arg string) string {
	return strings.Join([]string{dim, cat, string(kind), arg}, "\x00")
}

// Materialize computes and caches the aggregate at (dim, cat).
func (c *Cache) Materialize(dim, cat string, kind AggKind, arg string) (*Materialization, error) {
	return c.MaterializeContext(context.Background(), dim, cat, kind, arg)
}

// MaterializeContext is Materialize with cooperative cancellation.
func (c *Cache) MaterializeContext(ctx context.Context, dim, cat string, kind AggKind, arg string) (*Materialization, error) {
	c.refresh()
	e0, _ := c.engine.EpochFacts()
	rows, err := c.computeBaseContext(ctx, dim, cat, kind, arg)
	if err != nil {
		return nil, err
	}
	m := &Materialization{Dim: dim, Cat: cat, Kind: kind, Arg: arg, Rows: rows}
	c.mu.Lock()
	// Store only when no append raced the compute (the rows would cover
	// facts beyond the cache's epoch). The caller still gets the answer;
	// the cache just skips an entry it could not tag coherently.
	if post, _ := c.engine.EpochFacts(); post == e0 && c.epoch == e0 {
		c.mats[key(dim, cat, kind, arg)] = m
	}
	c.mu.Unlock()
	return m, nil
}

// Lookup returns the cached materialization, if any. It does not
// refresh: callers outside the MaterializeContext/RollupFromContext entry
// points see the rows as of the cache's last refresh epoch.
func (c *Cache) Lookup(dim, cat string, kind AggKind, arg string) (*Materialization, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.mats[key(dim, cat, kind, arg)]
	return m, ok
}

// refresh invalidates on an epoch move: when the engine has taken appends
// since the cache's epoch, every materialization and every memoized guard
// verdict is dropped — an appended fact changes the rows and can flip the
// fact-level disjointness and coverage checks, so both must be re-derived
// from the new fact population.
func (c *Cache) refresh() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if cur := c.engine.Epoch(); cur != c.epoch {
		c.mats = map[string]*Materialization{}
		c.guards = map[string]error{}
		c.epoch = cur
	}
}

// ReuseGuard checks whether a materialization at fromCat may be combined
// into results at toCat: toCat must be strictly above fromCat in the
// dimension's category order, the value mapping fromCat → toCat must be
// strict (no value of fromCat under two values of toCat — combining would
// double-count), and every contributing value must roll up (covering — a
// gap would silently drop facts). Beyond the value-level checks, the fact
// sets behind fromCat must be pairwise disjoint and must cover every fact
// visible at toCat — see the inline comments for the Table 1 scenarios
// that make both fact-level checks necessary.
func (c *Cache) ReuseGuard(dim, fromCat, toCat string, kind AggKind) error {
	d := c.engine.Dimension(dim)
	dt := d.Type()
	if !dt.LessEq(fromCat, toCat) || fromCat == toCat {
		return fmt.Errorf("storage: %q is not above %q in dimension %s", toCat, fromCat, dim)
	}
	ctx := c.engine.ctx
	if !d.IsStrictBetween(fromCat, toCat, ctx) {
		return fmt.Errorf("storage: mapping %s→%s is non-strict; combining would double-count", fromCat, toCat)
	}
	if !c.engine.Covering(dim, fromCat, toCat) {
		return fmt.Errorf("storage: mapping %s→%s has gaps; combining would drop facts", fromCat, toCat)
	}
	// Value-level strictness and covering do not see how facts attach to
	// the hierarchy. Two fact-level holes matter, and both occur in the
	// paper's Table 1:
	//
	//   - many-to-many relations: a fact under two values of fromCat
	//     (patient 2 lived in two counties) appears once per value in the
	//     materialization but once in a direct computation at toCat —
	//     combining would double-count it, for SUM as well as for COUNT.
	//     Disjointness is checked as Σ|B_v| = |∪B_v| over fromCat's
	//     closure bitmaps.
	//
	//   - mixed granularity: a fact related directly to a value above
	//     fromCat (diagnosis 9, a Family, attaches straight to both
	//     patients) never enters a materialization at fromCat — combining
	//     would silently drop it. Coverage is checked as
	//     ∪B_v(toCat) ⊆ ∪B_v(fromCat).
	fromUnion := NewBitmap(c.engine.NumFacts())
	total := 0
	for _, v := range d.CategoryAt(fromCat, ctx) {
		bm := c.engine.Characterizing(dim, v)
		total += bm.Count()
		fromUnion.Or(bm)
	}
	if shared := total - fromUnion.Count(); shared > 0 {
		return fmt.Errorf("storage: %d fact characterization(s) shared between values of %s (many-to-many relation); combining would double-count", shared, fromCat)
	}
	for _, v := range d.CategoryAt(toCat, ctx) {
		if missing := c.engine.Characterizing(dim, v).AndNot(fromUnion); !missing.IsEmpty() {
			return fmt.Errorf("storage: %d fact(s) characterized by %s of %s do not roll up from %s (mixed-granularity attachment); combining would drop them",
				missing.Count(), v, toCat, fromCat)
		}
	}
	return nil
}

// guardCached memoizes ReuseGuard per (dim, fromCat, toCat, kind): a
// verdict is stable between mutations, so a production system validates
// it once per epoch, not per query. The memo is dropped wholesale by
// refresh on every epoch move — an appended fact can flip the
// fact-level disjointness/coverage checks in either direction.
func (c *Cache) guardCached(dim, fromCat, toCat string, kind AggKind) error {
	k := strings.Join([]string{dim, fromCat, toCat, string(kind)}, "\x00")
	c.mu.Lock()
	if err, ok := c.guards[k]; ok {
		c.mu.Unlock()
		return err
	}
	c.mu.Unlock()
	// Compute outside the lock: ReuseGuard walks the engine, which takes
	// its own lock. Two racers may both compute; the verdict is
	// deterministic, so the duplicate write is harmless.
	err := c.ReuseGuard(dim, fromCat, toCat, kind)
	c.mu.Lock()
	c.guards[k] = err
	c.mu.Unlock()
	return err
}

// RollupFrom combines a cached materialization at fromCat into the
// aggregate at toCat, after checking the (memoized) reuse guard. On guard
// failure it recomputes from base data (and reports the fallback through
// Misses).
func (c *Cache) RollupFrom(dim, fromCat, toCat string, kind AggKind, arg string) (map[string]float64, error) {
	return c.RollupFromContext(context.Background(), dim, fromCat, toCat, kind, arg)
}

// RollupFromContext is RollupFrom with cooperative cancellation.
func (c *Cache) RollupFromContext(ctx context.Context, dim, fromCat, toCat string, kind AggKind, arg string) (map[string]float64, error) {
	c.refresh()
	m, ok := c.Lookup(dim, fromCat, kind, arg)
	if !ok {
		mPreaggMisses.Inc()
		var err error
		m, err = c.MaterializeContext(ctx, dim, fromCat, kind, arg)
		if err != nil {
			return nil, err
		}
	}
	if err := c.guardCached(dim, fromCat, toCat, kind); err != nil {
		c.mu.Lock()
		c.Misses++
		c.mu.Unlock()
		mPreaggFallbacks.Inc()
		return c.computeBaseContext(ctx, dim, toCat, kind, arg)
	}
	c.mu.Lock()
	c.Hits++
	c.mu.Unlock()
	mPreaggHits.Inc()
	d := c.engine.Dimension(dim)
	out := map[string]float64{}
	for v1, x := range m.Rows {
		for _, v2 := range d.AncestorsIn(toCat, v1, c.engine.Context()) {
			out[v2] += x
		}
	}
	return out, nil
}

// computeBaseContext answers at toCat directly from the bitmap indexes.
func (c *Cache) computeBaseContext(ctx context.Context, dim, toCat string, kind AggKind, arg string) (map[string]float64, error) {
	// Route through the kernel path: build the characterization column when
	// the cost heuristic would select it, so repeated base recomputes (the
	// guard-fallback case) run the single-pass kernel instead of per-value
	// bitmap scans. EnsureColumn is a no-op below the threshold.
	if err := c.engine.EnsureColumn(ctx, dim, toCat); err != nil {
		return nil, err
	}
	switch kind {
	case KindCount:
		counts, err := c.engine.CountDistinctByContext(ctx, dim, toCat)
		if err != nil {
			return nil, err
		}
		out := make(map[string]float64, len(counts))
		for v, n := range counts {
			out[v] = float64(n)
		}
		return out, nil
	case KindSum:
		if arg == "" {
			return nil, fmt.Errorf("storage: SUM materialization needs an argument dimension")
		}
		return c.engine.SumByContext(ctx, dim, toCat, arg)
	default:
		return nil, fmt.Errorf("storage: unsupported aggregate kind %q", kind)
	}
}
