package serve

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"mddm/internal/cache"
	"mddm/internal/obs"
	"mddm/internal/plan"
	"mddm/internal/query"
)

// This file wires the versioned query-result cache (internal/cache) into
// the server. The freshness identity of a cached result is a
// cache.Version: the catalog registration generation of the MO the query
// addresses (Catalog.Gen) paired with the serving engine's mutation
// epoch (storage.Engine.Epoch). Re-registering an MO moves the
// generation; appending a fact through the sanctioned flow — mutate the
// registered MO (core.MO.Relate et al.), then AppendFact on the engine
// from EngineFor — moves the epoch. Either way every entry filled before
// the write fails its next lookup: invalidation is version comparison at
// lookup, never an eager purge.
//
// The no-stale-serve argument is an ordering discipline, not a lock: the
// version is captured BEFORE the result is computed, so a write landing
// mid-computation leaves the (possibly already-fresh) result stored
// under the pre-write version, which no post-write lookup accepts.
// Entries can be over-fresh and die young; they are never stale.
//
// A version mismatch caused only by appended facts is repaired instead of
// recomputed (delta maintenance): the entry carries the query's mergeable
// partials and a delta fold over just the appended range makes it current
// again (delta.go). Over-fresh entries are the one thing that must NOT
// carry partials — the fill below attaches them only when the version did
// not move during computation.

// ResultCacheEnabled reports whether the server was built with a result
// cache (Limits.ResultCacheBytes > 0).
func (s *Server) ResultCacheEnabled() bool { return s.results != nil }

// ResultCacheStats snapshots the result cache's counters (zero value
// when the cache is disabled). For tests and debugging; the aggregate
// mddm_cache_* metrics are on /metrics.
func (s *Server) ResultCacheStats() cache.Stats {
	if s.results == nil {
		return cache.Stats{}
	}
	return s.results.Stats()
}

// resultVersion snapshots the named MO's freshness identity. Epoch is 0
// until an engine exists; the first EngineFor then moves the version,
// costing one spurious refill — engine construction changes no data — but
// never a stale hit (ServeQuery builds first to avoid even that).
func (s *Server) resultVersion(name string) cache.Version {
	v := cache.Version{Gen: s.cat.Gen(name)}
	s.mu.Lock()
	e := s.engines[name]
	s.mu.Unlock()
	if e != nil {
		e.mu.Lock()
		if e.last != nil {
			v.Epoch = e.last.Epoch()
		}
		e.mu.Unlock()
	}
	return v
}

// QueryOutcome reports how a ServeQuery answer was produced.
type QueryOutcome struct {
	// CacheHit: answered from a current-version result-cache entry
	// (including an entry made current by a delta upgrade — see Upgraded).
	CacheHit bool
	// Upgraded: the entry was version-stale but carried mergeable
	// partials, and the answer was produced by folding only the facts
	// appended since the entry's version and merging (delta maintenance).
	// CacheHit is also set: the result is fresh and served from
	// cache-resident state, not recomputed.
	Upgraded bool
	// DegradedStale: the query was shed by admission control and
	// answered from a version-stale cache entry within the
	// Limits.StaleOnShed bound instead of failing with ErrOverloaded.
	DegradedStale bool
	// StaleAge is the served entry's age when DegradedStale is set.
	StaleAge time.Duration
}

// ServeQuery is the serving pipeline — key → version → cache get → delta
// upgrade → single-flight{Query} — and the one entry point in front of
// Query: a lookup keyed by the canonical form of src and validated against
// the MO's current version, falling through to Query on a miss with the
// fill single-flighted per (key, version) so a thundering herd of
// identical misses computes once. The returned Result is shared with other
// cache readers — treat it as immutable.
//
// A hit charges no fact budget, no timeout, and no admission ticket: the
// pinned policy (docs/SERVING.md, TestCacheHitBudgetPolicy) is that the
// computation the hit replaces already paid for itself once, and
// answering from memory is cheaper than queueing for permission to — so
// cache hits stay fast even when the server is shedding. When the cache
// is disabled this is exactly Query.
//
// When Limits.StaleOnShed is positive, a miss shed by admission control
// degrades instead of failing: if a version-stale entry for the same key
// exists and is no older than the bound, it is served with a warning
// appended (and QueryOutcome.DegradedStale set) — a bounded-staleness
// answer beats a 429 for dashboards that would rather be a little behind
// than blank. The stale entry is never promoted to fresh.
func (s *Server) ServeQuery(ctx context.Context, src string) (*query.Result, QueryOutcome, error) {
	if s.results == nil {
		res, err := s.Query(ctx, src)
		return res, QueryOutcome{}, err
	}
	key, mo, kerr := cache.QueryKey(src)
	if kerr != nil {
		// Unkeyable means unparseable; let the uncached path produce its
		// canonical parse error (and its error metrics).
		res, err := s.Query(ctx, src)
		return res, QueryOutcome{}, err
	}
	ver := s.resultVersion(mo)
	if ver.Epoch == 0 {
		// Cold start: no engine yet, so the version lacks its epoch half. A
		// fill now would build the engine mid-computation, move the version,
		// and store a doomed entry (and the over-fresh guard would rightly
		// withhold its partials). Build the engine first — the fill pays
		// that cost anyway — and re-read the version so the first fill is
		// cacheable and upgradeable. An unknown MO or a failed build falls
		// through to Query, which reports it as the query's error.
		if _, err := s.EngineFor(ctx, mo); err == nil {
			ver = s.resultVersion(mo)
		}
	}
	if v, ok := s.results.Get(key, ver); ok {
		s.queries.Add(1)
		mQueries.Inc()
		obs.TraceFrom(ctx).SetAttr("cache_hit", 1)
		return v.(*cachedResult).res, QueryOutcome{CacheHit: true}, nil
	}
	// Before recomputing, try to repair a retained upgradeable entry by
	// folding only the appended facts (delta.go). This runs ahead of the
	// single-flight and the degraded stale path: an entry a delta merge
	// can answer fresh must never be served degraded-stale instead.
	if res, out, err, handled := s.tryUpgrade(ctx, key, mo, ver); handled {
		return res, out, err
	}
	obs.TraceFrom(ctx).SetAttr("cache_hit", 0)
	v, err := s.flights.Do(flightKey(key, ver), func() (any, error) {
		fctx, cp := plan.WithCapture(ctx)
		res, err := s.Query(fctx, src)
		if err != nil {
			// Errors are not cached: transient failures (timeouts,
			// budgets, sheds) must not shadow a later healthy computation.
			return nil, err
		}
		entry := &cachedResult{res: res}
		if cp.Partials != nil && s.resultVersion(mo) == ver {
			// The partials are attached only when no write raced the
			// computation: an over-fresh result stored under the pre-write
			// version is harmless as a plain entry (it dies at its next
			// lookup) but poisonous as an upgradeable one — a later delta
			// fold would double-count the facts the race already included.
			entry.parts = cp.Partials
			s.results.PutUpgradeable(key, ver, entry, resultBytes(res)+partialsBytes(entry.parts))
			return entry, nil
		}
		s.results.Put(key, ver, entry, resultBytes(res))
		return entry, nil
	})
	if err != nil {
		// Query already converts execution panics to *InternalError, so a
		// *cache.PanicError here means the fill panicked outside that
		// recovery; fold it into the same class.
		var pe *cache.PanicError
		if errors.As(err, &pe) {
			s.panics.Add(1)
			mPanics.Inc()
			return nil, QueryOutcome{}, &InternalError{Query: src, Panic: pe.Val}
		}
		if errors.Is(err, ErrOverloaded) && s.limits.StaleOnShed > 0 {
			if res, out, ok := s.staleOnShed(ctx, key, ver); ok {
				return res, out, nil
			}
		}
		return nil, QueryOutcome{}, err
	}
	return v.(*cachedResult).res, QueryOutcome{}, nil
}

// staleOnShed is the degraded read for a shed query: a version-stale
// cache entry within the staleness bound, served with a warning.
func (s *Server) staleOnShed(ctx context.Context, key string, ver cache.Version) (*query.Result, QueryOutcome, bool) {
	v, age, _, ok := s.results.GetStale(key, ver)
	if !ok || age > s.limits.StaleOnShed {
		return nil, QueryOutcome{}, false
	}
	s.degradedServes.Add(1)
	mDegraded.Inc()
	obs.TraceFrom(ctx).SetAttr("degraded_stale", 1)
	// Shallow copy: the cached entry is shared and must not grow the
	// warning; rows and columns are immutable by the cache contract.
	cp := *v.(*cachedResult).res
	cp.Warnings = append(append([]string(nil), cp.Warnings...),
		fmt.Sprintf("degraded: served stale cached result (age %s) because the server shed this query under overload",
			age.Round(time.Millisecond)))
	return &cp, QueryOutcome{DegradedStale: true, StaleAge: age}, true
}

// flightKey scopes a fill to its version, so a write landing while a
// fill is in flight starts a fresh flight for post-write callers instead
// of handing them the pre-write leader's result.
func flightKey(key string, v cache.Version) string {
	var b [16]byte
	binary.BigEndian.PutUint64(b[:8], v.Gen)
	binary.BigEndian.PutUint64(b[8:], v.Epoch)
	return key + string(b[:])
}

// resultBytes estimates a Result's retained size for the cache's byte
// bound: string payloads plus per-header/per-row overhead. An estimate
// is enough — the bound exists to cap memory, not to account it exactly.
func resultBytes(res *query.Result) int64 {
	n := int64(96)
	for _, c := range res.Columns {
		n += int64(len(c)) + 16
	}
	for _, r := range res.Rows {
		n += 24
		for _, v := range r {
			n += int64(len(v)) + 16
		}
	}
	for _, w := range res.Reasons {
		n += int64(len(w)) + 16
	}
	for _, w := range res.Warnings {
		n += int64(len(w)) + 16
	}
	return n
}
