package serve

import (
	"context"
	"fmt"
	"unsafe"

	"mddm/internal/cache"
	"mddm/internal/obs"
	"mddm/internal/plan"
	"mddm/internal/qos"
	"mddm/internal/query"
)

// This file is the serving half of delta-merge incremental maintenance,
// which every result cache runs. A result-cache fill also captures the
// query's mergeable per-group partials (plan.Capture), and a later lookup
// that misses only because facts were appended — same catalog generation,
// an epoch gap the engine's journal can resolve — is answered by folding
// just the appended fact range and merging into the cached partials
// (plan.UpgradeResult), instead of recomputing from scratch. The repaired entry is swapped in under the
// current version (cache.Upgrade), so sustained appends keep the entry
// warm. An upgrade never rescans history: it is a range scan of the
// appended facts, an O(delta + groups) merge into a copy of the cached
// value-sorted partials, and an O(groups) typed finish — HAVING, then a
// top-k for ORDER BY … LIMIT — that formats only the rows it keeps.
//
// Soundness leans on three invariants established below the serving
// layer: AppendFact only adds facts at new dense indices (storage), the
// epoch journal resolves exactly the appended range for a known epoch
// (storage/epoch.go), and partial states continue a fold bit-for-bit
// when fed the delta in ascending dense-index order (plan/delta.go).
// When any leg is missing — the entry carries no partials, the catalog
// generation moved, the epoch fell out of the journal, the engine is
// unavailable, or the fold itself fails — the upgrade falls back to the
// normal miss path and the fallback reason is counted, so the delta
// win is never silently inflated by recomputes.

// Delta-maintenance metrics; result-cache is the one layer.
var (
	mDeltaUpgrades = obs.NewCounter("mddm_delta_upgrades_total",
		"Cached results repaired in place by a delta merge instead of invalidated.",
		obs.Label{Key: "layer", Value: "result-cache"})
	mDeltaFolds = obs.NewCounter("mddm_delta_folds_total",
		"Delta folds run over appended fact ranges.",
		obs.Label{Key: "layer", Value: "result-cache"})

	deltaFallbackHelp        = "Delta-merge attempts that fell back to recomputation, by reason."
	mDeltaFallbackNoPartials = obs.NewCounter("mddm_delta_fallbacks_total", deltaFallbackHelp,
		obs.Label{Key: "layer", Value: "result-cache"}, obs.Label{Key: "reason", Value: "no-partials"})
	mDeltaFallbackGenMoved = obs.NewCounter("mddm_delta_fallbacks_total", deltaFallbackHelp,
		obs.Label{Key: "layer", Value: "result-cache"}, obs.Label{Key: "reason", Value: "gen-moved"})
	mDeltaFallbackWindow = obs.NewCounter("mddm_delta_fallbacks_total", deltaFallbackHelp,
		obs.Label{Key: "layer", Value: "result-cache"}, obs.Label{Key: "reason", Value: "window-unknown"})
	mDeltaFallbackEngine = obs.NewCounter("mddm_delta_fallbacks_total", deltaFallbackHelp,
		obs.Label{Key: "layer", Value: "result-cache"}, obs.Label{Key: "reason", Value: "engine-unavailable"})
	mDeltaFallbackFold = obs.NewCounter("mddm_delta_fallbacks_total", deltaFallbackHelp,
		obs.Label{Key: "layer", Value: "result-cache"}, obs.Label{Key: "reason", Value: "fold-error"})
)

// cachedResult is the result cache's entry value when the cache is
// enabled: the served result, its /query response body encoded once when
// the entry is made, and, for upgradeable entries, the mergeable partials
// that let a delta merge repair it. All three are shared across readers
// and immutable by the cache contract.
type cachedResult struct {
	res   *query.Result
	body  []byte
	parts *plan.Partials
}

// newCachedResult makes an entry for res, encoding its response body.
func newCachedResult(res *query.Result, parts *plan.Partials) *cachedResult {
	return &cachedResult{res: res, body: responseBody(res, nil, nil), parts: parts}
}

// bytes is the entry's accounted size for the cache's byte bound: the
// result, its body and its partials.
func (c *cachedResult) bytes() int64 {
	return resultBytes(c.res) + int64(len(c.body)) + partialsBytes(c.parts)
}

// tryUpgrade attempts to answer a missed lookup by delta-merging a
// retained upgradeable entry. handled=false means no upgrade applied and
// the caller should take the normal miss path; handled=true means the
// lookup was resolved here — either served (served non-nil) or failed with
// the same error a recompute would have produced (the row-limit check).
//
// Like a plain hit, an upgrade charges no admission ticket, timeout, or
// fact budget: the fold is maintenance work bounded by the append
// volume, already priced by the computation the entry replaces. Request
// cancellation is still honored through ctx.
func (s *Server) tryUpgrade(ctx context.Context, key, mo string, ver cache.Version) (served *cachedResult, out QueryOutcome, err error, handled bool) {
	v, oldVer, upgradeable, ok := s.results.GetForUpgrade(key)
	if !ok {
		return nil, QueryOutcome{}, nil, false // plain absence: nothing to repair
	}
	entry, _ := v.(*cachedResult)
	if oldVer == ver && entry != nil {
		// A concurrent fill made the entry fresh between our Get and this
		// inspection; serve it as the hit it is.
		s.queries.Add(1)
		mQueries.Inc()
		obs.TraceFrom(ctx).SetAttr("cache_hit", 1)
		return entry, QueryOutcome{CacheHit: true}, nil, true
	}
	if !upgradeable || entry == nil || entry.parts == nil {
		// A KeepStale-retained plain entry (or a foreign value): it was
		// never upgradeable, so this is the fallback the metrics must not
		// hide.
		mDeltaFallbackNoPartials.Inc()
		return nil, QueryOutcome{}, nil, false
	}
	if oldVer.Gen != ver.Gen {
		// The catalog entry was re-registered: the partials describe an MO
		// that is no longer the one being served. Terminal — demote so the
		// next Get drops the entry normally.
		mDeltaFallbackGenMoved.Inc()
		s.results.Demote(key, oldVer)
		return nil, QueryOutcome{}, nil, false
	}
	eng, eerr := s.EngineFor(ctx, mo)
	if eerr != nil {
		mDeltaFallbackEngine.Inc()
		return nil, QueryOutcome{}, nil, false
	}
	lo, hi, cur, ok := eng.DeltaRange(oldVer.Epoch)
	if !ok {
		// The entry's epoch is not in this engine's journal: it predates a
		// rebuild/restart or was trimmed. No sound delta exists — terminal.
		mDeltaFallbackWindow.Inc()
		s.results.Demote(key, oldVer)
		return nil, QueryOutcome{}, nil, false
	}
	merged, next, uerr := plan.UpgradeResult(ctx, eng, entry.parts, lo, hi, s.ref)
	if uerr != nil {
		// Transient (cancellation, a HAVING/ORDER re-validation error): do
		// not demote, a later attempt may succeed.
		mDeltaFallbackFold.Inc()
		return nil, QueryOutcome{}, nil, false
	}
	mDeltaFolds.Inc()
	if s.limits.MaxResultRows > 0 && len(merged.Rows) > s.limits.MaxResultRows {
		// Row-limit parity with the recompute path: the grown result is
		// rejected with the same error text Query would produce.
		mRowLimitRejections.Inc()
		return nil, QueryOutcome{}, fmt.Errorf("serve: result has %d rows, limit is %d: %w",
			len(merged.Rows), s.limits.MaxResultRows, qos.ErrResourceExhausted), true
	}
	newVer := cache.Version{Gen: ver.Gen, Epoch: cur}
	wrapped := newCachedResult(merged, next)
	s.results.Upgrade(key, oldVer, newVer, wrapped, wrapped.bytes())
	mDeltaUpgrades.Inc()
	s.queries.Add(1)
	mQueries.Inc()
	tr := obs.TraceFrom(ctx)
	tr.SetAttr("cache_hit", 1)
	tr.SetAttr("cache_upgraded", 1)
	return wrapped, QueryOutcome{CacheHit: true, Upgraded: true}, nil, true
}

// partialsBytes is the retained size of an entry's partials for the cache's
// byte bound, on top of resultBytes' row accounting: per group the
// value-typed partial, its value's header included, plus the value's bytes.
func partialsBytes(p *plan.Partials) int64 {
	if p == nil {
		return 0
	}
	n := int64(256) + int64(unsafe.Sizeof(plan.Group{}))*int64(len(p.Groups))
	for _, g := range p.Groups {
		n += int64(len(g.Value))
	}
	for _, r := range p.CoverReasons {
		n += int64(len(r)) + 16
	}
	return n
}
