package serve

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"sync/atomic"
	"time"

	"mddm/internal/obs"
	"mddm/internal/qos"
)

// Serving-layer metrics: the process-wide, scrapeable view of the same
// events the Server's Stats counters report. Everything records at query
// granularity; the per-operator detail lives in the layers below (see
// docs/OBSERVABILITY.md for the full inventory).
var (
	mQueries = obs.NewCounter("mddm_serve_queries_total",
		"Queries received by the serving layer.")
	mActive = obs.NewGauge("mddm_serve_active_queries",
		"Queries currently executing.")
	mQuerySeconds = obs.NewHistogram("mddm_serve_query_seconds",
		"End-to-end query latency as seen by the serving layer.", obs.DurationBuckets)
	mPanics = obs.NewCounter("mddm_serve_panics_total",
		"Panics recovered into internal errors by the serving layer.")
	mRowLimitRejections = obs.NewCounter("mddm_serve_row_limit_rejections_total",
		"Results rejected because they exceeded MaxResultRows.")

	errKindHelp    = "Query failures by kind."
	mErrCanceled   = obs.NewCounter("mddm_serve_query_errors_total", errKindHelp, obs.Label{Key: "kind", Value: "canceled"})
	mErrExhausted  = obs.NewCounter("mddm_serve_query_errors_total", errKindHelp, obs.Label{Key: "kind", Value: "exhausted"})
	mErrInternal   = obs.NewCounter("mddm_serve_query_errors_total", errKindHelp, obs.Label{Key: "kind", Value: "internal"})
	mErrBad        = obs.NewCounter("mddm_serve_query_errors_total", errKindHelp, obs.Label{Key: "kind", Value: "bad_request"})
	mErrOverloaded = obs.NewCounter("mddm_serve_query_errors_total", errKindHelp, obs.Label{Key: "kind", Value: "overloaded"})

	// mDegraded counts shed queries answered from a version-stale
	// result-cache entry instead of a 429 (Limits.StaleOnShed).
	mDegraded = obs.NewCounter("mddm_serve_degraded_total",
		"Queries answered degraded under overload, by mode.",
		obs.Label{Key: "mode", Value: "stale-on-shed"})

	cacheHelp     = "Engine-cache outcomes: snapshot reused or rebuild started."
	mCacheHit     = obs.NewCounter("mddm_serve_engine_cache_total", cacheHelp, obs.Label{Key: "outcome", Value: "hit"})
	mCacheRebuild = obs.NewCounter("mddm_serve_engine_cache_total", cacheHelp, obs.Label{Key: "outcome", Value: "rebuild"})

	// The counterpart of mddm_qos_budget_exhausted_total: total facts
	// charged against per-query budgets, accumulated once when each query
	// finishes (never inside the scan loops).
	mBudgetSpent = obs.NewCounter("mddm_qos_budget_spent_facts_total",
		"Facts charged against per-query scan budgets, accumulated at query end.")
)

// classifyError buckets a finished query's error into the
// mddm_serve_query_errors_total family; nil errors record nothing.
func classifyError(err error) {
	switch {
	case err == nil:
	case errors.Is(err, ErrOverloaded):
		mErrOverloaded.Inc()
	case errors.Is(err, ErrResourceExhausted):
		mErrExhausted.Inc()
	case errors.Is(err, ErrCanceled):
		mErrCanceled.Inc()
	case errors.Is(err, ErrInternal):
		mErrInternal.Inc()
	default:
		mErrBad.Inc()
	}
}

// activeQueryIDs hands out ids for the in-flight query registry. Distinct
// from trace ids: every query gets one, traced or not.
var activeQueryIDs atomic.Uint64

// activeQuery is one in-flight query as tracked for /debug/queries. The
// trace pointer is nil unless the caller opted into tracing (?trace=1) —
// untraced queries still show up, with just their text and elapsed time.
type activeQuery struct {
	id    uint64
	query string
	start time.Time
	trace *obs.Trace
}

// track registers an in-flight query; untrack removes it when done.
func (s *Server) track(src string, tr *obs.Trace) *activeQuery {
	aq := &activeQuery{id: activeQueryIDs.Add(1), query: src, start: time.Now(), trace: tr}
	s.activeMu.Lock()
	s.active[aq.id] = aq
	s.activeMu.Unlock()
	return aq
}

func (s *Server) untrack(aq *activeQuery) {
	s.activeMu.Lock()
	delete(s.active, aq.id)
	s.activeMu.Unlock()
}

// ActiveQuery is the wire form of one in-flight query.
type ActiveQuery struct {
	ID        uint64            `json:"id"`
	Query     string            `json:"query"`
	ElapsedNs int64             `json:"elapsed_ns"`
	Trace     *obs.TraceSummary `json:"trace,omitempty"`
}

// ActiveQueries snapshots the queries executing right now, oldest first.
// Traced queries include their in-flight trace summary (spans recorded so
// far, elapsed total).
func (s *Server) ActiveQueries() []ActiveQuery {
	s.activeMu.Lock()
	aqs := make([]*activeQuery, 0, len(s.active))
	for _, aq := range s.active {
		aqs = append(aqs, aq)
	}
	s.activeMu.Unlock()
	sort.Slice(aqs, func(i, j int) bool { return aqs[i].id < aqs[j].id })
	out := make([]ActiveQuery, len(aqs))
	for i, aq := range aqs {
		out[i] = ActiveQuery{
			ID:        aq.id,
			Query:     aq.query,
			ElapsedNs: time.Since(aq.start).Nanoseconds(),
			Trace:     aq.trace.Summary(),
		}
	}
	return out
}

// MetricsHandler serves the process-wide metric registry in the
// Prometheus text exposition format. It is not mounted by Handler —
// cmd/mdserve mounts it behind the -metrics flag, so the default serving
// surface stays unchanged.
func (s *Server) MetricsHandler() http.Handler {
	return obs.Default().Handler()
}

// ActiveQueriesHandler serves the in-flight query inspector as JSON.
// Like MetricsHandler, it is mounted only when cmd/mdserve's -metrics
// flag asks for the debug surface.
func (s *Server) ActiveQueriesHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet && r.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			writeError(w, http.StatusMethodNotAllowed, errors.New("serve: method not allowed on /debug/queries"))
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(struct {
			Queries []ActiveQuery `json:"queries"`
		}{Queries: s.ActiveQueries()})
	})
}

// finishQueryMetrics is the query-end bookkeeping run from Query's
// classification defer: latency, budget accounting, trace attributes, and
// error classification. It must run after the recover defer, so the err
// it classifies reflects panic conversion.
func (s *Server) finishQueryMetrics(ctx context.Context, aq *activeQuery, start time.Time, rows int, haveRes bool, err error) {
	s.untrack(aq)
	mActive.Add(-1)
	mQuerySeconds.Observe(time.Since(start))
	tr := obs.TraceFrom(ctx)
	if b := qos.BudgetFrom(ctx); b != nil {
		spent := b.Spent()
		mBudgetSpent.Add(spent)
		tr.SetAttr("budget_spent_facts", spent)
	}
	if haveRes {
		tr.SetAttr("rows", int64(rows))
	}
	classifyError(err)
}
