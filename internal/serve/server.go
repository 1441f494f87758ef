package serve

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mddm/internal/admission"
	"mddm/internal/batch"
	"mddm/internal/cache"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/obs"
	"mddm/internal/plan"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/segment"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// Server executes queries against a Catalog under resource limits, with
// panic isolation and a per-MO engine cache. It has two query methods:
// ServeQuery is the whole pipeline (result cache in front), Query its
// compute stage. It is safe for concurrent use.
type Server struct {
	cat    *Catalog
	limits Limits
	ref    temporal.Chronon // resolves NOW in queries and rollup contexts

	mu      sync.Mutex
	engines map[string]*engineEntry
	// stores maps MO names to their attached persistent stores (see
	// persist.go); appends route through them so they are durably logged
	// before touching serving state.
	stores map[string]*segment.Store

	activeMu sync.Mutex
	active   map[uint64]*activeQuery

	// results is the versioned query-result cache (nil when
	// Limits.ResultCacheBytes is zero); flights single-flights its misses
	// per (key, version). See results.go.
	results *cache.Cache
	flights cache.Flight

	// adm is the admission controller (nil when Limits.Admission is
	// zero): every Query holds one of its tickets for the duration of
	// execution. Result-cache hits bypass it.
	adm *admission.Controller

	// batcher is the shared-scan batch scheduler (nil unless
	// Limits.Batching.Enabled); see batch.go.
	batcher *batch.Scheduler

	queries        atomic.Int64
	panics         atomic.Int64
	rebuilds       atomic.Int64
	degradedServes atomic.Int64
}

// NewServer creates a server over the catalog. ref resolves NOW.
func NewServer(cat *Catalog, limits Limits, ref temporal.Chronon) *Server {
	s := &Server{cat: cat, limits: limits, ref: ref,
		engines: map[string]*engineEntry{}, active: map[uint64]*activeQuery{}}
	if limits.ResultCacheBytes > 0 {
		s.results = cache.New(limits.ResultCacheBytes)
		if limits.StaleOnShed > 0 {
			// Keep version-stale entries resident within the staleness
			// bound so the degraded read (staleOnShed) has something to
			// serve after a shed; without this, Get's lazy invalidation
			// would drop them at the very lookup that precedes the shed.
			s.results.KeepStale(limits.StaleOnShed)
		}
	}
	if limits.Admission.MaxConcurrency > 0 {
		s.adm = admission.New(limits.Admission)
	}
	if limits.Batching.Enabled {
		// The admission controller doubles as the scheduler's load signal
		// (nil adm: fixed window).
		var sig batch.Signals
		if s.adm != nil {
			sig = admissionSignals{s}
		}
		s.batcher = batch.New(limits.Batching, sig)
	}
	return s
}

// Stats is a snapshot of the server's counters.
type Stats struct {
	// Queries counts calls to Query.
	Queries int64
	// Panics counts panics converted to ErrInternal.
	Panics int64
	// Rebuilds counts engine build attempts (successful or not).
	Rebuilds int64
	// DegradedServes counts shed queries answered from a version-stale
	// result-cache entry under Limits.StaleOnShed.
	DegradedServes int64
}

// Stats returns the current counters.
func (s *Server) Stats() Stats {
	return Stats{
		Queries:        s.queries.Load(),
		Panics:         s.panics.Load(),
		Rebuilds:       s.rebuilds.Load(),
		DegradedServes: s.degradedServes.Load(),
	}
}

// admit passes one request through the admission controller (a no-op
// ticket when admission is disabled). Sheds come back as *OverloadError;
// a deadline that expired while queued comes back wrapped as ErrCanceled
// — the query never executed either way.
func (s *Server) admit(ctx context.Context) (*admission.Ticket, error) {
	if s.adm == nil {
		return nil, nil
	}
	tk, err := s.adm.Admit(ctx)
	if err != nil {
		if !errors.Is(err, ErrOverloaded) {
			err = fmt.Errorf("%w: %w", qos.ErrCanceled, err)
		}
		classifyError(err)
		return nil, err
	}
	return tk, nil
}

// Drain stops admitting queries: every later Query sheds with
// ReasonDraining (HTTP 503) and queued waiters fail fast. In-flight
// queries are unaffected; pair with http.Server.Shutdown to drain them.
// A server without admission control ignores Drain.
func (s *Server) Drain() {
	if s.adm != nil {
		s.adm.Drain()
	}
}

// AdmissionStats snapshots the admission controller (zero value when
// admission is disabled).
func (s *Server) AdmissionStats() admission.Stats {
	if s.adm == nil {
		return admission.Stats{}
	}
	return s.adm.Stats()
}

// Query is the pipeline's compute stage — limits → admit → track/recover
// → prepare → (batch | execute) → row cap — run against the current
// catalog snapshot. Each optional stage is a no-op when its Limits field is
// unset: the deadline (Timeout) and fact budget (MaxFactsScanned) are
// installed into the context before admission, the planner prepares the
// query, the batch scheduler fuses one-leg aggregates, and MaxResultRows is
// enforced on the result. A panic anywhere in the query path is recovered
// into an *InternalError rather than crashing the process.
func (s *Server) Query(ctx context.Context, src string) (res *query.Result, err error) {
	s.queries.Add(1)
	mQueries.Inc()
	if s.limits.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.limits.Timeout)
		defer cancel()
	}
	if s.limits.MaxFactsScanned > 0 {
		ctx = qos.WithFactBudget(ctx, s.limits.MaxFactsScanned)
	}
	// Admission happens after the timeout is installed so the queue sees
	// the request's real deadline, and before any tracking — a shed never
	// counts as an executing query.
	tk, aerr := s.admit(ctx)
	if aerr != nil {
		return nil, aerr
	}
	if tk != nil {
		defer tk.Release()
	}
	mActive.Add(1)
	aq := s.track(src, obs.TraceFrom(ctx))
	start := time.Now()
	// Registered before the recover defer so it runs after it (LIFO): the
	// err it classifies is the panic-converted one, not a lost panic.
	defer func() {
		rows := 0
		if res != nil {
			rows = len(res.Rows)
		}
		s.finishQueryMetrics(ctx, aq, start, rows, res != nil, err)
	}()
	defer func() {
		if r := recover(); r != nil {
			res, err = nil, s.internalError(src, r, debug.Stack())
		}
	}()
	if ferr := faultinject.Check(faultinject.QueryExec); ferr != nil {
		return nil, fmt.Errorf("serve: query: %w", ferr)
	}
	// The server itself is the engine resolver, so the planner reads the
	// warmed, version-checked snapshots EngineFor hands out; an engine that
	// cannot be built fails the query with EngineFor's error.
	var p *plan.Prepared
	if p, err = plan.PrepareContext(ctx, src, s.cat.Snapshot(), s.ref, s); err == nil {
		res, err = s.execute(ctx, p)
	}
	var sp *batch.ScanPanic
	if errors.As(err, &sp) {
		// The fused scan panicked on the scheduler's goroutine, outside the
		// recover above: isolate it the same way, for every member.
		return nil, s.internalError(src, sp.Value, sp.Stack)
	}
	if err != nil {
		return nil, err
	}
	if s.limits.MaxResultRows > 0 && len(res.Rows) > s.limits.MaxResultRows {
		mRowLimitRejections.Inc()
		return nil, fmt.Errorf("serve: result has %d rows, limit is %d: %w",
			len(res.Rows), s.limits.MaxResultRows, qos.ErrResourceExhausted)
	}
	return res, nil
}

// internalError counts a recovered panic and wraps it for the query that
// triggered it.
func (s *Server) internalError(src string, v any, stack []byte) *InternalError {
	s.panics.Add(1)
	mPanics.Inc()
	return &InternalError{Query: src, Panic: v, Stack: stack}
}

// engineEntry is the per-MO engine cache slot: the last good engine —
// current while its MO() is still the catalog entry, by pointer identity —
// and the in-flight build (single-flight).
type engineEntry struct {
	mu       sync.Mutex
	last     *storage.Engine
	inflight *buildState
}

type buildState struct {
	done   chan struct{}
	engine *storage.Engine
	err    error
}

func (s *Server) entry(name string) *engineEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.engines[name]
	if !ok {
		e = &engineEntry{}
		s.engines[name] = e
	}
	return e
}

// EngineFor returns the serving engine for the named MO. It rebuilds
// (single-flight: concurrent callers share one build) when the catalog's
// MO pointer differs from the cached engine's, and never hands out an
// engine built from anything but the registered MO: a failed build is an
// ErrUnavailable error, which fails the query that needed the engine, and
// the caller's own cancellation propagates as ErrCanceled. A caller whose
// context is live never inherits another caller's cancellation: when the
// shared build it waited on was canceled, it builds again. This is also
// the sanctioned append flow: mutate the registered MO (e.g.
// core.MO.Relate), then call AppendFact on this engine — the epoch bump
// invalidates every cached result computed before the append.
func (s *Server) EngineFor(ctx context.Context, name string) (*storage.Engine, error) {
	m, ok := s.cat.Get(name)
	if !ok {
		return nil, fmt.Errorf("serve: unknown MO %q (catalog has %v)", name, s.cat.Names())
	}
	e := s.entry(name)
	e.mu.Lock()
	if eng := e.last; eng != nil && eng.MO() == m {
		e.mu.Unlock()
		mCacheHit.Inc()
		return eng, nil
	}
	b := e.inflight
	if b != nil {
		e.mu.Unlock()
		select {
		case <-b.done:
		case <-ctx.Done():
			return nil, fmt.Errorf("serve: %w", qos.Canceled(ctx))
		}
		if errors.Is(b.err, qos.ErrCanceled) && ctx.Err() == nil {
			// The leader's own cancellation ended the shared build; this
			// caller's context is live, so it builds again.
			return s.EngineFor(ctx, name)
		}
	} else {
		b = &buildState{done: make(chan struct{})}
		e.inflight = b
		e.mu.Unlock()

		s.rebuilds.Add(1)
		mCacheRebuild.Inc()
		b.engine, b.err = storage.BuildEngine(ctx, m, dimension.CurrentContext(s.ref))
		if b.err == nil && s.limits.ColumnMinValues > 0 {
			// Warm the characterization columns as part of the build, so the
			// snapshot is born with its kernel choice already materialized.
			b.err = b.engine.WarmColumns(ctx, s.limits.ColumnMinValues)
		}
		e.mu.Lock()
		if b.err == nil {
			e.last = b.engine
		}
		e.inflight = nil
		e.mu.Unlock()
		close(b.done)
	}
	switch {
	case b.err == nil:
		return b.engine, nil
	case errors.Is(b.err, qos.ErrCanceled):
		return nil, fmt.Errorf("serve: engine build: %w", b.err)
	}
	return nil, fmt.Errorf("%w: %w", ErrUnavailable, b.err)
}
