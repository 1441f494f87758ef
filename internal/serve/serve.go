// Package serve is the concurrent serving layer over the query path: a
// copy-on-write catalog of MOs, a single-flight engine cache, and one
// query pipeline — ServeQuery (result cache, delta upgrade, single-flight)
// in front of Query (limits, admission, panic isolation, planner, batch
// scheduler, row cap) — whose stages are each a no-op when unconfigured.
// It is what turns the single-shot research pipeline (parse → algebra →
// render) into something that can sit behind an HTTP listener and survive
// bad inputs, slow queries, and rebuild failures without taking the
// process down. See docs/SERVING.md.
package serve

import (
	"errors"
	"fmt"
	"time"

	"mddm/internal/admission"
	"mddm/internal/batch"
	"mddm/internal/qos"
)

// Typed error sentinels, re-exported from qos and admission so handlers
// can classify failures without importing the internal packages.
var (
	// ErrCanceled reports a query abandoned by cancellation or deadline.
	ErrCanceled = qos.ErrCanceled
	// ErrResourceExhausted reports a query stopped by a resource limit.
	ErrResourceExhausted = qos.ErrResourceExhausted
	// ErrOverloaded reports a query shed by admission control before any
	// work happened; the concrete *admission.OverloadError carries the
	// reason and a Retry-After hint. Maps to HTTP 429 (503 while
	// draining).
	ErrOverloaded = admission.ErrOverloaded
	// ErrInternal reports a panic converted into an error by the serving
	// layer. Match with errors.Is; the concrete *InternalError carries the
	// query text and stack.
	ErrInternal = errors.New("serve: internal error")
)

// InternalError is a recovered panic from query execution: the process
// survives, the offending query is reported, and the stack is preserved
// for the operator.
type InternalError struct {
	Query string // the query text that triggered the panic
	Panic any    // the recovered value
	Stack []byte // the goroutine stack at recovery
}

// Error renders the panic without the stack (which is for logs, not for
// error strings).
func (e *InternalError) Error() string {
	return fmt.Sprintf("serve: internal error executing %q: %v", e.Query, e.Panic)
}

// Is makes errors.Is(err, ErrInternal) hold for recovered panics.
func (e *InternalError) Is(target error) bool { return target == ErrInternal }

// Limits bounds one query's resource use. The zero value imposes no
// limits.
type Limits struct {
	// Timeout bounds wall-clock execution; exceeding it yields an
	// ErrCanceled-wrapped error (which also matches
	// context.DeadlineExceeded).
	Timeout time.Duration
	// MaxResultRows bounds the rows a query may return; exceeding it
	// yields ErrResourceExhausted.
	MaxResultRows int
	// MaxFactsScanned bounds the facts a query may visit across
	// selection, aggregation, and output; exceeding it yields
	// ErrResourceExhausted.
	MaxFactsScanned int64
	// Parallelism is the default per-query parallelism degree installed
	// into the query context (0 or 1 = sequential). A degree already
	// carried by the caller's context — e.g. the HTTP layer's per-query
	// ?parallelism= override — takes precedence. Budgets and results are
	// identical at any degree; only wall-clock changes.
	Parallelism int
	// ColumnMinValues, when positive, warms the characterization columns
	// of every category with at least this many values right after an
	// engine build (storage.Engine.WarmColumns), so the first query
	// already runs the single-pass column kernels. Zero leaves columns
	// cold; queries then use the bitmap kernels (results are identical —
	// only wall-clock changes).
	ColumnMinValues int
	// ResultCacheBytes, when positive, enables the versioned query-result
	// cache (internal/cache) bounded to roughly this many bytes. Cached
	// results are validated at lookup against the MO's registration
	// generation and its engine's mutation epoch, so re-registrations and
	// appended facts invalidate by version comparison — a stale result is
	// never served. Zero disables caching; ServeQuery is then exactly
	// Query. A cache hit charges no fact budget (the computation it
	// replaces already charged it once); see docs/SERVING.md.
	ResultCacheBytes int64
	// Admission, when its MaxConcurrency is positive, installs the
	// adaptive admission controller (internal/admission) in front of
	// Query: an AIMD concurrency limit, a bounded
	// deadline-aware wait queue, and optional per-tenant token-bucket
	// quotas. Shed requests fail fast with ErrOverloaded. Result-cache
	// hits bypass admission entirely — answering from memory is cheaper
	// than queueing for permission to. Zero disables admission control.
	Admission admission.Config
	// StaleOnShed, when positive, enables degraded serving: a request
	// shed by admission control is answered from a version-stale
	// result-cache entry — if one exists and is no older than this bound
	// — with a warning attached, instead of a 429. Zero means shed
	// requests always get the overload error. Requires ResultCacheBytes.
	StaleOnShed time.Duration
	// Planner routes queries through the columnar planner
	// (internal/plan): selection, grouping, and aggregation run over the
	// engine's bitmap indexes and kernels without materializing a result
	// MO, and operators needing full MO semantics (probabilistic,
	// timeslice, probability thresholds) fall back to the algebra path. Results, error texts, and cache keys are identical on
	// either path — only wall-clock and allocations change. See
	// docs/PLANNER.md.
	Planner bool
	// DeltaMaintenance keeps cached results warm under sustained appends:
	// result-cache fills through the planner retain mergeable per-group
	// partials, and a lookup that misses only because
	// facts were appended is answered by folding just the appended fact
	// range and merging — work proportional to the append volume, not to
	// history. Requires Planner and ResultCacheBytes (it is inert without
	// them); when an upgrade is not sound (catalog re-registration, epoch
	// outside the engine's journal, non-mergeable shape) the query takes
	// the normal recompute path and the fallback reason is counted in
	// mddm_delta_fallbacks_total. See docs/STORAGE.md "Delta maintenance".
	DeltaMaintenance bool
	// Batching, when Enabled, installs the shared-scan batch scheduler
	// (internal/batch) between admission and the planner: concurrent
	// queries grouping over the same (engine, dimension, category) leg
	// are gathered for a short window and answered from one fused pass
	// over the characterization column, bit-identical to solo execution
	// (budget accounting and fallbacks included). Non-batchable shapes
	// (facts, global, cross, fallbacks) bypass transparently. Requires
	// Planner (inert without it); the gather window and scan degree adapt
	// to the admission controller's load signals when Admission is also
	// configured. See docs/TRAFFIC.md.
	Batching batch.Config
}
