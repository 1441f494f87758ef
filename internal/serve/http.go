package serve

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"mddm/internal/admission"
	"mddm/internal/faultinject"
	"mddm/internal/obs"
	"mddm/internal/plan"
	"mddm/internal/query"
)

// queryResponse is the JSON shape of a /query answer. Trace is present
// only when the request opted in with ?trace=1.
type queryResponse struct {
	Columns      []string          `json:"columns"`
	Rows         [][]string        `json:"rows"`
	Summarizable bool              `json:"summarizable"`
	Reasons      []string          `json:"reasons,omitempty"`
	Warnings     []string          `json:"warnings,omitempty"`
	Trace        *obs.TraceSummary `json:"trace,omitempty"`
	// Plan is the planner's explain output, present with ?plan=1 on a
	// computed answer.
	Plan *plan.Explain `json:"plan,omitempty"`
}

// errorResponse is the JSON shape of any failure.
type errorResponse struct {
	Error string `json:"error"`
}

// Handler returns the server's HTTP API:
//
//	GET/POST /query?q=…   run a query (POST may carry the query as the body);
//	                      &trace=1 attaches a per-query trace summary to the response;
//	                      &nocache=1 bypasses the result cache for this query;
//	                      &tenant=… (or the X-Mddm-Tenant header) names the
//	                      quota bucket when per-tenant admission quotas are on.
//	                      When the result cache is enabled the response carries
//	                      X-Mddm-Cache: hit|miss (bypass for &nocache=1;
//	                      hit-upgraded for a stale entry repaired by a delta
//	                      merge; stale plus X-Mddm-Degraded: stale-on-shed
//	                      for a degraded answer served under overload). With Limits.Batching
//	                      computed answers also carry X-Mddm-Batch:
//	                      solo|leader|member; answers that never reached the
//	                      planner (cache hits, upgrades, degraded serves,
//	                      sheds, single-flight followers) omit it — see
//	                      docs/TRAFFIC.md for the precedence rules.
//	POST     /append       durably append a fact to an MO with an attached
//	                      persistent store (segment.Store): the record is
//	                      WAL-logged before it becomes visible, and the
//	                      response carries its append sequence number
//	GET      /healthz     liveness probe
//
// Every response carries X-Mddm-Request-Id (the client's own id is
// echoed back if it sent one). The observability surface (/metrics,
// /debug/queries) is not mounted here; cmd/mdserve mounts MetricsHandler
// and ActiveQueriesHandler behind its -metrics flag.
//
// Failures map to status codes by kind: malformed requests and query
// errors are 400, resource limits and admission sheds 429 (sheds carry
// Retry-After; 503 while draining for shutdown), an engine that could not
// be built 503 with Retry-After, cancellation/deadline 504, and recovered
// panics 500 — the process never dies for a bad query.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/query", s.handleQuery)
	mux.HandleFunc("/append", s.handleAppend)
	return withRequestID(mux)
}

// reqSeq numbers requests within the process; reqNonce distinguishes
// processes so ids from a restarted server do not collide in logs.
var (
	reqSeq   atomic.Uint64
	reqNonce = func() uint32 {
		var b [4]byte
		_, _ = crand.Read(b[:])
		return binary.BigEndian.Uint32(b[:])
	}()
)

type requestIDKey struct{}

// withRequestID stamps every response — success or error — with an
// X-Mddm-Request-Id header, honoring an id the client already carries so
// retries correlate across hops. The id's sequence number is also stored
// in the context for the per-query trace (requestSeq).
func withRequestID(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Mddm-Request-Id")
		seq := reqSeq.Add(1)
		if id == "" {
			id = fmt.Sprintf("%08x-%08x", reqNonce, seq)
		}
		w.Header().Set("X-Mddm-Request-Id", id)
		next.ServeHTTP(w, r.WithContext(context.WithValue(r.Context(), requestIDKey{}, seq)))
	})
}

// requestSeq returns the in-process sequence number withRequestID stored
// (0 when the request did not pass through the middleware).
func requestSeq(ctx context.Context) uint64 {
	seq, _ := ctx.Value(requestIDKey{}).(uint64)
	return seq
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodPost {
		w.Header().Set("Allow", "GET, POST")
		writeError(w, http.StatusMethodNotAllowed,
			fmt.Errorf("serve: method %s not allowed on /query (use GET or POST)", r.Method))
		return
	}
	src := r.URL.Query().Get("q")
	if src == "" && r.Method == http.MethodPost {
		body, err := io.ReadAll(io.LimitReader(r.Body, 1<<20))
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("serve: reading body: %w", err))
			return
		}
		src = strings.TrimSpace(string(body))
	}
	if src == "" {
		writeError(w, http.StatusBadRequest, errors.New("serve: no query: pass ?q=… or a POST body"))
		return
	}
	ctx := r.Context()
	// Tenant for quota accounting: header first, ?tenant= as the
	// curl-friendly fallback. No tenant = the default quota bucket.
	tenant := r.Header.Get("X-Mddm-Tenant")
	if tenant == "" {
		tenant = r.URL.Query().Get("tenant")
	}
	ctx = admission.WithTenant(ctx, tenant)
	var tr *obs.Trace
	if t := r.URL.Query().Get("trace"); t != "" {
		on, err := strconv.ParseBool(t)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("serve: invalid trace %q: want a boolean (1/0, true/false)", t))
			return
		}
		if on {
			ctx, tr = obs.WithTrace(ctx, src)
			if seq := requestSeq(ctx); seq != 0 {
				tr.SetAttr("request_seq", int64(seq))
			}
		}
	}
	var ex *plan.Explain
	if p := r.URL.Query().Get("plan"); p != "" {
		on, err := strconv.ParseBool(p)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("serve: invalid plan %q: want a boolean (1/0, true/false)", p))
			return
		}
		if on {
			ctx, ex = plan.WithExplain(ctx)
		}
	}
	nocache := false
	if nc := r.URL.Query().Get("nocache"); nc != "" {
		on, err := strconv.ParseBool(nc)
		if err != nil {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("serve: invalid nocache %q: want a boolean (1/0, true/false)", nc))
			return
		}
		nocache = on
	}
	// Batch-outcome sink: filled only when the query actually executes
	// through the batch scheduler's stage, so the X-Mddm-Batch header
	// appears exactly on computed answers. Header precedence is pinned by
	// TestBatchHeaderPrecedence and documented in docs/TRAFFIC.md: answers
	// that never reach the planner — cache hits, delta upgrades,
	// stale-on-shed degraded serves, sheds, and single-flight followers —
	// carry X-Mddm-Cache (and X-Mddm-Degraded) alone, never X-Mddm-Batch.
	var bo *BatchOutcome
	if s.batcher != nil {
		ctx, bo = WithBatchOutcome(ctx)
	}
	// The X-Mddm-Cache header appears only when a result cache exists, so
	// the response shape is unchanged from servers built without
	// Limits.ResultCacheBytes.
	var res *query.Result
	var out QueryOutcome
	var err error
	cacheHeader := "miss"
	if nocache {
		// ?nocache=1 is the escape hatch: compute uncached and leave the
		// cache contents alone (it neither reads nor fills).
		cacheHeader = "bypass"
		res, err = s.Query(ctx, src)
	} else {
		res, out, err = s.ServeQuery(ctx, src)
	}
	switch {
	case out.Upgraded:
		// A version-stale entry answered fresh after a delta merge folded
		// the appended facts in: a hit for freshness purposes,
		// distinguished so clients can see the maintenance machinery
		// working.
		cacheHeader = "hit-upgraded"
	case out.CacheHit:
		cacheHeader = "hit"
	case out.DegradedStale:
		// Shed under overload but answered from a bounded-staleness cache
		// entry; the body carries the warning, the headers let clients and
		// proxies see the degradation without parsing it.
		cacheHeader = "stale"
		w.Header().Set("X-Mddm-Degraded", "stale-on-shed")
	}
	if s.ResultCacheEnabled() {
		w.Header().Set("X-Mddm-Cache", cacheHeader)
	}
	if bo != nil && bo.Outcome != "" {
		// Set before the error check: a member canceled mid-batch still
		// reports how far it got.
		w.Header().Set("X-Mddm-Batch", string(bo.Outcome))
	}
	if err != nil {
		writeError(w, statusFor(err), err)
		return
	}
	if ex != nil && ex.Mode == "" {
		// The planner never ran (a cache hit): no plan to report.
		ex = nil
	}
	writeJSON(w, http.StatusOK, queryResponse{
		Columns:      res.Columns,
		Rows:         res.Rows,
		Summarizable: res.Summarizable,
		Reasons:      res.Reasons,
		Warnings:     res.Warnings,
		Trace:        tr.Finish().Summary(),
		Plan:         ex,
	})
}

// statusFor maps the serving layer's typed errors to HTTP statuses.
func statusFor(err error) int {
	switch {
	case errors.Is(err, ErrOverloaded):
		// Draining is the one shed that is not the client's fault and not
		// transient from this process: the server is going away.
		var oe *admission.OverloadError
		if errors.As(err, &oe) && oe.Reason == admission.ReasonDraining {
			return http.StatusServiceUnavailable
		}
		return http.StatusTooManyRequests
	case errors.Is(err, ErrResourceExhausted):
		return http.StatusTooManyRequests
	case errors.Is(err, ErrUnavailable):
		return http.StatusServiceUnavailable
	case errors.Is(err, ErrCanceled):
		return http.StatusGatewayTimeout
	case errors.Is(err, ErrInternal):
		return http.StatusInternalServerError
	default:
		return http.StatusBadRequest
	}
}

// writeJSON serializes v; the faultinject.Serialize point fires first so
// robustness tests can fail this path deterministically.
func writeJSON(w http.ResponseWriter, status int, v any) {
	if err := faultinject.Check(faultinject.Serialize); err != nil {
		writeError(w, http.StatusInternalServerError, fmt.Errorf("serve: serialize: %w", err))
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v) // the status line is already out; nothing to recover
}

func writeError(w http.ResponseWriter, status int, err error) {
	// Sheds carry the controller's capacity estimate as Retry-After
	// (whole seconds, rounded up — "0" would mean "hammer me again"); an
	// unavailable engine is rebuilt by the next query, so retry soon.
	var oe *admission.OverloadError
	if errors.As(err, &oe) && oe.RetryAfter > 0 {
		secs := int64((oe.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	} else if errors.Is(err, ErrUnavailable) {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(errorResponse{Error: err.Error()})
}
