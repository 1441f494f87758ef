package obs

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the per-query tracing half of the observability layer.
// A Trace rides the same context.Context the qos budgets already use, so
// every layer that has the query
// context can open spans without new plumbing. Tracing is opt-in per
// query (the HTTP layer's ?trace=1): a query without a trace pays one
// nil-returning context lookup per span site and nothing else.

// traceKey carries the *Trace through the context.
type traceKey struct{}

// traceIDs hands out process-unique trace ids for the active-query
// inspector.
var traceIDs atomic.Uint64

// Trace accumulates the spans of one query. Safe for concurrent use — the
// active-query inspector reads a trace while its query still records.
type Trace struct {
	ID    uint64
	Query string
	Start time.Time

	mu    sync.Mutex
	spans []SpanSummary
	attrs map[string]int64
	total time.Duration // set by Finish
}

// WithTrace installs a fresh trace for the query into the context and
// returns both. The caller owns the trace's lifecycle: call Finish when
// the query completes, then Summary for the serializable form.
func WithTrace(ctx context.Context, query string) (context.Context, *Trace) {
	t := &Trace{ID: traceIDs.Add(1), Query: query, Start: time.Now()}
	return context.WithValue(ctx, traceKey{}, t), t
}

// TraceFrom returns the context's trace, or nil when the query is not
// traced.
func TraceFrom(ctx context.Context) *Trace {
	t, _ := ctx.Value(traceKey{}).(*Trace)
	return t
}

// SetAttr records a query-level attribute (budget spent, rows returned).
// Nil-safe.
func (t *Trace) SetAttr(key string, v int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.attrs == nil {
		t.attrs = map[string]int64{}
	}
	t.attrs[key] = v
	t.mu.Unlock()
}

// Finish stamps the trace's total duration. Idempotent enough for one
// caller; returns the trace for chaining.
func (t *Trace) Finish() *Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.total = time.Since(t.Start)
	t.mu.Unlock()
	return t
}

// Span is one in-flight timed region of a traced query. The zero of the
// API is the nil span: every method is nil-safe, so instrumentation
// sites need no trace-enabled checks.
type Span struct {
	t     *Trace
	name  string
	start time.Time
	attrs []spanAttr
}

type spanAttr struct {
	key string
	v   int64
}

// StartSpan opens a span named name if the context carries a trace;
// otherwise it returns nil, and every later call on it is a no-op. End
// must be called to record the span (defer sp.End()).
func StartSpan(ctx context.Context, name string) *Span {
	t := TraceFrom(ctx)
	if t == nil {
		return nil
	}
	return &Span{t: t, name: name, start: time.Now()}
}

// SetAttr attaches an integer attribute (partition count, facts scanned)
// to the span. Nil-safe; spans are single-goroutine, so no lock.
func (s *Span) SetAttr(key string, v int64) {
	if s == nil {
		return
	}
	s.attrs = append(s.attrs, spanAttr{key, v})
}

// End closes the span and appends it to the trace. Nil-safe.
func (s *Span) End() {
	if s == nil {
		return
	}
	sum := SpanSummary{
		Name:    s.name,
		StartNs: s.start.Sub(s.t.Start).Nanoseconds(),
		DurNs:   time.Since(s.start).Nanoseconds(),
	}
	if len(s.attrs) > 0 {
		sum.Attrs = make(map[string]int64, len(s.attrs))
		for _, a := range s.attrs {
			sum.Attrs[a.key] = a.v
		}
	}
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, sum)
	s.t.mu.Unlock()
}

// SpanSummary is one recorded span, in wire form.
type SpanSummary struct {
	// Name identifies the operator or subsystem (see docs/OBSERVABILITY.md
	// for the span name inventory).
	Name string `json:"name"`
	// StartNs is the span's start offset from the trace start.
	StartNs int64 `json:"start_ns"`
	// DurNs is the span's duration.
	DurNs int64 `json:"duration_ns"`
	// Attrs carries integer attributes (partition counts, facts scanned).
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// TraceSummary is the serializable form of a trace, attached to query
// responses under ?trace=1 and listed by /debug/queries.
type TraceSummary struct {
	ID      uint64           `json:"id"`
	Query   string           `json:"query"`
	TotalNs int64            `json:"total_ns"`
	Spans   []SpanSummary    `json:"spans"`
	Attrs   map[string]int64 `json:"attrs,omitempty"`
}

// Summary snapshots the trace. For a finished trace TotalNs is the
// Finish-stamped duration; for an in-flight one it is the elapsed time so
// far, so the active-query inspector can render progress.
func (t *Trace) Summary() *TraceSummary {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &TraceSummary{ID: t.ID, Query: t.Query, TotalNs: t.total.Nanoseconds()}
	if t.total == 0 {
		out.TotalNs = time.Since(t.Start).Nanoseconds()
	}
	out.Spans = append([]SpanSummary(nil), t.spans...)
	if len(t.attrs) > 0 {
		out.Attrs = make(map[string]int64, len(t.attrs))
		for k, v := range t.attrs {
			out.Attrs[k] = v
		}
	}
	return out
}
