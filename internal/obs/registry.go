package obs

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Label is one constant label attached to a metric at registration time.
// The layer registers every series it will ever write up front (outcomes,
// operators, modes are all small fixed sets), so there is no per-record
// label lookup.
type Label struct {
	Key, Value string
}

// metricKind discriminates the family's TYPE line and value rendering.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindHistogram:
		return "histogram"
	case kindGauge:
		return "gauge"
	default:
		return "counter"
	}
}

// family groups every labeled child of one metric name under a single
// HELP/TYPE pair, as the exposition format requires.
type family struct {
	name     string
	help     string
	kind     metricKind
	order    []string // label-set keys in registration order
	children map[string]any
}

// Registry holds metric families and renders them in the Prometheus text
// exposition format. Registration is idempotent: asking for the same
// (name, labels) twice returns the same instance, so independent packages
// can share a family (e.g. mddm_operator_seconds across query and
// algebra).
type Registry struct {
	mu    sync.Mutex
	fams  []*family
	index map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]*family{}}
}

// defaultRegistry backs the package-level constructors; the serving
// layer's /metrics endpoint renders it.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// child resolves (name, labels) to its metric instance, creating family
// and child as needed. A kind clash on one name is a programming error
// caught at init time, hence the panic.
func (r *Registry) child(name, help string, kind metricKind, labels []Label, make_ func() any) any {
	key := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.index[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, children: map[string]any{}}
		r.index[name] = f
		r.fams = append(r.fams, f)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %v (was %v)", name, kind, f.kind))
	}
	c, ok := f.children[key]
	if !ok {
		c = make_()
		f.children[key] = c
		f.order = append(f.order, key)
	}
	return c
}

// NewCounter registers (or returns) the counter name{labels…}.
func (r *Registry) NewCounter(name, help string, labels ...Label) *Counter {
	return r.child(name, help, kindCounter, labels, func() any { return &Counter{} }).(*Counter)
}

// NewGauge registers (or returns) the gauge name{labels…}.
func (r *Registry) NewGauge(name, help string, labels ...Label) *Gauge {
	return r.child(name, help, kindGauge, labels, func() any { return &Gauge{} }).(*Gauge)
}

// NewHistogram registers a histogram with the given bucket upper bounds
// (use DurationBuckets for latencies, CountBuckets for small counts).
// Duration histograms observe time.Durations and render seconds.
func (r *Registry) NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.child(name, help, kindHistogram, labels, func() any {
		return newHistogram(bounds, 1.0/1e9)
	}).(*Histogram)
}

// NewValueHistogram is NewHistogram for raw (non-duration) observations
// via ObserveValue; sums render in the observed unit.
func (r *Registry) NewValueHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return r.child(name, help, kindHistogram, labels, func() any {
		return newHistogram(bounds, 1)
	}).(*Histogram)
}

// Package-level constructors on the default registry.

// NewCounter registers a counter on the default registry.
func NewCounter(name, help string, labels ...Label) *Counter {
	return defaultRegistry.NewCounter(name, help, labels...)
}

// NewGauge registers a gauge on the default registry.
func NewGauge(name, help string, labels ...Label) *Gauge {
	return defaultRegistry.NewGauge(name, help, labels...)
}

// NewHistogram registers a duration histogram on the default registry.
func NewHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return defaultRegistry.NewHistogram(name, help, bounds, labels...)
}

// NewValueHistogram registers a value histogram on the default registry.
func NewValueHistogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	return defaultRegistry.NewValueHistogram(name, help, bounds, labels...)
}

// WritePrometheus renders every family in the text exposition format
// (version 0.0.4): families in registration order, children in
// registration order — deterministic output for tests and diffing. It
// renders under the registry lock, because a child registered at run time
// (a per-tenant series) grows its family's order and children under that
// lock, and into a buffer, so the lock is not held across a write to a
// slow scraper.
func (r *Registry) WritePrometheus(w io.Writer) error {
	var buf bytes.Buffer
	r.mu.Lock()
	for _, f := range r.fams {
		f.write(&buf)
	}
	r.mu.Unlock()
	_, err := w.Write(buf.Bytes())
	return err
}

// write renders the family; the caller holds the registry lock.
func (f *family) write(b *bytes.Buffer) {
	fmt.Fprintf(b, "# HELP %s %s\n# TYPE %s %s\n", f.name, escapeHelp(f.help), f.name, f.kind)
	for _, key := range f.order {
		switch m := f.children[key].(type) {
		case *Counter:
			fmt.Fprintf(b, "%s%s %d\n", f.name, key, m.Value())
		case *Gauge:
			fmt.Fprintf(b, "%s%s %d\n", f.name, key, m.Value())
		case *Histogram:
			writeHistogram(b, f.name, key, m)
		}
	}
}

// writeHistogram emits cumulative _bucket series plus _sum and _count.
func writeHistogram(b *bytes.Buffer, name, key string, h *Histogram) {
	var cum int64
	for i, bound := range h.bounds {
		cum += h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(key, Label{"le", formatFloat(bound)}), cum)
	}
	cum += h.counts[len(h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, mergeLabels(key, Label{"le", "+Inf"}), cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", name, key, formatFloat(h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", name, key, h.Count())
}

// Handler serves the registry as text/plain for Prometheus scrapers.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodGet && req.Method != http.MethodHead {
			w.Header().Set("Allow", "GET, HEAD")
			http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// renderLabels renders a label set as {k="v",…} (empty string for no
// labels), sorted by key so equal sets are one child regardless of
// argument order.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		// %q escapes backslash, quote, and newline exactly as the
		// exposition format requires.
		fmt.Fprintf(&b, "%s=%q", l.Key, l.Value)
	}
	b.WriteByte('}')
	return b.String()
}

// mergeLabels appends extra to a rendered label set (for the histogram le
// label).
func mergeLabels(key string, extra Label) string {
	rendered := fmt.Sprintf("%s=%q", extra.Key, extra.Value)
	if key == "" {
		return "{" + rendered + "}"
	}
	return key[:len(key)-1] + "," + rendered + "}"
}

// escapeHelp flattens newlines and escapes backslashes in HELP text.
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

// formatFloat renders a float the way Prometheus clients do: shortest
// representation that round-trips.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
