// Package obs is the zero-dependency observability layer: sharded atomic
// counters, fixed-bucket latency histograms, gauges, a registry that
// renders the Prometheus text exposition format, and per-query trace
// spans carried on the context alongside the qos budgets. It is a leaf
// package (stdlib only), so every layer of the query path — serve, query,
// algebra, storage, qos — can record into it without import cycles.
//
// The design keeps the hot-path cost near zero: instrumentation points
// sit at operation granularity (per query, per operator, per scan —
// never per fact), a counter add is one atomic add on a cache-padded
// shard, and the whole layer collapses to a single atomic load when
// disabled with SetEnabled(false). mdbench -exp B12 checks the <2%
// overhead budget against two storage kernels and a served query.
package obs

import (
	"math"
	"sync/atomic"
	"time"
	"unsafe"
)

// enabled gates every recording method. Default on: collection is cheap
// enough to leave running; only the HTTP exposition endpoints are
// flag-gated (see cmd/mdserve).
var enabled atomic.Bool

func init() { enabled.Store(true) }

// SetEnabled turns metric and span recording on or off process-wide.
// Values already recorded are kept.
func SetEnabled(on bool) { enabled.Store(on) }

// Enabled reports whether recording is on.
func Enabled() bool { return enabled.Load() }

// numShards spreads concurrent writers of one counter over independent
// cache lines. Power of two so the shard pick is a mask.
const numShards = 16

// shard is one cache-line-padded slot (64B lines; Int64 is 8B).
type shard struct {
	v atomic.Int64
	_ [56]byte
}

// shardIndex picks a shard from the address of a stack variable: distinct
// goroutines live on distinct stacks, so concurrent writers mostly land
// on distinct shards without any per-goroutine state.
func shardIndex() int {
	var b byte
	return int(uintptr(unsafe.Pointer(&b))>>8) & (numShards - 1)
}

// Counter is a monotonically increasing sharded counter.
type Counter struct {
	shards [numShards]shard
}

// Add increments the counter by n (no-op when recording is disabled or
// n <= 0 — counters are monotone).
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 || !enabled.Load() {
		return
	}
	c.shards[shardIndex()].v.Add(n)
}

// Inc adds one.
func (c *Counter) Inc() { c.Add(1) }

// Value folds the shards into the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	var t int64
	for i := range c.shards {
		t += c.shards[i].v.Load()
	}
	return t
}

// TimeCounter accumulates durations and renders as seconds (the
// Prometheus convention for *_seconds_total series). Internally it is a
// nanosecond Counter.
type TimeCounter struct {
	c Counter
}

// Add accumulates one duration.
func (t *TimeCounter) Add(d time.Duration) {
	if t == nil || d <= 0 {
		return
	}
	t.c.Add(int64(d))
}

// Value returns the accumulated time.
func (t *TimeCounter) Value() time.Duration { return time.Duration(t.c.Value()) }

// Seconds returns the accumulated time in seconds.
func (t *TimeCounter) Seconds() float64 { return float64(t.c.Value()) / 1e9 }

// Gauge is a value that goes up and down (active queries, pool usage).
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrease). Gauges record even
// when disabled, so paired Add(1)/Add(-1) calls cannot be split by a
// toggle and leak a phantom value.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Set pins the gauge to n.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Value returns the current gauge value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// DurationBuckets are the default latency histogram bounds: powers of two
// from 1µs to ~8.6s. Fixed at compile time — no per-histogram slice walk
// to size, no allocation on observe.
var DurationBuckets = func() []float64 {
	out := make([]float64, 24)
	ns := float64(1000) // 1µs
	for i := range out {
		out[i] = ns / 1e9
		ns *= 2
	}
	return out
}()

// CountBuckets suit small cardinalities (partition counts, worker
// grants): 1, 2, 4, …, 4096.
var CountBuckets = func() []float64 {
	out := make([]float64, 13)
	v := 1.0
	for i := range out {
		out[i] = v
		v *= 2
	}
	return out
}()

// maxBuckets bounds a histogram's finite buckets (the +Inf bucket is
// implicit in counts[len(bounds)]).
const maxBuckets = 64

// Histogram is a fixed-bucket histogram with atomic buckets. Bounds are
// upper-inclusive (Prometheus le semantics) and must be ascending.
type Histogram struct {
	bounds []float64
	counts [maxBuckets + 1]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds for duration histograms, raw units otherwise
	scale  float64      // multiplier from stored sum units to rendered units
}

func newHistogram(bounds []float64, scale float64) *Histogram {
	if len(bounds) > maxBuckets {
		bounds = bounds[:maxBuckets]
	}
	return &Histogram{bounds: bounds, scale: scale}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	if h == nil || !enabled.Load() {
		return
	}
	h.observe(float64(d)/1e9, int64(d))
}

// ObserveValue records one raw value (for count-valued histograms).
func (h *Histogram) ObserveValue(v float64) {
	if h == nil || !enabled.Load() {
		return
	}
	h.observe(v, int64(v))
}

func (h *Histogram) observe(v float64, raw int64) {
	i := bucketIndex(h.bounds, v)
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(raw)
}

// bucketIndex finds the first bound >= v; len(bounds) means +Inf. The
// bounds are geometric, so a branch-free bits trick would work, but the
// linear scan is ~24 compares per observation at operator granularity —
// not a hot path.
func bucketIndex(bounds []float64, v float64) int {
	for i, b := range bounds {
		if v <= b {
			return i
		}
	}
	return len(bounds)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the observation sum in rendered units (seconds for
// duration histograms).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return float64(h.sum.Load()) * h.scale
}

// QuantileHint returns an upper bound for the q-quantile from the bucket
// bounds — coarse (bucket-resolution) but allocation-free, good enough
// for human-readable summaries and tests.
func (h *Histogram) QuantileHint(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	target := int64(q * float64(total))
	var seen int64
	for i := range h.bounds {
		seen += h.counts[i].Load()
		if seen > target {
			return h.bounds[i]
		}
	}
	return math.Inf(1)
}
