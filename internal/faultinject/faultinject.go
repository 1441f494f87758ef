// Package faultinject provides deterministic, named fault-injection
// points for robustness tests. Production code calls Check at an
// injection point; when nothing is armed this costs one atomic load.
// Tests arm points to return errors or panic, optionally only after a
// number of successful passes, which makes degradation scenarios (engine
// rebuild fails, closure expansion blows up mid-query, serialization
// breaks) reproducible without timing games.
//
// The registry is process-global and concurrency-safe. Tests that arm
// points must call Reset (usually via t.Cleanup) so later tests start
// clean.
package faultinject

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Point names an injection point on the query path.
type Point string

// The injection points wired into the engine and serving layer.
const (
	// EngineBuild fires at the start of storage.BuildEngine.
	EngineBuild Point = "engine-build"
	// ClosureExpand fires when a rollup-closure bitmap is expanded.
	ClosureExpand Point = "closure-expand"
	// Serialize fires when a query result is serialized for transport.
	Serialize Point = "serialize"
	// QueryExec fires at the start of serve.(*Server).Query, inside the
	// panic-isolation scope.
	QueryExec Point = "query-exec"
	// PlanExec fires in the columnar planner (internal/plan) after a
	// query has been admitted to the planned path, just before the plan
	// executor runs — arming it proves the planner surfaces injected
	// failures instead of silently falling back to the algebra.
	PlanExec Point = "plan-exec"
	// KernelScan fires once per one-leg kernel scan (storage scanLeg), on
	// whichever goroutine runs it — the query's own or, for a fused batch,
	// the scheduler's scan goroutine. Arming it with EnablePanic makes the
	// scan-panic containment path reproducible.
	KernelScan Point = "kernel-scan"
	// QueueStall fires in the admission controller's wake scan; while
	// armed the queue stops granting slots, so tests can deterministically
	// expire queued requests and prove expired entries never execute.
	QueueStall Point = "queue-stall"
	// QuotaExhausted fires in the admission controller's tenant-quota
	// check; while armed every request is treated as out of quota.
	QuotaExhausted Point = "quota-exhausted"
	// WALTear fires in the segment store's WAL append after a partial
	// frame has been written — the durable state is exactly what a crash
	// mid-write leaves behind, so recovery tests exercise the torn-tail
	// truncation path deterministically.
	WALTear Point = "wal-tear"
	// SegmentWrite fires mid-fold after a partial segment temp file has
	// been written, simulating a crash during compaction: the orphaned
	// temp file must be ignored and cleaned at the next open.
	SegmentWrite Point = "segment-write"
	// ChecksumMismatch fires in the segment store's checksum
	// verification; while armed every verified artifact is treated as
	// corrupt.
	ChecksumMismatch Point = "checksum-mismatch"
)

type rule struct {
	err      error
	panicVal any
	// after is how many Check passes succeed before the fault fires;
	// 0 fires immediately. Counted down under mu.
	after int
	hits  int
}

var (
	// armed counts armed points so the disarmed fast path is one atomic
	// load, no lock.
	armed atomic.Int32

	mu    sync.Mutex
	rules = map[Point]*rule{}
)

// Enable arms the point to fail every pass with err.
func Enable(p Point, err error) { EnableAfter(p, err, 0) }

// EnableAfter arms the point to let the first n passes succeed and fail
// every pass after that with err.
func EnableAfter(p Point, err error, n int) {
	if err == nil {
		err = fmt.Errorf("faultinject: injected fault at %s", p)
	}
	set(p, &rule{err: err, after: n})
}

// EnablePanic arms the point to panic with v on every pass.
func EnablePanic(p Point, v any) {
	if v == nil {
		v = fmt.Sprintf("faultinject: injected panic at %s", p)
	}
	set(p, &rule{panicVal: v})
}

func set(p Point, r *rule) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := rules[p]; !ok {
		armed.Add(1)
	}
	rules[p] = r
}

// Disable disarms the point.
func Disable(p Point) {
	mu.Lock()
	defer mu.Unlock()
	if _, ok := rules[p]; ok {
		delete(rules, p)
		armed.Add(-1)
	}
}

// Reset disarms every point.
func Reset() {
	mu.Lock()
	defer mu.Unlock()
	for p := range rules {
		delete(rules, p)
	}
	armed.Store(0)
}

// Hits reports how many times the point actually fired (errored or
// panicked) since it was armed.
func Hits(p Point) int {
	mu.Lock()
	defer mu.Unlock()
	if r, ok := rules[p]; ok {
		return r.hits
	}
	return 0
}

// Armed lists the armed points, sorted; for diagnostics.
func Armed() []Point {
	mu.Lock()
	defer mu.Unlock()
	out := make([]Point, 0, len(rules))
	for p := range rules {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Check is the production-side hook: it returns the injected error (or
// panics) when the point is armed and due, and nil otherwise. Disarmed
// cost: one atomic load.
func Check(p Point) error {
	if armed.Load() == 0 {
		return nil
	}
	mu.Lock()
	r, ok := rules[p]
	if !ok {
		mu.Unlock()
		return nil
	}
	if r.after > 0 {
		r.after--
		mu.Unlock()
		return nil
	}
	r.hits++
	err, pv := r.err, r.panicVal
	mu.Unlock()
	if pv != nil {
		panic(pv)
	}
	return err
}
