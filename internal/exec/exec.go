// Package exec is the partition-parallel execution engine: it splits the
// dense fact universe into fixed-size ranges, runs per-partition work on a
// shared worker pool, and leaves combining the partial results to the
// caller (counts add and lists concatenate exactly; a float fold, agg.Acc,
// is never split across partitions). The paper defers "efficient implementation using special-purpose algorithms
// and data structures" to future work; this package is the data-parallel
// half of that implementation — the same split/compute-partials/merge
// shape as a data-parallel reduce tree.
//
// Design rules the rest of the repo relies on:
//
//   - Sequential is the degree-1 case. Run with degree <= 1 executes the
//     tasks inline on the caller's goroutine, in order, with no pool
//     interaction — the differential-testing baseline.
//   - The pool degrades, it never queues. A query asks for degree k and is
//     granted the coordinator plus however many extra workers the shared
//     pool has free (possibly zero). Under saturation queries run closer
//     to sequential instead of deadlocking or piling up goroutines.
//   - Panics never strand the merge barrier. A panic in a worker is
//     recovered, the remaining workers drain, and the panic is re-raised
//     on the caller's goroutine as a *WorkerPanic — so the serving layer's
//     existing recover turns it into a serve.InternalError.
package exec

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"mddm/internal/faultinject"
	"mddm/internal/obs"
	"mddm/internal/qos"
)

// Execution metrics, all at Run granularity (one Run per operator phase,
// never per fact). The mode label separates genuinely-parallel runs from
// the two sequential paths: "sequential" (degree <= 1 requested) and
// "degraded" (parallelism requested but the shared pool was saturated) —
// the degrade-don't-queue policy made visible.
var (
	mRunsSeq = obs.NewCounter("mddm_exec_runs_total",
		"Partition runs by execution mode.", obs.Label{Key: "mode", Value: "sequential"})
	mRunsDegraded = obs.NewCounter("mddm_exec_runs_total",
		"Partition runs by execution mode.", obs.Label{Key: "mode", Value: "degraded"})
	mRunsPar = obs.NewCounter("mddm_exec_runs_total",
		"Partition runs by execution mode.", obs.Label{Key: "mode", Value: "parallel"})
	mRunTasks = obs.NewValueHistogram("mddm_exec_run_tasks",
		"Partition count per Run call.", obs.CountBuckets)
	mExtraWorkers = obs.NewValueHistogram("mddm_exec_extra_workers",
		"Pool-granted extra workers per parallel Run.", obs.CountBuckets)
	mWorkerBusy = obs.NewTimeCounter("mddm_exec_worker_busy_seconds_total",
		"Cumulative time partition workers (including the coordinator) spent running tasks.")
	mMergeWait = obs.NewTimeCounter("mddm_exec_merge_wait_seconds_total",
		"Cumulative time coordinators waited at the merge barrier after finishing their own share.")
)

// Range is one partition of the dense fact universe: the half-open index
// interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Len returns the number of indices in the range.
func (r Range) Len() int { return r.Hi - r.Lo }

// wordBits aligns partition boundaries to the storage bitmap word size, so
// per-partition popcounts and intersections touch whole words.
const wordBits = 64

// Partitions splits [0, n) into fixed-size, word-aligned ranges sized for
// the given parallelism degree: about two ranges per worker (so a slow
// partition does not idle the rest of the pool), never smaller than one
// bitmap word. All ranges except the last have equal size.
func Partitions(n, degree int) []Range {
	if n <= 0 {
		return nil
	}
	if degree < 1 {
		degree = 1
	}
	chunk := (n + 2*degree - 1) / (2 * degree)
	if chunk < wordBits {
		chunk = wordBits
	}
	chunk = (chunk + wordBits - 1) &^ (wordBits - 1)
	out := make([]Range, 0, (n+chunk-1)/chunk)
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		out = append(out, Range{Lo: lo, Hi: hi})
	}
	return out
}

// Pool bounds the extra worker goroutines running partition tasks across
// all concurrent queries. It admits rather than queues: TryAcquire grants
// whatever is free, and a saturated pool grants nothing — the query then
// runs on its coordinator goroutine alone.
type Pool struct {
	mu   sync.Mutex
	cap  int
	used int
}

// NewPool creates a pool admitting up to capacity extra workers;
// capacity < 1 is clamped to 1.
func NewPool(capacity int) *Pool {
	if capacity < 1 {
		capacity = 1
	}
	return &Pool{cap: capacity}
}

// defaultPool serves every Run call that passes a nil pool. CPU-bound
// partition work gains nothing past the core count, but modest
// oversubscription keeps degree-k differential tests honest on small
// machines, so the floor is 8.
var defaultPool = NewPool(maxInt(2*runtime.GOMAXPROCS(0), 8))

// Default returns the shared process-wide pool.
func Default() *Pool { return defaultPool }

// TryAcquire grants min(n, free) extra-worker slots and returns the grant;
// it never blocks. The caller must Release exactly the granted count.
func (p *Pool) TryAcquire(n int) int {
	if n <= 0 {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	free := p.cap - p.used
	if n > free {
		n = free
	}
	if n < 0 {
		n = 0
	}
	p.used += n
	return n
}

// Release returns n slots to the pool.
func (p *Pool) Release(n int) {
	if n <= 0 {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.used -= n
	if p.used < 0 {
		p.used = 0
	}
}

// Capacity returns the pool's extra-worker capacity.
func (p *Pool) Capacity() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.cap
}

// parKey carries the per-query parallelism degree through the context,
// alongside qos budgets and cancellation.
type parKey struct{}

// WithParallelism installs a per-query parallelism degree into the
// context; k <= 0 installs nothing (degree stays unset).
func WithParallelism(ctx context.Context, k int) context.Context {
	if k <= 0 {
		return ctx
	}
	return context.WithValue(ctx, parKey{}, k)
}

// DegreeFrom returns the context's parallelism degree, or 0 when none was
// installed — callers treat unset (and 1) as the sequential path.
func DegreeFrom(ctx context.Context) int {
	k, _ := ctx.Value(parKey{}).(int)
	return k
}

// WorkerPanic is the value re-panicked on the coordinator goroutine when a
// partition worker panics: the original panic value plus the worker's
// stack at recovery. The serving layer's panic isolation captures it into
// an *InternalError; Stack preserves the worker-side trace, which the
// coordinator-side re-panic would otherwise lose.
type WorkerPanic struct {
	Value any
	Stack []byte
}

// String renders the original panic value.
func (w *WorkerPanic) String() string {
	return fmt.Sprintf("partition worker panic: %v", w.Value)
}

// Run executes fn(0), …, fn(tasks-1) with up to degree concurrent workers
// (the caller's goroutine plus extras granted by the pool; nil pool means
// Default()). Workers claim tasks from a shared counter, so uneven
// partitions balance. The first error stops the remaining tasks and is
// returned; context cancellation stops task claiming with a
// qos.ErrCanceled-wrapped error. A worker panic is recovered, the barrier
// drains, and the panic re-raises on the caller's goroutine as a
// *WorkerPanic. With degree <= 1 (or one task, or a saturated pool) the
// tasks run inline sequentially in index order.
func Run(ctx context.Context, pool *Pool, degree, tasks int, fn func(task int) error) error {
	if tasks <= 0 {
		return nil
	}
	if degree > tasks {
		degree = tasks
	}
	if degree <= 1 {
		mRunsSeq.Inc()
		mRunTasks.ObserveValue(float64(tasks))
		return runSeq(ctx, tasks, fn)
	}
	if pool == nil {
		pool = defaultPool
	}
	extra := pool.TryAcquire(degree - 1)
	if extra == 0 {
		mRunsDegraded.Inc()
		mRunTasks.ObserveValue(float64(tasks))
		return runSeq(ctx, tasks, fn)
	}
	defer pool.Release(extra)
	mRunsPar.Inc()
	mRunTasks.ObserveValue(float64(tasks))
	mExtraWorkers.ObserveValue(float64(extra))
	sp := obs.StartSpan(ctx, "exec.run")
	sp.SetAttr("tasks", int64(tasks))
	sp.SetAttr("extra_workers", int64(extra))

	var (
		next     atomic.Int64
		stop     atomic.Bool
		mu       sync.Mutex
		firstErr error
		wp       *WorkerPanic
		wg       sync.WaitGroup
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	work := func() {
		busyStart := time.Now()
		defer wg.Done()
		// Registered after wg.Done so it runs before it (LIFO): the busy
		// time is fully recorded before the merge barrier releases.
		defer func() { mWorkerBusy.Add(time.Since(busyStart)) }()
		defer func() {
			if r := recover(); r != nil {
				mu.Lock()
				if wp == nil {
					wp = &WorkerPanic{Value: r, Stack: debug.Stack()}
				}
				mu.Unlock()
				stop.Store(true)
			}
		}()
		for !stop.Load() {
			t := int(next.Add(1)) - 1
			if t >= tasks {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(qos.Canceled(ctx))
				return
			}
			if err := faultinject.Check(faultinject.PartitionWorker); err != nil {
				fail(fmt.Errorf("exec: partition worker: %w", err))
				return
			}
			if err := fn(t); err != nil {
				fail(err)
				return
			}
		}
	}
	wg.Add(extra + 1)
	for i := 0; i < extra; i++ {
		go work()
	}
	work() // the coordinator is a worker too
	waitStart := time.Now()
	wg.Wait()
	mergeWait := time.Since(waitStart)
	mMergeWait.Add(mergeWait)
	sp.SetAttr("merge_wait_ns", mergeWait.Nanoseconds())
	sp.End()
	if wp != nil {
		panic(wp)
	}
	return firstErr
}

// runSeq is the degree-1 inline path: same task order as a single-threaded
// loop, same faultinject point, cooperative cancellation between tasks.
func runSeq(ctx context.Context, tasks int, fn func(task int) error) error {
	done := ctx.Done()
	for t := 0; t < tasks; t++ {
		if done != nil {
			select {
			case <-done:
				return qos.Canceled(ctx)
			default:
			}
		}
		if err := faultinject.Check(faultinject.PartitionWorker); err != nil {
			return fmt.Errorf("exec: partition worker: %w", err)
		}
		if err := fn(t); err != nil {
			return err
		}
	}
	return nil
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
