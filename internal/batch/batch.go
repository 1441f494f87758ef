// Package batch is the shared-scan batch scheduler: it sits between
// admission control and the columnar planner and groups concurrent
// queries whose plans fold over the same (engine, dimension, category)
// leg into one fused pass over the characterization column
// (storage.SharedAggregateBy). The first query to arrive on an idle leg
// becomes the batch leader and opens a short gather window; queries
// landing inside the window join as members; the window closing (or the
// size cap filling) launches a single scan that fills every member's
// full-width per-value partials at once. Identical members (equal ArgDim
// and selection) share one scan slot, and each leg runs at most one scan
// at a time, group-commit style: a flight whose window expires while its
// leg's scan is still running keeps gathering and launches the moment
// the scan completes, so under saturation each batch collects every
// arrival of the previous scan's duration instead of fragmenting into
// many small overlapping scans. Each member then finishes
// independently — its own WHERE selection was already folded into the
// scan, and its budget accounting, HAVING/ORDER/LIMIT, and cache fill run
// solo (plan.Prepared.FinishScan, the finish of an unbatched query too) —
// so results are bit-identical to unbatched execution.
//
// The gather window adapts to load through the admission limiter's
// signals: near-idle servers shrink the window toward zero (batching would
// only add latency when no similar query is coming); loaded servers hold
// the full window (more members per scan is exactly where sharing pays).
//
// The fused scan runs on a goroutine of its own, outside every member's
// panic isolation, so it recovers a panic itself: every member gets a
// *ScanPanic error and the leg is released for the next batch.
package batch

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"mddm/internal/agg"
	"mddm/internal/qos"
	"mddm/internal/storage"
)

// DefaultGatherWindow is the base gather window: long enough that a burst
// of concurrent similar queries lands in one batch, short enough to be
// invisible next to a kernel pass over a non-trivial fact set.
const DefaultGatherWindow = 2 * time.Millisecond

// DefaultMaxBatch caps members per batch; a full batch launches
// immediately instead of waiting out the window.
const DefaultMaxBatch = 32

// Config tunes the scheduler; the zero value (Enabled false) disables
// batching entirely.
type Config struct {
	// Enabled turns shared-scan batching on.
	Enabled bool
	// GatherWindow is the base gather window (DefaultGatherWindow when 0);
	// the adaptive policy only ever shrinks it.
	GatherWindow time.Duration
	// MaxBatch caps members per batch (DefaultMaxBatch when 0).
	MaxBatch int
	// Deprecated: ignored — queries run sequentially; kept only because
	// bench/ sets it (ROADMAP item 1).
	MaxParallelism int
}

func (c Config) withDefaults() Config {
	if c.GatherWindow <= 0 {
		c.GatherWindow = DefaultGatherWindow
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = DefaultMaxBatch
	}
	return c
}

// Signals exposes the admission limiter's load view to the adaptive
// policy. A nil Signals pins the window to its configured value.
type Signals interface {
	// Load returns the currently admitted query count and the admission
	// limit (0 limit: unknown — treated as unloaded).
	Load() (inflight, limit int)
}

// Outcome labels how a query moved through the scheduler; it is the
// X-Mddm-Batch header value.
type Outcome string

const (
	// OutcomeSolo: the query bypassed batching (non-batchable shape or
	// scheduler disabled).
	OutcomeSolo Outcome = "solo"
	// OutcomeLeader: the query opened its batch and waited out the window.
	OutcomeLeader Outcome = "leader"
	// OutcomeMember: the query joined a batch another query opened.
	OutcomeMember Outcome = "member"
)

// Request is one query's slice of a prospective batch: the shared leg
// (Engine, Dim, Cat) keys the batch; ArgDim and Sel are private to the
// member.
type Request struct {
	Ctx    context.Context
	Engine *storage.Engine
	Dim    string
	Cat    string
	ArgDim string
	Sel    *storage.Bitmap
	// ListArgs requests per-value argument lists instead of Accs
	// (plan.Prepared.NeedsArgLists: an aggregate without a Fold).
	ListArgs bool
	// Prob makes the member a probability member (plan.Prepared.ProbArg:
	// a probabilistic aggregate, on a context view).
	Prob agg.ProbArg
}

// Result is one member's view of its batch's scan: the value dictionary
// and this member's full-width per-value counts plus either argument lists
// (ListArgs requests) or constant-size argument folds, the strategy the
// kernel ran, or the scan's error; a member context cancellation surfaces
// as a qos cancellation error.
type Result struct {
	Outcome Outcome
	Kernel  string
	Values  []string
	Counts  []int64
	Args    [][]float64
	Folds   []agg.Acc
	Err     error
}

// key identifies a shareable leg. The engine pointer scopes batches to
// one engine snapshot: a re-registered MO gets a new engine and therefore
// never shares a scan with queries planned against the old one.
type key struct {
	eng      *storage.Engine
	dim, cat string
}

// legState is one leg's scheduling state: at most one scan runs per leg
// at a time, one flight forms (gathering members), and flights the size
// cap closed while a scan was running queue for the scanner. A forming
// flight whose window expires mid-scan is NOT closed — it keeps
// gathering, marked expired, and launches at scan completion
// (group commit). The serialization is what makes batches fill under
// saturation: while a scan runs, the next flight keeps gathering instead
// of launching a second small scan that would compete for the same
// cores.
type legState struct {
	forming *flight
	queue   []*flight
	running bool
}

// flight is one forming-or-running batch.
type flight struct {
	members []Request
	timer   *time.Timer
	closed  bool
	// expired: the gather window ran out while the leg's scan was busy;
	// the flight keeps gathering and scanDone launches it.
	expired bool
	done    chan struct{}

	// Scan outputs, valid after done closes. slot maps each member index
	// to its scan member: members with identical (ArgDim, ListArgs, Sel)
	// are deduplicated into one scan slot — their outputs are the same by
	// construction, so computing them once per batch is pure savings
	// (concurrent *identical* nocache queries land here; the result
	// cache's single-flight only dedups cacheable ones).
	slot []int
	out  storage.LegScan
	err  error
}

// Scheduler groups concurrent batchable queries by leg. One scheduler
// serves one server; its lifetime is the server's.
type Scheduler struct {
	cfg Config
	sig Signals

	mu   sync.Mutex
	legs map[key]*legState

	stats Stats
}

// Stats snapshots the scheduler's counters (for tests and selfchecks;
// the mddm_batch_* metrics carry the same numbers to /metrics).
type Stats struct {
	// Batches counts fused scans launched.
	Batches int64
	// Members counts queries answered from a fused scan, leaders included.
	Members int64
	// ScansSaved counts kernel passes avoided: members beyond each
	// batch's leader.
	ScansSaved int64
	// Bypasses counts queries that could not batch, by reason.
	Bypasses map[string]int64
}

// New builds a scheduler; sig may be nil (fixed window).
func New(cfg Config, sig Signals) *Scheduler {
	return &Scheduler{cfg: cfg.withDefaults(), sig: sig, legs: map[key]*legState{}}
}

// Enabled reports whether the scheduler batches at all.
func (s *Scheduler) Enabled() bool { return s != nil && s.cfg.Enabled }

// Bypass records a query that could not join a batch (reason is one of
// the plan.Bypass* constants).
func (s *Scheduler) Bypass(reason string) {
	if s == nil {
		return
	}
	if c := mBypasses[reason]; c != nil {
		c.Inc()
	} else {
		mBypassOther.Inc()
	}
	s.mu.Lock()
	if s.stats.Bypasses == nil {
		s.stats.Bypasses = map[string]int64{}
	}
	s.stats.Bypasses[reason]++
	s.mu.Unlock()
}

// Stats returns a copy of the scheduler's counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	if st.Bypasses != nil {
		cp := make(map[string]int64, len(st.Bypasses))
		for k, v := range st.Bypasses {
			cp[k] = v
		}
		st.Bypasses = cp
	}
	return st
}

// ScanPanic is the error every member of a batch gets when its fused scan
// panicked: the panic value and the scan goroutine's stack at recovery.
type ScanPanic struct {
	Value any
	Stack []byte
}

func (p *ScanPanic) Error() string { return fmt.Sprintf("batch: scan panic: %v", p.Value) }

// ErrDisabled is Do's answer on a disabled scheduler: nothing was scanned,
// the caller runs the query itself (plan.Prepared.Execute).
var ErrDisabled = errors.New("batch: scheduler disabled")

// Do routes one batchable query through the scheduler: join or open the
// leg's forming batch, wait for its fused scan, and return this member's
// slice of the outputs. It blocks for at most the gather window plus up
// to two scans (the leg's running scan, group-commit style, then its
// own); req.Ctx cancellation unblocks immediately (the scan keeps
// running for the surviving members).
func (s *Scheduler) Do(req Request) Result {
	if !s.Enabled() {
		return Result{Outcome: OutcomeSolo, Err: ErrDisabled}
	}
	k := key{eng: req.Engine, dim: req.Dim, cat: req.Cat}
	s.mu.Lock()
	ls := s.legs[k]
	if ls == nil {
		ls = &legState{}
		s.legs[k] = ls
	}
	f := ls.forming
	outcome := OutcomeMember
	if f == nil {
		outcome = OutcomeLeader
		f = &flight{done: make(chan struct{})}
		ls.forming = f
		w := s.window()
		f.timer = time.AfterFunc(w, func() { s.windowExpired(k, f) })
	}
	idx := len(f.members)
	f.members = append(f.members, req)
	if len(f.members) >= s.cfg.MaxBatch {
		s.readyLocked(k, f)
	}
	s.mu.Unlock()

	select {
	case <-f.done:
	case <-req.Ctx.Done():
		return Result{Outcome: outcome, Err: qos.Canceled(req.Ctx)}
	}
	if f.err != nil {
		return Result{Outcome: outcome, Err: f.err}
	}
	m := f.out.Members[f.slot[idx]]
	return Result{Outcome: outcome, Kernel: f.out.Kernel, Values: f.out.Values, Counts: m.Counts, Args: m.Args, Folds: m.Folds}
}

// windowExpired closes the flight when its gather window runs out
// (timer path) — unless the leg's scan is still running, in which case
// the flight keeps gathering and scanDone launches it (group commit).
func (s *Scheduler) windowExpired(k key, f *flight) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f.closed {
		return
	}
	if ls := s.legs[k]; ls != nil && ls.running && ls.forming == f {
		f.expired = true
		return
	}
	s.readyLocked(k, f)
}

// readyLocked closes the flight under s.mu: it stops gathering and
// either launches its fused scan now or, when the leg's scanner is
// already busy, queues behind the running scan. Idempotent: the timer
// and the size cap can race.
func (s *Scheduler) readyLocked(k key, f *flight) {
	if f.closed {
		return
	}
	f.closed = true
	if f.timer != nil {
		f.timer.Stop()
	}
	ls := s.legs[k]
	if ls.forming == f {
		ls.forming = nil
	}
	if ls.running {
		ls.queue = append(ls.queue, f)
		return
	}
	ls.running = true
	s.startScanLocked(k, f)
}

// startScanLocked records the batch and starts its scan goroutine; the
// caller holds s.mu and has claimed the leg's scanner slot.
func (s *Scheduler) startScanLocked(k key, f *flight) {
	n := int64(len(f.members))
	s.stats.Batches++
	s.stats.Members += n
	s.stats.ScansSaved += n - 1
	mBatches.Inc()
	mMembers.Add(n)
	mScansSaved.Add(n - 1)
	mMembersPerBatch.ObserveValue(float64(n))
	go s.runScan(k, f)
}

// scanDone releases the leg's scanner slot and hands it to the next
// flight: a size-cap-closed flight from the queue first, else a forming
// flight whose window already expired (the group-commit launch).
func (s *Scheduler) scanDone(k key) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ls := s.legs[k]
	if len(ls.queue) > 0 {
		next := ls.queue[0]
		ls.queue = ls.queue[1:]
		s.startScanLocked(k, next)
		return
	}
	ls.running = false
	if f := ls.forming; f != nil && f.expired {
		s.readyLocked(k, f)
		return
	}
	if ls.forming == nil {
		// Nothing forming, nothing queued, nothing running: drop the leg
		// so re-registered engines do not accumulate dead entries.
		delete(s.legs, k)
	}
}

// runScan executes the flight's kernel scan under a context that outlives
// any one member: it cancels only when every member's context is done, so
// one impatient client cannot kill the batch for the others. A panic in the
// scan becomes the flight's *ScanPanic error; the leg is released either
// way.
func (s *Scheduler) runScan(k key, f *flight) {
	defer s.scanDone(k)
	defer close(f.done)
	defer func() {
		if r := recover(); r != nil {
			f.err = &ScanPanic{Value: r, Stack: debug.Stack()}
		}
	}()
	scanCtx, cancel := allMembersCtx(f.members)
	defer cancel()
	// Deduplicate identical members: equal ArgDim, equal output mode, and
	// equal selection content produce equal outputs, so they share one scan
	// slot. The quadratic bitmap comparison is bounded by MaxBatch and
	// costs a few word-compares per fact word — noise next to the scan
	// itself.
	var unique []storage.SharedScanMember
	f.slot = make([]int, len(f.members))
	for i, m := range f.members {
		j := -1
		for u := range unique {
			if unique[u].ArgDim == m.ArgDim && unique[u].ListArgs == m.ListArgs && unique[u].Prob == m.Prob && unique[u].Sel.Equal(m.Sel) {
				j = u
				break
			}
		}
		if j < 0 {
			j = len(unique)
			unique = append(unique, storage.SharedScanMember{ArgDim: m.ArgDim, Sel: m.Sel, ListArgs: m.ListArgs, Prob: m.Prob})
		}
		f.slot[i] = j
	}
	f.out, f.err = k.eng.ScanLeg(scanCtx, k.dim, k.cat, unique)
}

// allMembersCtx derives a context canceled once ALL member contexts are
// done (and releases its watcher goroutine when the returned cancel runs,
// which the scan does as soon as it finishes).
func allMembersCtx(members []Request) (context.Context, context.CancelFunc) {
	ctx, cancel := context.WithCancel(context.Background())
	stop := make(chan struct{})
	go func() {
		for _, m := range members {
			select {
			case <-m.Ctx.Done():
			case <-stop:
				return
			}
		}
		cancel()
	}()
	return ctx, func() { cancel(); close(stop) }
}

// window is the adaptive gather window: near-idle load shrinks it —
// below a quarter of the admission limit in flight, a similar concurrent
// query is unlikely, so waiting mostly adds latency — while loaded
// servers hold the full window to gather bigger batches.
func (s *Scheduler) window() time.Duration {
	w := s.cfg.GatherWindow
	if s.sig == nil {
		return w
	}
	inflight, limit := s.sig.Load()
	if limit <= 0 {
		// No limiter to read load from: assume near-idle.
		return w / 4
	}
	switch load := float64(inflight) / float64(limit); {
	case load < 0.25:
		return w / 4
	case load < 0.5:
		return w / 2
	default:
		return w
	}
}
