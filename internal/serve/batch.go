package serve

import (
	"context"
	"fmt"

	"mddm/internal/batch"
	"mddm/internal/plan"
	"mddm/internal/query"
)

// This file wires the shared-scan batch scheduler (internal/batch) into
// the query path. Query plans every query to the brink of shape execution
// (plan.PrepareContext); with Limits.Batching enabled, batchable shapes
// then join the scheduler's gather window for their (engine, dim, cat)
// leg, and the batch's kernel scan finishes through plan.FinishScan — the
// finish a solo Execute runs after its own scan of one, so a batched
// answer is bit-identical to solo execution. Non-batchable shapes
// (describe, facts, global, cross) Execute solo immediately and are
// counted as bypasses. A context view is an engine like any other here:
// queries at the same ASOF instant or WITH PROB threshold share its scans.
//
// Placement: batching sits BELOW the result cache and its single-flight
// (results.go) and AFTER admission. A cache hit never reaches the
// scheduler; identical concurrent queries are deduped by the
// single-flight before batching ever sees them — the scheduler's value is
// fusing *similar* queries (same grouping leg, different WHERE/aggregate)
// that the cache must compute separately.

// admissionSignals adapts the server's admission controller to the
// scheduler's load interface.
type admissionSignals struct{ s *Server }

func (a admissionSignals) Load() (inflight, limit int) {
	st := a.s.adm.Stats()
	return st.Inflight, st.Limit
}

// BatchOutcome is the context sink the HTTP layer installs to learn how
// a query moved through the scheduler (the X-Mddm-Batch header). Outcome
// stays empty when the query never reached the scheduler —
// cache hits, delta upgrades, stale-on-shed serves, sheds, and
// single-flight followers carry no batch header (see docs/TRAFFIC.md for
// the header precedence rules).
type BatchOutcome struct {
	// Outcome is solo, leader, or member.
	Outcome batch.Outcome
	// Reason is the bypass reason when Outcome is solo for a query that
	// could not batch ("" for a plain solo or batched outcome).
	Reason string
}

type batchOutcomeKey struct{}

// WithBatchOutcome installs a batch-outcome sink into the context and
// returns it (mirrors plan.WithExplain).
func WithBatchOutcome(ctx context.Context) (context.Context, *BatchOutcome) {
	bo := &BatchOutcome{}
	return context.WithValue(ctx, batchOutcomeKey{}, bo), bo
}

// setBatchOutcome fills the context's sink, if any.
func setBatchOutcome(ctx context.Context, o batch.Outcome, reason string) {
	if bo, _ := ctx.Value(batchOutcomeKey{}).(*BatchOutcome); bo != nil {
		bo.Outcome = o
		bo.Reason = reason
	}
}

// BatchingEnabled reports whether the server was built with the shared-
// scan batch scheduler (Limits.Batching.Enabled).
func (s *Server) BatchingEnabled() bool { return s.batcher != nil }

// BatchStats snapshots the scheduler's counters (zero value when
// batching is disabled).
func (s *Server) BatchStats() batch.Stats {
	if s.batcher == nil {
		return batch.Stats{}
	}
	return s.batcher.Stats()
}

// execute runs a prepared query: Execute when no scheduler exists or the
// plan cannot batch, else the scheduler's fused scan and FinishScan. Every
// bypass degrades to plain solo execution — batching never fails a query
// that solo execution would answer.
func (s *Server) execute(ctx context.Context, p *plan.Prepared) (*query.Result, error) {
	if s.batcher == nil {
		return p.Execute()
	}
	if ok, reason := p.Batchable(); !ok {
		s.batcher.Bypass(reason)
		setBatchOutcome(ctx, batch.OutcomeSolo, reason)
		return p.Execute()
	}
	dim, cat := p.GroupLeg()
	r := s.batcher.Do(batch.Request{
		Ctx:      ctx,
		Engine:   p.Engine(),
		Dim:      dim,
		Cat:      cat,
		ArgDim:   p.ArgDim(),
		Sel:      p.Selection(),
		ListArgs: p.NeedsArgLists(),
		Prob:     p.ProbArg(),
	})
	setBatchOutcome(ctx, r.Outcome, "")
	if r.Err != nil {
		// Cancellation: this member's context died while waiting, or the
		// scan died after every member's did. Same wrap the planner puts
		// on a kernel cancellation. A *batch.ScanPanic passes through the
		// wrap for Query to isolate.
		p.Abort()
		return nil, fmt.Errorf("query: %w", r.Err)
	}
	return p.FinishScan(r.Kernel, r.Values, r.Counts, r.Args, r.Folds)
}
