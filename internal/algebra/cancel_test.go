package algebra

import (
	"context"
	"errors"
	"testing"
	"time"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/qos"
	"mddm/internal/temporal"
)

func bigMO(t testing.TB, patients int) *core.MO {
	t.Helper()
	cfg := casestudy.DefaultGen()
	cfg.Patients = patients
	cfg.LowLevel = 500
	m, err := casestudy.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// cancelBound is the acceptance bound on cancellation latency. Race
// instrumentation slows every guarded iteration 10-20x, so the bound
// scales with it; the normal-build figure is the contract.
func cancelBound() time.Duration {
	if raceDetectorEnabled {
		return 500 * time.Millisecond
	}
	return 50 * time.Millisecond
}

func bigSpec() AggSpec {
	return AggSpec{
		ResultDim: "Count",
		Func:      agg.MustLookup("SETCOUNT"),
		GroupBy:   map[string]string{casestudy.DimDiagnosis: casestudy.CatGroup},
	}
}

// TestPreCanceledAggregateReturnsImmediately: a context canceled before
// the call must abort 100k-fact aggregate formation up front, well inside
// the 50ms bound.
func TestPreCanceledAggregateReturnsImmediately(t *testing.T) {
	m := bigMO(t, 100_000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dctx := dimension.CurrentContext(temporal.MustDate("01/01/1999"))

	start := time.Now()
	_, err := AggregateContext(ctx, m, bigSpec(), dctx)
	elapsed := time.Since(start)
	if !errors.Is(err, qos.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if elapsed > cancelBound() {
		t.Fatalf("pre-canceled aggregate took %v, want < %v", elapsed, cancelBound())
	}
}

// TestMidFlightCancelAbortsWithinBound cancels a 100k-fact aggregate
// formation while it is running and checks the hot loop notices within
// the acceptance bound (50ms; the sampled guard polls every 64
// iterations, each far under a microsecond).
func TestMidFlightCancelAbortsWithinBound(t *testing.T) {
	m := bigMO(t, 100_000)
	dctx := dimension.CurrentContext(temporal.MustDate("01/01/1999"))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	type outcome struct {
		err error
		at  time.Time
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := AggregateContext(ctx, m, bigSpec(), dctx)
		done <- outcome{err, time.Now()}
	}()

	// Let the aggregation get well into the guarded grouping loop (the
	// full run takes seconds at this size), then pull the plug.
	time.Sleep(200 * time.Millisecond)
	canceledAt := time.Now()
	cancel()
	out := <-done

	if out.err == nil {
		// The aggregation outran the cancel on this machine; the latency
		// bound is unmeasurable but nothing is wrong.
		t.Skip("aggregation finished before cancellation fired")
	}
	if !errors.Is(out.err, qos.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", out.err)
	}
	if lag := out.at.Sub(canceledAt); lag > cancelBound() {
		t.Fatalf("cancellation noticed after %v, want < %v", lag, cancelBound())
	}
}

// TestFactBudgetStopsAggregate bounds the facts an aggregate formation
// may visit, and checks an ample budget is charged without stopping it.
func TestFactBudgetStopsAggregate(t *testing.T) {
	m := bigMO(t, 10_000)
	dctx := dimension.CurrentContext(temporal.MustDate("01/01/1999"))
	ctx := qos.WithFactBudget(context.Background(), 1000)
	_, err := AggregateContext(ctx, m, bigSpec(), dctx)
	if !errors.Is(err, qos.ErrResourceExhausted) {
		t.Fatalf("want ErrResourceExhausted, got %v", err)
	}
	ctx = qos.WithFactBudget(context.Background(), 1<<40)
	if _, err := AggregateContext(ctx, m, bigSpec(), dctx); err != nil {
		t.Fatal(err)
	}
	if qos.BudgetFrom(ctx).Spent() == 0 {
		t.Fatal("aggregate spent no budget")
	}
}
