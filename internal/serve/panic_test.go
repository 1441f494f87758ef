package serve

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"mddm/internal/batch"
	"mddm/internal/casestudy"
	"mddm/internal/faultinject"
)

// TestScanPanicBecomesInternalError is the containment test for a panic in
// a kernel scan, injected at faultinject.KernelScan. Solo, the scan runs on
// the query's own goroutine, inside Query's recover; batched, it runs on
// the scheduler's scan goroutine, which recovers it for every member of the
// batch. Either way every query gets ErrInternal carrying the panic value
// and a stack, the process survives, and the next query on the same leg
// answers.
func TestScanPanicBecomesInternalError(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	cfg := casestudy.DefaultGen()
	cfg.Patients = 5000
	m := casestudy.MustGenerate(cfg)
	const src = `SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Low-level Diagnosis"`
	for _, tc := range []struct {
		name    string
		batched bool
		queries int
	}{
		{"solo", false, 1},
		{"batched", true, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			limits := Limits{ColumnMinValues: 1}
			if tc.batched {
				limits.Batching = batch.Config{Enabled: true, GatherWindow: 200 * time.Millisecond}
			}
			cat := NewCatalog()
			if err := cat.Register("patients", m); err != nil {
				t.Fatal(err)
			}
			s := NewServer(cat, limits, testRef)
			if _, err := s.EngineFor(context.Background(), "patients"); err != nil {
				t.Fatal(err) // build and warm before the fault is armed
			}
			faultinject.EnablePanic(faultinject.KernelScan, "scan boom")

			errs := make([]error, tc.queries)
			outcomes := make([]batch.Outcome, tc.queries)
			var wg sync.WaitGroup
			for i := range errs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					ctx, bo := WithBatchOutcome(context.Background())
					_, errs[i] = s.Query(ctx, src)
					outcomes[i] = bo.Outcome
				}()
			}
			wg.Wait()
			for i, err := range errs {
				var ie *InternalError
				if !errors.Is(err, ErrInternal) || !errors.As(err, &ie) {
					t.Fatalf("query %d: want *InternalError, got %T %v", i, err, err)
				}
				if ie.Query != src || ie.Panic != "scan boom" || len(ie.Stack) == 0 {
					t.Fatalf("query %d: InternalError = %q / %v / %d stack bytes", i, ie.Query, ie.Panic, len(ie.Stack))
				}
			}
			if got := s.Stats().Panics; got != int64(tc.queries) {
				t.Fatalf("stats: %d panics, want %d", got, tc.queries)
			}
			if tc.batched {
				leaders, members := 0, 0
				for _, o := range outcomes {
					switch o {
					case batch.OutcomeLeader:
						leaders++
					case batch.OutcomeMember:
						members++
					}
				}
				if leaders != 1 || members < 1 {
					t.Fatalf("outcomes %v: want one leader and at least one member", outcomes)
				}
			}

			faultinject.Reset()
			res, err := s.Query(context.Background(), src)
			if err != nil || len(res.Rows) == 0 {
				t.Fatalf("the leg did not answer after the panic: %v", err)
			}
		})
	}
}
