package serve

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/faultinject"
	"mddm/internal/obs"
	"mddm/internal/plan"
	"mddm/internal/query"
	"mddm/internal/temporal"
)

var testRef = temporal.MustDate("01/01/1999")

func patientMO(t *testing.T) *core.MO {
	t.Helper()
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func newTestServer(t *testing.T, limits Limits) (*Server, *Catalog) {
	t.Helper()
	cat := NewCatalog()
	if err := cat.Register("patients", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	return NewServer(cat, limits, testRef), cat
}

func TestCatalogCopyOnWrite(t *testing.T) {
	cat := NewCatalog()
	m1 := patientMO(t)
	if err := cat.Register("patients", m1); err != nil {
		t.Fatal(err)
	}
	snap := cat.Snapshot()

	// Later registrations must not disturb the published snapshot.
	if err := cat.Register("other", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	cat.Deregister("patients")
	if got := snap["patients"]; got != m1 {
		t.Fatalf("old snapshot changed: %v", got)
	}
	if len(snap) != 1 {
		t.Fatalf("old snapshot grew: %v", len(snap))
	}
	if got := cat.Names(); len(got) != 1 || got[0] != "other" {
		t.Fatalf("names after deregister: %v", got)
	}
	if err := cat.Register("", m1); err == nil {
		t.Fatal("empty name must be rejected")
	}
	if err := cat.Register("x", nil); err == nil {
		t.Fatal("nil MO must be rejected")
	}
}

func TestCatalogConcurrentReadersAndWriters(t *testing.T) {
	cat := NewCatalog()
	m := patientMO(t)
	if err := cat.Register("patients", m); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := fmt.Sprintf("mo-%d-%d", w, i)
				if err := cat.Register(name, m); err != nil {
					t.Error(err)
					return
				}
				cat.Deregister(name)
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				if _, ok := cat.Get("patients"); !ok {
					t.Error("patients vanished")
					return
				}
				_ = cat.Snapshot()
			}
		}()
	}
	wg.Wait()
}

const groupQuery = `SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`

func TestQueryBasic(t *testing.T) {
	s, _ := newTestServer(t, Limits{})
	res, err := s.Query(context.Background(), groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Fatal("no rows")
	}
	if s.Stats().Queries != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

func TestQueryUnknownMO(t *testing.T) {
	s, _ := newTestServer(t, Limits{})
	if _, err := s.Query(context.Background(), `SELECT SETCOUNT(*) FROM nope`); err == nil {
		t.Fatal("unknown MO must error")
	}
}

func TestMaxResultRowsLimit(t *testing.T) {
	s, _ := newTestServer(t, Limits{MaxResultRows: 1})
	_, err := s.Query(context.Background(), groupQuery)
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("want ErrResourceExhausted, got %v", err)
	}
}

// TestFactsLimitUnderRowCap pins LIMIT on SELECT FACTS being applied
// before the row cap is checked, on the algebra path and the planner: the
// two-fact MO answers a LIMIT within a one-row cap and is still refused
// without one.
func TestFactsLimitUnderRowCap(t *testing.T) {
	for _, planner := range []bool{false, true} {
		s, _ := newTestServer(t, Limits{MaxResultRows: 1, Planner: planner})
		res, err := s.Query(context.Background(), `SELECT FACTS FROM patients LIMIT 1`)
		if err != nil {
			t.Fatalf("planner=%v: LIMIT within the cap: %v", planner, err)
		}
		if len(res.Rows) != 1 {
			t.Fatalf("planner=%v: %d rows, want 1", planner, len(res.Rows))
		}
		if _, err := s.Query(context.Background(), `SELECT FACTS FROM patients`); !errors.Is(err, ErrResourceExhausted) {
			t.Fatalf("planner=%v: unlimited FACTS over the cap: got %v, want ErrResourceExhausted", planner, err)
		}
	}
}

func TestMaxFactsScannedLimit(t *testing.T) {
	s, _ := newTestServer(t, Limits{MaxFactsScanned: 1})
	_, err := s.Query(context.Background(), groupQuery)
	if !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("want ErrResourceExhausted, got %v", err)
	}
}

func TestTimeoutLimit(t *testing.T) {
	s, _ := newTestServer(t, Limits{Timeout: time.Nanosecond})
	_, err := s.Query(context.Background(), groupQuery)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded in chain, got %v", err)
	}
}

func TestPanicIsolation(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, _ := newTestServer(t, Limits{})
	faultinject.EnablePanic(faultinject.QueryExec, "injected panic")
	_, err := s.Query(context.Background(), groupQuery)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("want ErrInternal, got %v", err)
	}
	var ie *InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("want *InternalError, got %T", err)
	}
	if ie.Query != groupQuery {
		t.Fatalf("query text lost: %q", ie.Query)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("stack lost")
	}
	if s.Stats().Panics != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
	// The server survives: the next query works.
	faultinject.Reset()
	if _, err := s.Query(context.Background(), groupQuery); err != nil {
		t.Fatal(err)
	}
}

// TestEngineBuildFailureDegradesToAlgebra is the degrade that remains:
// after the catalog entry is replaced, a forced engine-build failure must
// not take queries down and must not serve the old MO either — every
// query answers from the algebra on the NEW registration, counted once as
// an engine-unavailable fallback, and planned mode resumes when the fault
// clears.
func TestEngineBuildFailureDegradesToAlgebra(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, cat := newTestServer(t, Limits{Planner: true, ResultCacheBytes: 1 << 20, DeltaMaintenance: true})
	ctx := context.Background()
	if _, _, err := s.ServeQuery(ctx, groupQuery); err != nil {
		t.Fatal(err)
	}

	// A visibly different MO, so an answer from the old snapshot shows.
	m := patientMO(t)
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	if err := m.Relate(casestudy.DimDiagnosis, "extra", lows[0]); err != nil {
		t.Fatal(err)
	}
	if err := cat.Register("patients", m); err != nil {
		t.Fatal(err)
	}
	want, err := query.ExecContext(ctx, groupQuery, cat.Snapshot(), testRef)
	if err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.EngineBuild, errors.New("disk on fire"))

	// Registration is idempotent: this is the planner's own counter.
	unavailable := obs.NewCounter("mddm_plan_fallbacks_total", "",
		obs.Label{Key: "reason", Value: plan.ReasonEngineUnavailable})
	fallbacks := unavailable.Value()
	for i := 0; i < 3; i++ {
		ectx, ex := plan.WithExplain(ctx)
		// ?nocache=1's path: every call computes, so every call must degrade.
		got, err := s.Query(ectx, groupQuery)
		if err != nil {
			t.Fatalf("degraded call %d must not error: %v", i, err)
		}
		sameResult(t, fmt.Sprintf("degraded call %d vs algebra on the new MO", i), got, want)
		if ex.Mode != plan.ModeFallback || ex.Reason != plan.ReasonEngineUnavailable {
			t.Fatalf("call %d: plan %+v, want fallback/engine-unavailable", i, ex)
		}
		if d := unavailable.Value() - fallbacks; d != int64(i+1) {
			t.Fatalf("call %d: %d engine-unavailable fallbacks counted, want %d", i, d, i+1)
		}
	}
	got, out, err := s.ServeQuery(ctx, groupQuery)
	if err != nil || out.CacheHit {
		t.Fatalf("ServeQuery under the fault: hit=%v err=%v, want a computed answer", out.CacheHit, err)
	}
	sameResult(t, "ServeQuery under the fault vs algebra on the new MO", got, want)

	// Recovery: the fault clears, the engine builds, planned mode resumes.
	faultinject.Disable(faultinject.EngineBuild)
	ectx, ex := plan.WithExplain(ctx)
	got, err = s.Query(ectx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "recovered vs algebra", got, want)
	if ex.Mode != plan.ModePlanned {
		t.Fatalf("recovered plan %+v, want planned", ex)
	}
}

func TestRebuildFailureWithoutSnapshotErrors(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, _ := newTestServer(t, Limits{})
	faultinject.Enable(faultinject.EngineBuild, errors.New("cold start failure"))
	if _, err := s.EngineFor(context.Background(), "patients"); err == nil {
		t.Fatal("no engine could be built: must error")
	}
}

func TestCanceledBuildPropagatesInsteadOfDegrading(t *testing.T) {
	s, cat := newTestServer(t, Limits{})
	if _, err := s.EngineFor(context.Background(), "patients"); err != nil {
		t.Fatal(err)
	}
	// Force a rebuild with a pre-canceled context: the caller must see
	// its own cancellation, not a silently stale engine.
	if err := cat.Register("patients", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.EngineFor(ctx, "patients")
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

func TestSingleFlightBuild(t *testing.T) {
	s, _ := newTestServer(t, Limits{})
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.EngineFor(context.Background(), "patients")
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	if got := s.Stats().Rebuilds; got != 1 {
		t.Fatalf("want exactly 1 build for %d concurrent callers, got %d", n, got)
	}
}
