package serve

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/faultinject"
	"mddm/internal/storage"
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

func groupReq() AggRequest {
	return AggRequest{
		MO: "patients", Dim: casestudy.DimDiagnosis, Cat: casestudy.CatGroup,
		Kind: storage.KindCount,
	}
}

func TestAggregateBuildsOnceAndCaches(t *testing.T) {
	s, _ := newTestServer(t, Limits{})
	a, err := s.Aggregate(context.Background(), groupReq())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stale || a.Generation != 1 || len(a.Rows) == 0 {
		t.Fatalf("first answer: %+v", a)
	}
	b, err := s.Aggregate(context.Background(), groupReq())
	if err != nil {
		t.Fatal(err)
	}
	if b.Generation != 1 {
		t.Fatalf("second call rebuilt: %+v", b)
	}
	if s.Stats().Rebuilds != 1 {
		t.Fatalf("stats: %+v", s.Stats())
	}
}

// TestStaleWhileRevalidate is the degradation acceptance scenario: after
// the catalog entry is replaced, a forced engine-rebuild failure must
// not take queries down — repeated requests keep returning the last good
// answer, flagged stale with a warning, until the rebuild succeeds.
func TestStaleWhileRevalidate(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, cat := newTestServer(t, Limits{})
	good, err := s.Aggregate(context.Background(), groupReq())
	if err != nil {
		t.Fatal(err)
	}

	// Replace the MO (new pointer, same data) and make rebuilds fail.
	if err := cat.Register("patients", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk on fire")
	faultinject.Enable(faultinject.EngineBuild, boom)

	for i := 0; i < 3; i++ {
		a, err := s.Aggregate(context.Background(), groupReq())
		if err != nil {
			t.Fatalf("degraded call %d must not error: %v", i, err)
		}
		if !a.Stale || a.Generation != good.Generation {
			t.Fatalf("call %d: want stale generation %d, got %+v", i, good.Generation, a)
		}
		if len(a.Warnings) == 0 || !containsAll(a.Warnings[0], "stale", "rebuild failed", "disk on fire") {
			t.Fatalf("call %d: missing degradation warning: %v", i, a.Warnings)
		}
		if len(a.Rows) != len(good.Rows) {
			t.Fatalf("call %d: stale answer differs: %v vs %v", i, a.Rows, good.Rows)
		}
		for k, v := range good.Rows {
			if a.Rows[k] != v {
				t.Fatalf("call %d: stale answer differs at %q", i, k)
			}
		}
	}
	if s.Stats().StaleServes != 3 {
		t.Fatalf("stats: %+v", s.Stats())
	}

	// Recovery: disable the fault and the next call serves fresh.
	faultinject.Disable(faultinject.EngineBuild)
	a, err := s.Aggregate(context.Background(), groupReq())
	if err != nil {
		t.Fatal(err)
	}
	if a.Stale || a.Generation != good.Generation+1 {
		t.Fatalf("recovered answer: %+v", a)
	}
}

func TestRebuildFailureWithoutSnapshotErrors(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, _ := newTestServer(t, Limits{})
	faultinject.Enable(faultinject.EngineBuild, errors.New("cold start failure"))
	if _, err := s.Aggregate(context.Background(), groupReq()); err == nil {
		t.Fatal("no stale snapshot to degrade to: must error")
	}
}

func TestCanceledBuildPropagatesInsteadOfDegrading(t *testing.T) {
	s, cat := newTestServer(t, Limits{})
	if _, err := s.Aggregate(context.Background(), groupReq()); err != nil {
		t.Fatal(err)
	}
	// Force a rebuild with a pre-canceled context: the caller must see
	// its own cancellation, not a silently stale answer.
	if err := cat.Register("patients", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Aggregate(ctx, groupReq())
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
			_, errs[i] = s.Aggregate(context.Background(), groupReq())
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

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}
