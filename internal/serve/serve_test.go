package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sync"
	"testing"
	"time"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/faultinject"
	"mddm/internal/plan"
	"mddm/internal/qos"
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
// before the row cap is checked: the two-fact MO answers a LIMIT within a
// one-row cap and is still refused without one.
func TestFactsLimitUnderRowCap(t *testing.T) {
	s, _ := newTestServer(t, Limits{MaxResultRows: 1})
	res, err := s.Query(context.Background(), `SELECT FACTS FROM patients LIMIT 1`)
	if err != nil {
		t.Fatalf("LIMIT within the cap: %v", err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("%d rows, want 1", len(res.Rows))
	}
	if _, err := s.Query(context.Background(), `SELECT FACTS FROM patients`); !errors.Is(err, ErrResourceExhausted) {
		t.Fatalf("unlimited FACTS over the cap: got %v, want ErrResourceExhausted", err)
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

// TestEngineBuildFailureIs503 pins what a failed engine build does: after
// the catalog entry is replaced and its build forced to fail, every query
// on it — uncached, through the cache, over HTTP — fails with
// ErrUnavailable, which is a 503 with Retry-After. Nothing is cached, the
// old MO's engine is never served, and planned answers on the NEW
// registration resume once the fault clears.
func TestEngineBuildFailureIs503(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, cat := newTestServer(t, Limits{ResultCacheBytes: 1 << 20})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
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

	for i := 0; i < 3; i++ {
		// ?nocache=1's path: every call computes, so every call must fail.
		if _, err := s.Query(ctx, groupQuery); !errors.Is(err, ErrUnavailable) {
			t.Fatalf("call %d: err %v, want ErrUnavailable", i, err)
		}
		if _, out, err := s.ServeQuery(ctx, groupQuery); !errors.Is(err, ErrUnavailable) || out != (QueryOutcome{}) {
			t.Fatalf("cached call %d: outcome %+v err %v, want ErrUnavailable and no outcome", i, out, err)
		}
	}
	resp, body := getWithHeaders(t, ts, "/query?q="+url.QueryEscape(groupQuery), nil)
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Retry-After") != "1" {
		t.Fatalf("HTTP: status %d Retry-After %q (%s), want 503 with Retry-After 1",
			resp.StatusCode, resp.Header.Get("Retry-After"), body)
	}
	if st := s.ResultCacheStats(); st.Entries != 0 {
		t.Fatalf("cache holds %d entries under the fault, want none", st.Entries)
	}

	// Recovery: the fault clears, the engine builds, planned answers on the
	// new MO resume.
	faultinject.Disable(faultinject.EngineBuild)
	ectx, ex := plan.WithExplain(ctx)
	got, out, err := s.ServeQuery(ectx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "recovered vs algebra on the new MO", got, want)
	if out.CacheHit || ex.Mode != plan.ModePlanned {
		t.Fatalf("recovered: outcome %+v plan %+v, want a planned computation", out, ex)
	}
}

// TestEngineBuildBudgetUncharged pins that an engine build spends nothing
// of the fact budget of the query that triggers it: on an MO with five
// times more fact–dimension pairs than MaxFactsScanned, a global count,
// whose own scan fits the budget, answers on the call that builds the
// engine and on the one that reuses it — one build for both.
func TestEngineBuildBudgetUncharged(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 2000
	cat := NewCatalog()
	if err := cat.Register("gen", casestudy.MustGenerate(cfg)); err != nil {
		t.Fatal(err)
	}
	s := NewServer(cat, Limits{MaxFactsScanned: 3000}, testRef)
	for i := 0; i < 2; i++ {
		res, err := s.Query(context.Background(), `SELECT SETCOUNT(*) FROM gen`)
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if want := [][]string{{"2000"}}; !reflect.DeepEqual(res.Rows, want) {
			t.Fatalf("call %d: rows %v, want %v", i, res.Rows, want)
		}
	}
	if got := s.Stats().Rebuilds; got != 1 {
		t.Fatalf("%d engine builds, want 1", got)
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
	if !errors.Is(err, ErrCanceled) || errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}

// TestCanceledSharedBuildRetries pins that a caller waiting on another
// caller's engine build never inherits that caller's cancellation: when
// the shared build ends canceled, a waiter whose own context is live
// builds again and gets the engine.
func TestCanceledSharedBuildRetries(t *testing.T) {
	s, _ := newTestServer(t, Limits{})
	e := s.entry("patients")
	b := &buildState{done: make(chan struct{})}
	e.mu.Lock()
	e.inflight = b
	e.mu.Unlock()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	// The moment the waiter starts waiting on the build in flight, that
	// build ends with its leader's own cancellation, as a leader ends it.
	ctx := &doneHook{Context: context.Background(), hook: func() {
		b.err = fmt.Errorf("storage: engine build: %w", qos.Canceled(canceled))
		e.mu.Lock()
		e.inflight = nil
		e.mu.Unlock()
		close(b.done)
	}}
	eng, err := s.EngineFor(ctx, "patients")
	if err != nil || eng == nil {
		t.Fatalf("waiter: engine %v err %v, want its own build", eng, err)
	}
	if n := s.Stats().Rebuilds; n != 1 {
		t.Fatalf("%d builds, want the waiter's one", n)
	}
}

// doneHook is a context whose first Done call runs hook: a test's handle
// on the moment a caller starts waiting on it.
type doneHook struct {
	context.Context
	once sync.Once
	hook func()
}

func (c *doneHook) Done() <-chan struct{} {
	c.once.Do(c.hook)
	return c.Context.Done()
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
