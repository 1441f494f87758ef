package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/plan"
	"mddm/internal/query"
	"mddm/internal/storage"
)

// TestPlannerServerParity runs the same queries through a planner server
// and a plain algebra server and requires identical responses — the
// serving-layer leg of the differential oracle (the package-level legs
// live in internal/plan).
func TestPlannerServerParity(t *testing.T) {
	planned, _ := newTestServer(t, Limits{Planner: true, Parallelism: 2})
	algebra, _ := newTestServer(t, Limits{})
	for _, src := range []string{
		groupQuery,
		`SELECT SETCOUNT(*) FROM patients`,
		`SELECT AVG(Age) FROM patients WHERE Residence = 'R1'`,
		`SELECT SUM(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group", Residence`,
		`SELECT FACTS FROM patients WHERE Diagnosis IN ('E10', 'E11')`,
		`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Family" ASOF VALID '15/06/1975'`,
		`SELECT MEDIAN(Age) FROM patients`,
		`DESCRIBE patients Diagnosis`,
		`SELECT SETCOUNT(*) FROM nowhere`,
	} {
		r1, err1 := planned.Query(context.Background(), src)
		r2, err2 := algebra.Query(context.Background(), src)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: planner server err %v, algebra server err %v", src, err1, err2)
		}
		if err1 != nil {
			if err1.Error() != err2.Error() {
				t.Fatalf("%s: error text diverged: %q vs %q", src, err1, err2)
			}
			continue
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("%s: results diverged:\n planner: %+v\n algebra: %+v", src, r1, r2)
		}
	}
}

// TestPlannerExplainHTTP pins the ?plan=1 wire format: a planner server
// reports the chosen plan, a fallback query reports its reason, and a
// server without the planner omits the field entirely.
func TestPlannerExplainHTTP(t *testing.T) {
	s, _ := newTestServer(t, Limits{Planner: true})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	get := func(u string) (queryResponse, int) {
		t.Helper()
		resp, err := http.Get(u)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr queryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
			t.Fatal(err)
		}
		return qr, resp.StatusCode
	}

	qr, code := get(ts.URL + "/query?plan=1&q=" + url.QueryEscape(groupQuery))
	if code != http.StatusOK || qr.Plan == nil {
		t.Fatalf("status %d plan %+v, want OK with a plan", code, qr.Plan)
	}
	if qr.Plan.Mode != plan.ModePlanned || qr.Plan.Shape != plan.ShapeKernelCount {
		t.Fatalf("plan %+v, want planned/kernel-count", qr.Plan)
	}

	qr, code = get(ts.URL + "/query?plan=1&q=" + url.QueryEscape(`SELECT EXPECTED(*) FROM patients`))
	if code != http.StatusOK || qr.Plan == nil {
		t.Fatalf("status %d plan %+v, want OK with a plan", code, qr.Plan)
	}
	if qr.Plan.Mode != plan.ModePlanned || qr.Plan.Shape != plan.ShapeGlobal || qr.Plan.View != storage.ViewBuilt {
		t.Fatalf("plan %+v, want planned/global from a built view", qr.Plan)
	}

	qr, code = get(ts.URL + "/query?plan=1&q=" + url.QueryEscape(`DESCRIBE patients Diagnosis`))
	if code != http.StatusOK || qr.Plan == nil {
		t.Fatalf("status %d plan %+v, want OK with a plan", code, qr.Plan)
	}
	if qr.Plan.Mode != plan.ModeFallback || qr.Plan.Reason != plan.ReasonDescribe {
		t.Fatalf("plan %+v, want fallback/describe", qr.Plan)
	}

	// Without ?plan= the field stays off the wire.
	qr, code = get(ts.URL + "/query?q=" + url.QueryEscape(groupQuery))
	if code != http.StatusOK || qr.Plan != nil {
		t.Fatalf("status %d plan %+v, want OK without a plan", code, qr.Plan)
	}

	// Malformed values are a 400, matching ?trace=.
	if _, code = get(ts.URL + "/query?plan=maybe&q=" + url.QueryEscape(groupQuery)); code != http.StatusBadRequest {
		t.Fatalf("status %d for plan=maybe, want 400", code)
	}

	// A server without the planner accepts ?plan=1 but has nothing to
	// report — the knob degrades gracefully instead of erroring.
	plain, _ := newTestServer(t, Limits{})
	tsp := httptest.NewServer(plain.Handler())
	t.Cleanup(tsp.Close)
	qr, code = get(tsp.URL + "/query?plan=1&q=" + url.QueryEscape(groupQuery))
	if code != http.StatusOK || qr.Plan != nil {
		t.Fatalf("status %d plan %+v, want OK without a plan on a non-planner server", code, qr.Plan)
	}
}

// TestPlannerResultCacheCompatible: planned and algebra execution share
// the canonical cache key, so a planner server's cache entries behave
// exactly like an algebra server's — fill on miss, hit on repeat.
func TestPlannerResultCacheCompatible(t *testing.T) {
	s, _ := newTestServer(t, Limits{Planner: true, ResultCacheBytes: 1 << 20})
	ctx := context.Background()
	// Resolve the engine first: building it during the first fill would
	// move the result version from the "no engine" sentinel (one benign
	// extra miss after every engine build, by the versioning design).
	if _, err := s.EngineFor(ctx, "patients"); err != nil {
		t.Fatal(err)
	}
	fresh, out, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("first execution reported a cache hit")
	}
	again, out, err := s.ServeQuery(ctx, "  "+groupQuery+"  ")
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatal("canonically equal query missed the cache")
	}
	if !reflect.DeepEqual(fresh.Rows, again.Rows) {
		t.Fatalf("cache returned different rows: %v vs %v", fresh.Rows, again.Rows)
	}
}

// TestPlannerRaceUnderLoad extends the serving race suite to the planner
// path: planned queries (HTTP, with and without ?plan=1), catalog
// re-registrations forcing engine rebuilds, incremental AppendFact on the
// served engine, and /metrics scrapes all run concurrently; `go test
// -race` must stay silent and a quiescent differential check afterwards
// proves no torn engine snapshot leaked into results.
func TestPlannerRaceUnderLoad(t *testing.T) {
	cat := NewCatalog()
	m := patientMO(t)
	if err := cat.Register("patients", m); err != nil {
		t.Fatal(err)
	}
	s := NewServer(cat, Limits{Planner: true, Parallelism: 2, MaxFactsScanned: 1 << 20, ColumnMinValues: 8}, testRef)
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/metrics", s.MetricsHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	// Build the served engine, then relate the facts the appender will
	// index incrementally. The MO is read-only once the storm starts;
	// only AppendFact mutates (engine state, not MO state).
	eng, err := s.EngineFor(context.Background(), "patients")
	if err != nil {
		t.Fatal(err)
	}
	const appends = 25
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	for i := 0; i < appends; i++ {
		id := fmt.Sprintf("new%d", i)
		if err := m.Relate(casestudy.DimDiagnosis, id, lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
	}

	const iters = 25
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Planned queriers, alternating explain and plain requests.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u := ts.URL + "/query?parallelism=2&q=" + url.QueryEscape(groupQuery)
				explained := (i+g)%2 == 0
				if explained {
					u += "&plan=1"
				}
				resp, err := http.Get(u)
				if err != nil {
					fail("query: %v", err)
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail("query: status %d err %v", resp.StatusCode, err)
					return
				}
				if explained && (qr.Plan == nil || qr.Plan.Mode != plan.ModePlanned) {
					fail("query: explained planned query returned plan %+v", qr.Plan)
					return
				}
			}
		}(g)
	}

	// A context-view querier: resolving, indexing and scanning views races
	// with the appender dropping them and the registrar replacing their
	// base; every other request is a DESCRIBE, which keeps the algebra path
	// and its counters in the race.
	wg.Add(1)
	go func() {
		defer wg.Done()
		views := []string{
			`SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Family" ASOF VALID '15/06/1975'`,
			`SELECT EXPECTED(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
			`SELECT AVG(Age) FROM patients GROUP BY Residence."Region" ASOF VALID '15/06/1985' WITH PROB >= 0.5`,
			`DESCRIBE patients Diagnosis`,
		}
		for i := 0; i < 2*iters; i++ {
			src := views[i%len(views)]
			resp, err := http.Get(ts.URL + "/query?plan=1&q=" + url.QueryEscape(src))
			if err != nil {
				fail("view query: %v", err)
				return
			}
			var qr queryResponse
			err = json.NewDecoder(resp.Body).Decode(&qr)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK || qr.Plan == nil {
				fail("view query %s: status %d err %v", src, resp.StatusCode, err)
				return
			}
			if describe := i%len(views) == 3; describe != (qr.Plan.Mode == plan.ModeFallback) || describe == (qr.Plan.View != "") {
				fail("view query %s: plan %+v", src, qr.Plan)
				return
			}
		}
	}()

	// The metrics scraper must always see the planner series.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				fail("scrape: %v", err)
				return
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				fail("scrape: %v", err)
				return
			}
			if !strings.Contains(string(body), "mddm_plan_queries_total") {
				fail("scrape: exposition missing planner counters")
				return
			}
		}
	}()

	// The registrar swaps the catalog entry, forcing planner queries onto
	// freshly built engines mid-flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := patientMO(t)
		for i := 0; i < iters/5; i++ {
			if err := cat.Register("patients", base.Clone()); err != nil {
				fail("register: %v", err)
				return
			}
		}
	}()

	// The appender grows the originally served engine while planner reads
	// share its lock.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := eng.AppendFact(fmt.Sprintf("new%d", i)); err != nil {
				fail("append: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent differential check: whatever engine the server now holds,
	// planner output must equal the algebra's over the same snapshot.
	r1, err := s.Query(context.Background(), groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := query.ExecContext(context.Background(), groupQuery, s.cat.Snapshot(), s.ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("post-storm planner rows diverged from algebra:\n planner: %v\n algebra: %v", r1.Rows, r2.Rows)
	}
}
