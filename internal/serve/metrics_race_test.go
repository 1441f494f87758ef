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
	"mddm/internal/dimension"
	"mddm/internal/storage"
)

// TestMetricsScrapeUnderLoad is the race test for the observability
// surface: /metrics and /debug/queries are scraped continuously while
// concurrent queries (traced and untraced) run through the HTTP API, the
// catalog entry is re-registered to force engine-cache rebuilds, and a
// bitmap engine is maintained by incremental appends. Every one of these
// writes the shared metric registry; `go test -race` must stay silent.
func TestMetricsScrapeUnderLoad(t *testing.T) {
	s, cat := newTestServer(t, Limits{MaxFactsScanned: 1 << 20, ColumnMinValues: 8})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/metrics", s.MetricsHandler())
	mux.Handle("/debug/queries", s.ActiveQueriesHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	// The incrementally maintained engine. All new facts are related to
	// the MO up front — the MO is read-only once goroutines start; only
	// AppendFact and the aggregation calls race on the engine itself.
	cfg := casestudy.DefaultGen()
	cfg.Patients = 30
	m := casestudy.MustGenerate(cfg)
	eng := storage.NewEngine(m, dimension.CurrentContext(testRef))
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

	// Two scrapers: the full Prometheus exposition plus the in-flight
	// query inspector, decoded on every pass.
	for g := 0; g < 2; g++ {
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
				if err != nil || resp.StatusCode != http.StatusOK {
					fail("scrape: status %d err %v", resp.StatusCode, err)
					return
				}
				if !strings.Contains(string(body), "mddm_serve_queries_total") {
					fail("scrape: exposition missing serve counters")
					return
				}
				dresp, err := http.Get(ts.URL + "/debug/queries")
				if err != nil {
					fail("debug: %v", err)
					return
				}
				var dq struct {
					Queries []ActiveQuery `json:"queries"`
				}
				err = json.NewDecoder(dresp.Body).Decode(&dq)
				dresp.Body.Close()
				if err != nil {
					fail("debug: %v", err)
					return
				}
			}
		}()
	}

	// Two queriers, alternating traced and untraced queries.
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				u := ts.URL + "/query?q=" + url.QueryEscape(groupQuery)
				if (i+g)%2 == 0 {
					u += "&trace=1"
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
				if (i+g)%2 == 0 && qr.Trace == nil {
					fail("query: traced request returned no trace")
					return
				}
			}
		}(g)
	}

	// The registrar forces engine-cache rebuilds mid-flight.
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

	// The appender grows the engine while it aggregates from it between
	// appends — incremental maintenance under observation. Columns
	// are warmed first, so the appends also maintain the columnar layer.
	if err := eng.WarmColumns(context.Background(), 1); err != nil {
		t.Fatal(err)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx := context.Background()
		for i := 0; i < appends; i++ {
			if err := eng.AppendFact(fmt.Sprintf("new%d", i)); err != nil {
				fail("append: %v", err)
				return
			}
			if _, err := eng.CountDistinctByContext(ctx, casestudy.DimDiagnosis, casestudy.CatGroup); err != nil {
				fail("aggregate during append: %v", err)
				return
			}
		}
	}()

	// Concurrent read-path goroutines pin the RWMutex refactor: several
	// readers share the engine lock (bitmap kernels, column kernels, and
	// closure clones) while the appender takes the write lock. Under the
	// old exclusive mutex this mix serialized; under -race it now proves
	// reader-reader sharing is safe.
	for range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				if _, err := eng.CountByColumn(ctx, casestudy.DimDiagnosis, casestudy.CatLowLevel); err != nil {
					fail("column count: %v", err)
					return
				}
				if _, err := eng.SumByColumn(ctx, casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimAge); err != nil {
					fail("column sum: %v", err)
					return
				}
				if _, err := eng.CrossCountContext(ctx, casestudy.DimDiagnosis, casestudy.CatFamily, casestudy.DimResidence, casestudy.CatArea); err != nil {
					fail("cross count: %v", err)
					return
				}
				eng.Characterizing(casestudy.DimDiagnosis, lows[i%len(lows)])
			}
		}()
	}

	wg.Wait()

	// After the dust settles the registry still renders a consistent
	// exposition and the in-flight registry is empty.
	if got := len(s.ActiveQueries()); got != 0 {
		t.Errorf("%d queries still tracked after completion", got)
	}
}

// TestResultCacheRaceUnderLoad is the race test for the result cache:
// cached and cache-bypassing HTTP queries, single-flight fills, catalog
// re-registrations (generation bumps), and incremental appends through
// the sanctioned EngineFor path (epoch bumps) all run concurrently while
// /metrics is scraped for the mddm_cache_* counters. Two catalog entries
// keep the write mixes honest: "patients" is re-registered under load,
// "growing" is append-maintained — its facts are all related before any
// goroutine starts, so only AppendFact and lookups race on shared state.
func TestResultCacheRaceUnderLoad(t *testing.T) {
	s, cat := newTestServer(t, Limits{ResultCacheBytes: 1 << 20})
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/metrics", s.MetricsHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	cfg := casestudy.DefaultGen()
	cfg.Patients = 30
	grow := casestudy.MustGenerate(cfg)
	if err := cat.Register("growing", grow); err != nil {
		t.Fatal(err)
	}
	// The serving engine must exist before the new facts are related, and
	// the sanctioned flow gets it from the server so the appends bump the
	// epoch of the very engine that versions cached results.
	eng, err := s.EngineFor(context.Background(), "growing")
	if err != nil {
		t.Fatal(err)
	}
	const appends = 25
	lows := grow.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	for i := 0; i < appends; i++ {
		id := fmt.Sprintf("grown%d", i)
		if err := grow.Relate(casestudy.DimDiagnosis, id, lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
	}

	growQuery := `SELECT SETCOUNT(*) FROM growing GROUP BY Diagnosis."Diagnosis Group"`
	const iters = 25
	var wg sync.WaitGroup
	fail := func(format string, args ...any) {
		t.Errorf(format, args...)
	}

	// Scraper: the cache counters must render throughout.
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
			if err != nil || resp.StatusCode != http.StatusOK {
				fail("scrape: status %d err %v", resp.StatusCode, err)
				return
			}
			if !strings.Contains(string(body), "mddm_cache_hits_total") {
				fail("scrape: exposition missing cache counters")
				return
			}
		}
	}()

	// HTTP queriers over both catalog entries, mixing cached and nocache
	// requests; every response must carry a coherent cache header.
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src := groupQuery
				if (i+g)%2 == 0 {
					src = growQuery
				}
				u := ts.URL + "/query?q=" + url.QueryEscape(src)
				// The cache is delta-maintained: an entry an append made stale
				// may come back repaired.
				want := map[string]bool{"hit": true, "hit-upgraded": true, "miss": true}
				if (i+g)%3 == 0 {
					u += "&nocache=1"
					want = map[string]bool{"bypass": true}
				}
				resp, err := http.Get(u)
				if err != nil {
					fail("query: %v", err)
					return
				}
				hdr := resp.Header.Get("X-Mddm-Cache")
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail("query: status %d err %v", resp.StatusCode, err)
					return
				}
				if !want[hdr] {
					fail("query: X-Mddm-Cache = %q, want one of %v", hdr, want)
					return
				}
			}
		}(g)
	}

	// Direct cached callers exercising the single-flight path without HTTP
	// overhead.
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				if _, _, err := s.ServeQuery(ctx, growQuery); err != nil {
					fail("cached query: %v", err)
					return
				}
			}
		}()
	}

	// The registrar bumps the "patients" generation under load.
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

	// The appender bumps the "growing" epoch, invalidating cached results
	// for the queriers racing against it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := eng.AppendFact(fmt.Sprintf("grown%d", i)); err != nil {
				fail("append: %v", err)
				return
			}
		}
	}()

	wg.Wait()

	st := s.ResultCacheStats()
	if st.Hits+st.Misses == 0 {
		t.Error("the cache was never consulted")
	}
	// Every serve under load must have been correct-by-version: a final
	// quiescent lookup agrees with a fresh uncached computation.
	res, _, err := s.ServeQuery(context.Background(), growQuery)
	if err != nil {
		t.Fatal(err)
	}
	unc, err := s.Query(context.Background(), growQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res.Rows, unc.Rows) {
		t.Errorf("quiescent cached result diverges:\n%v\n%v", res.Rows, unc.Rows)
	}
}
