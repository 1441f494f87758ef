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
	"time"

	"mddm/internal/agg"
	"mddm/internal/batch"
	"mddm/internal/casestudy"
	"mddm/internal/faultinject"
	"mddm/internal/plan"
	"mddm/internal/query"
)

func batchedLimits() Limits {
	return Limits{
		Batching: batch.Config{
			Enabled:      true,
			GatherWindow: 5 * time.Millisecond,
		},
	}
}

// TestBatchDifferentialOracle is the serving-layer oracle for shared-scan
// batching: for EVERY registered aggregate function, a batched server must
// answer bit-identically to a solo server and to the algebra — and the
// batch outcome flag must prove which path actually ran: every aggregate
// is batchable (MEDIAN as a list member, the probabilistic functions as
// probability members of a context view's scan) and must report leader or
// member — a silent bypass-to-solo fails the test — while DESCRIBE, which
// has no kernel leg, must report solo with the describe bypass reason.
func TestBatchDifferentialOracle(t *testing.T) {
	batched, cat := newTestServer(t, batchedLimits())
	solo, _ := newTestServer(t, Limits{})
	for _, name := range agg.Names() {
		fn, err := agg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		arg := "(*)"
		if fn.NeedsArg {
			arg = "(Age)"
		}
		for _, src := range []string{
			fmt.Sprintf(`SELECT %s%s FROM patients GROUP BY Diagnosis."Diagnosis Group"`, name, arg),
			fmt.Sprintf(`SELECT %s%s FROM patients WHERE Age >= 30 GROUP BY Residence."Region"`, name, arg),
		} {
			ctx, bo := WithBatchOutcome(context.Background())
			rb, errB := batched.Query(ctx, src)
			rs, errS := solo.Query(context.Background(), src)
			ra, errA := query.ExecContext(context.Background(), src, cat.Snapshot(), testRef)
			if (errB == nil) != (errS == nil) || (errB == nil) != (errA == nil) {
				t.Fatalf("%s: errs batched=%v solo=%v algebra=%v", src, errB, errS, errA)
			}
			if errB != nil {
				if errB.Error() != errS.Error() || errB.Error() != errA.Error() {
					t.Fatalf("%s: error text diverged:\n batched: %v\n solo:    %v\n algebra: %v",
						src, errB, errS, errA)
				}
			} else {
				if !reflect.DeepEqual(rb, rs) {
					t.Fatalf("%s: batched diverged from solo:\n batched: %+v\n solo:    %+v", src, rb, rs)
				}
				if !reflect.DeepEqual(rb, ra) {
					t.Fatalf("%s: batched diverged from algebra:\n batched: %+v\n algebra: %+v", src, rb, ra)
				}
			}
			if bo.Outcome != batch.OutcomeLeader && bo.Outcome != batch.OutcomeMember {
				t.Fatalf("%s: outcome %q (reason %q), want leader or member — silent bypass",
					src, bo.Outcome, bo.Reason)
			}
		}
	}
	ctx, bo := WithBatchOutcome(context.Background())
	if _, err := batched.Query(ctx, `DESCRIBE patients Diagnosis`); err != nil {
		t.Fatal(err)
	}
	if bo.Outcome != batch.OutcomeSolo || bo.Reason != plan.BypassDescribe {
		t.Fatalf("DESCRIBE: outcome %q reason %q, want solo/describe", bo.Outcome, bo.Reason)
	}
	if st := batched.BatchStats(); st.Batches == 0 || st.Bypasses[plan.BypassDescribe] == 0 {
		t.Fatalf("stats %+v, want batches and describe bypasses", st)
	}
}

// TestBatchMemberFusion drives concurrent similar queries (same grouping
// leg, different WHERE) into one gather window and asserts real fusion:
// at least one member outcome, shared-scan savings, and every member's
// result identical to its own solo execution.
func TestBatchMemberFusion(t *testing.T) {
	limits := batchedLimits()
	limits.Batching.GatherWindow = 100 * time.Millisecond
	batched, _ := newTestServer(t, limits)
	solo, _ := newTestServer(t, Limits{})

	regions := []string{"R0", "R1", "R2", "R3"}
	srcs := make([]string, 8)
	for i := range srcs {
		srcs[i] = fmt.Sprintf(
			`SELECT SETCOUNT(*) FROM patients WHERE Residence = '%s' GROUP BY Diagnosis."Diagnosis Group"`,
			regions[i%len(regions)])
	}
	outcomes := make([]batch.Outcome, len(srcs))
	results := make([]*query.Result, len(srcs))
	var wg sync.WaitGroup
	for i, src := range srcs {
		wg.Add(1)
		go func(i int, src string) {
			defer wg.Done()
			ctx, bo := WithBatchOutcome(context.Background())
			r, err := batched.Query(ctx, src)
			if err != nil {
				t.Errorf("%s: %v", src, err)
				return
			}
			outcomes[i] = bo.Outcome
			results[i] = r
		}(i, src)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	leaders, members := 0, 0
	for i, o := range outcomes {
		switch o {
		case batch.OutcomeLeader:
			leaders++
		case batch.OutcomeMember:
			members++
		default:
			t.Fatalf("query %d: outcome %q", i, o)
		}
	}
	if leaders == 0 || members == 0 {
		t.Fatalf("outcomes: %d leaders, %d members — no fusion happened", leaders, members)
	}
	if st := batched.BatchStats(); st.ScansSaved == 0 {
		t.Fatalf("stats %+v, want shared-scan savings", st)
	}
	for i, src := range srcs {
		want, err := solo.Query(context.Background(), src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("%s: batched member diverged from solo:\n batched: %+v\n solo:    %+v", src, results[i], want)
		}
	}
}

// TestBatchHeaderPrecedence pins the X-Mddm-Batch / X-Mddm-Cache /
// X-Mddm-Degraded precedence table (docs/TRAFFIC.md): the batch header
// appears exactly when the answer was computed through the batch-enabled
// planner branch — cache hits and degraded stale-on-shed serves carry the
// cache headers alone, ?nocache=1 computes and carries both.
func TestBatchHeaderPrecedence(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	limits := batchedLimits()
	limits.ResultCacheBytes = 1 << 20
	limits.StaleOnShed = time.Minute
	limits.Admission = admissionLimits().Admission
	limits.Admission.TenantRate = 1000
	limits.Admission.TenantBurst = 1000
	s, _ := newTestServer(t, limits)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	eng, err := s.EngineFor(ctx, "patients")
	if err != nil {
		t.Fatal(err)
	}
	// A batchable query without delta partials, so after the append below
	// its entry can only be served degraded, never upgraded.
	q := "/query?q=" + url.QueryEscape(partialLessQuery)

	// Miss: computed through the batch branch — batch header present
	// (single query: leader), cache header miss.
	resp, _ := getWithHeaders(t, ts, q, nil)
	if got := resp.Header.Get("X-Mddm-Cache"); got != "miss" {
		t.Fatalf("fill: X-Mddm-Cache = %q, want miss", got)
	}
	if got := resp.Header.Get("X-Mddm-Batch"); got != "leader" {
		t.Fatalf("fill: X-Mddm-Batch = %q, want leader", got)
	}

	// Hit: answered from memory, never reached the planner — no batch
	// header.
	resp, _ = getWithHeaders(t, ts, q, nil)
	if got := resp.Header.Get("X-Mddm-Cache"); got != "hit" {
		t.Fatalf("hit: X-Mddm-Cache = %q, want hit", got)
	}
	if got := resp.Header.Get("X-Mddm-Batch"); got != "" {
		t.Fatalf("hit: X-Mddm-Batch = %q, want absent", got)
	}

	// Bypass: ?nocache=1 computes through the batch branch every time.
	resp, _ = getWithHeaders(t, ts, q+"&nocache=1", nil)
	if got := resp.Header.Get("X-Mddm-Cache"); got != "bypass" {
		t.Fatalf("nocache: X-Mddm-Cache = %q, want bypass", got)
	}
	if got := resp.Header.Get("X-Mddm-Batch"); got != "leader" {
		t.Fatalf("nocache: X-Mddm-Batch = %q, want leader", got)
	}

	// Non-batchable shape: computed, so the batch header appears — as
	// solo, with the planner having counted the bypass.
	facts := "/query?nocache=1&q=" + url.QueryEscape(`SELECT FACTS FROM patients WHERE Residence = 'R1'`)
	resp, _ = getWithHeaders(t, ts, facts, nil)
	if got := resp.Header.Get("X-Mddm-Batch"); got != "solo" {
		t.Fatalf("facts: X-Mddm-Batch = %q, want solo", got)
	}

	// Stale-on-shed: invalidate the cached entry with an append, shed the
	// refill — the degraded serve comes from the stale cache entry and
	// must NOT claim a batch outcome.
	m, _ := s.cat.Get("patients")
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	if err := m.Relate(casestudy.DimDiagnosis, "shedfact", lows[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendFact("shedfact"); err != nil {
		t.Fatal(err)
	}
	faultinject.Enable(faultinject.QuotaExhausted, nil)
	resp, _ = getWithHeaders(t, ts, q, nil)
	faultinject.Reset()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mddm-Degraded"); got != "stale-on-shed" {
		t.Fatalf("degraded: X-Mddm-Degraded = %q", got)
	}
	if got := resp.Header.Get("X-Mddm-Cache"); got != "stale" {
		t.Fatalf("degraded: X-Mddm-Cache = %q, want stale", got)
	}
	if got := resp.Header.Get("X-Mddm-Batch"); got != "" {
		t.Fatalf("degraded: X-Mddm-Batch = %q, want absent on a stale serve", got)
	}

	// A server without batching never emits the header, computed or not.
	plain, _ := newTestServer(t, Limits{})
	tsp := httptest.NewServer(plain.Handler())
	t.Cleanup(tsp.Close)
	resp, _ = getWithHeaders(t, tsp, q, nil)
	if got := resp.Header.Get("X-Mddm-Batch"); got != "" {
		t.Fatalf("plain server: X-Mddm-Batch = %q, want absent", got)
	}
}

// TestBatchRaceUnderLoad extends the serving race suite to the batch
// scheduler: batched similar queries (nocache), cached delta-upgrade
// traffic, incremental AppendFact on the served engine, catalog
// re-registrations (forcing new engines — and therefore new batch keys)
// and /metrics scrapes all run concurrently. `go test -race` must stay
// silent, and a quiescent differential check proves no torn batch state
// leaked into results.
func TestBatchRaceUnderLoad(t *testing.T) {
	cat := NewCatalog()
	m := patientMO(t)
	if err := cat.Register("patients", m); err != nil {
		t.Fatal(err)
	}
	limits := batchedLimits()
	limits.ResultCacheBytes = 1 << 20
	limits.MaxFactsScanned = 1 << 20
	limits.ColumnMinValues = 8
	s := NewServer(cat, limits, testRef)
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/metrics", s.MetricsHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

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

	// Batched queriers: similar queries, cache bypassed so every request
	// runs through the scheduler.
	regions := []string{"R0", "R1", "R2"}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				src := fmt.Sprintf(
					`SELECT SETCOUNT(*) FROM patients WHERE Residence = '%s' GROUP BY Diagnosis."Diagnosis Group"`,
					regions[(g+i)%len(regions)])
				resp, err := http.Get(ts.URL + "/query?nocache=1&q=" + url.QueryEscape(src))
				if err != nil {
					fail("batched query: %v", err)
					return
				}
				var qr queryResponse
				err = json.NewDecoder(resp.Body).Decode(&qr)
				outcome := resp.Header.Get("X-Mddm-Batch")
				resp.Body.Close()
				if err != nil || resp.StatusCode != http.StatusOK {
					fail("batched query: status %d err %v", resp.StatusCode, err)
					return
				}
				if outcome == "" {
					fail("batched query: no X-Mddm-Batch header on a computed answer")
					return
				}
			}
		}(g)
	}

	// The cached querier exercises fill → hit → delta-upgrade while the
	// appender moves the engine's epoch.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(groupQuery))
			if err != nil {
				fail("cached query: %v", err)
				return
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				fail("cached query: status %d", resp.StatusCode)
				return
			}
		}
	}()

	// The registrar swaps the catalog entry: queries planned against the
	// old engine must never share a scan with queries on the new one.
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

	// The appender grows the originally served engine.
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

	// The scraper must always see the batch series.
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
			if !strings.Contains(string(body), "mddm_batch_batches_total") {
				fail("scrape: exposition missing batch counters")
				return
			}
		}
	}()

	wg.Wait()
	if t.Failed() {
		return
	}

	// Quiescent differential check: whatever engine the server now holds,
	// the batched path must equal the algebra over the same snapshot.
	ctx, bo := WithBatchOutcome(context.Background())
	r1, err := s.Query(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if bo.Outcome == "" {
		t.Fatal("post-storm query reported no batch outcome")
	}
	r2, err := query.ExecContext(context.Background(), groupQuery, s.cat.Snapshot(), s.ref)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("post-storm batched rows diverged from algebra:\n batched: %v\n algebra: %v", r1.Rows, r2.Rows)
	}
}
