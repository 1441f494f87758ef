package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mddm/internal/admission"
	"mddm/internal/casestudy"
	"mddm/internal/faultinject"
)

// partialLessQuery is cacheable and keeps no delta partials (MEDIAN has no
// constant-size fold): after an append its entry cannot be upgraded, so a
// lookup must recompute — or, when shed, degrade to the stale entry.
const partialLessQuery = `SELECT MEDIAN(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`

// admissionLimits is the baseline config for the admission tests: a
// real controller in front of the query path, cache enabled.
func admissionLimits() Limits {
	return Limits{
		ResultCacheBytes: 1 << 20,
		Admission: admission.Config{
			MaxConcurrency: 2,
			TargetLatency:  time.Second,
			MaxQueue:       4,
		},
	}
}

func getWithHeaders(t *testing.T, ts *httptest.Server, path string, hdr map[string]string) (*http.Response, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

// TestHTTPStatusByErrorKind pins the HTTP status for every error kind
// the serving layer produces — in particular that an admission shed is
// 429 with Retry-After (503 while draining), never a 500, including
// when the shed propagates through the single-flight result-cache fill.
func TestHTTPStatusByErrorKind(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	limits := admissionLimits()
	limits.Admission.TenantRate = 1000 // quotas on, so QuotaExhausted has a path to fire
	limits.Admission.TenantBurst = 1000
	limits.MaxResultRows = 1000
	s, _ := newTestServer(t, limits)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	q := "/query?q=" + url.QueryEscape(groupQuery)

	// Healthy baseline: 200, and the result cache is filled for later.
	resp, _ := getWithHeaders(t, ts, q, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("baseline: status %d", resp.StatusCode)
	}
	if resp.Header.Get("X-Mddm-Request-Id") == "" {
		t.Error("baseline: no X-Mddm-Request-Id header")
	}

	// Admission shed (quota, via faultinject) → 429 + Retry-After, and
	// the error envelope still carries the request id. nocache=1 keeps
	// the warm cache from answering before admission is consulted.
	faultinject.Enable(faultinject.QuotaExhausted, nil)
	resp, body := getWithHeaders(t, ts, q+"&nocache=1", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("shed: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("shed: no Retry-After header")
	}
	if resp.Header.Get("X-Mddm-Request-Id") == "" {
		t.Error("shed: error response lost X-Mddm-Request-Id")
	}
	var fail errorResponse
	if err := json.Unmarshal(body, &fail); err != nil || !strings.Contains(fail.Error, "overloaded") {
		t.Errorf("shed: body %q does not name the overload", body)
	}

	// The same shed through the single-flight fill path: an uncached
	// query misses, so ServeQuery goes flights.Do → Query → shed, which
	// must surface as ErrOverloaded (429), not be folded into an
	// internal error (500).
	coldQuery := `SELECT SETCOUNT(*) FROM patients GROUP BY Residence."Region"`
	_, _, err := s.ServeQuery(context.Background(), coldQuery)
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("single-flight fill: err = %v, want ErrOverloaded", err)
	}
	if got := statusFor(err); got != http.StatusTooManyRequests {
		t.Errorf("single-flight fill: status %d, want 429", got)
	}
	faultinject.Reset()

	// Cache hits bypass admission entirely: with the quota still armed
	// this would shed, so arm it again and hit the warm entry.
	faultinject.Enable(faultinject.QuotaExhausted, nil)
	resp, _ = getWithHeaders(t, ts, q, nil)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Mddm-Cache") != "hit" {
		t.Fatalf("cache hit under shed: status %d cache %q, want 200 hit",
			resp.StatusCode, resp.Header.Get("X-Mddm-Cache"))
	}
	faultinject.Reset()

	// Resource exhaustion stays 429.
	if got := statusFor(fmt.Errorf("x: %w", ErrResourceExhausted)); got != http.StatusTooManyRequests {
		t.Errorf("exhausted: status %d, want 429", got)
	}
	// Cancellation/deadline — including a deadline that expired while
	// queued for admission (wrapped as ErrCanceled by serve.admit) — is
	// 504.
	if got := statusFor(fmt.Errorf("%w: %w", ErrCanceled, context.DeadlineExceeded)); got != http.StatusGatewayTimeout {
		t.Errorf("queue-expired: status %d, want 504", got)
	}
	// Internal errors stay 500, bad requests 400.
	if got := statusFor(&InternalError{Query: "q", Panic: "boom"}); got != http.StatusInternalServerError {
		t.Errorf("internal: status %d, want 500", got)
	}
	if got := statusFor(errors.New("parse error")); got != http.StatusBadRequest {
		t.Errorf("bad request: status %d, want 400", got)
	}

	// Draining → 503 on the wire.
	s.Drain()
	resp, _ = getWithHeaders(t, ts, q+"&nocache=1", nil)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining: status %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining: no Retry-After header")
	}
}

// TestRequestIDEchoAndUniqueness pins the request-id contract: a
// client-sent id is echoed back, and generated ids differ per request.
func TestRequestIDEchoAndUniqueness(t *testing.T) {
	ts := httpServer(t, Limits{})
	resp, _ := getWithHeaders(t, ts, "/healthz", map[string]string{"X-Mddm-Request-Id": "client-42"})
	if got := resp.Header.Get("X-Mddm-Request-Id"); got != "client-42" {
		t.Errorf("echo: got %q, want client-42", got)
	}
	r1, _ := getWithHeaders(t, ts, "/healthz", nil)
	r2, _ := getWithHeaders(t, ts, "/healthz", nil)
	id1, id2 := r1.Header.Get("X-Mddm-Request-Id"), r2.Header.Get("X-Mddm-Request-Id")
	if id1 == "" || id1 == id2 {
		t.Errorf("generated ids: %q then %q, want distinct non-empty", id1, id2)
	}
}

// TestRequestIDFormat pins the generated id's bytes to the
// fmt.Sprintf("%08x-%08x", nonce, seq) they have always been, for
// sequences below 2³² — padded to eight digits — and above it, where
// the sequence takes as many digits as it needs.
func TestRequestIDFormat(t *testing.T) {
	const nonce = uint32(0x00c0ffee)
	prefix := fmt.Sprintf("%08x-", nonce)
	for _, seq := range []uint64{0, 1, 0xabc, 0x1234567, 1<<32 - 1, 1 << 32, 0xdeadbeef01, 1<<64 - 1} {
		want := fmt.Sprintf("%08x-%08x", nonce, seq)
		if got := requestID(prefix, seq); got != want {
			t.Errorf("requestID(%q, %#x) = %q, want %q", prefix, seq, got, want)
		}
	}
	if !strings.HasSuffix(reqPrefix, "-") || len(reqPrefix) != 9 {
		t.Errorf("reqPrefix = %q, want eight hex digits and a dash", reqPrefix)
	}
}

// TestDegradedStaleOnShed drives graceful degradation end to end: fill
// the cache with a query a delta merge cannot repair, invalidate it with
// an append (version moves), arm the quota so the refill is shed — with
// StaleOnShed the server answers 200 from the stale entry with a warning
// and the degraded headers; without it the same traffic gets the 429.
func TestDegradedStaleOnShed(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	limits := admissionLimits()
	limits.Admission.TenantRate = 1000
	limits.Admission.TenantBurst = 1000
	limits.StaleOnShed = time.Minute
	s, _ := newTestServer(t, limits)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()

	// Engine first, then fill the cache (the fill happens at the
	// engine's current epoch).
	eng, err := s.EngineFor(ctx, "patients")
	if err != nil {
		t.Fatal(err)
	}
	fresh, out, err := s.ServeQuery(ctx, partialLessQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit || out.DegradedStale {
		t.Fatalf("first fill outcome = %+v", out)
	}

	// Move the version: relate and append one fact. The cached entry is
	// now version-stale.
	m, _ := s.cat.Get("patients")
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	if err := m.Relate(casestudy.DimDiagnosis, "shedfact", lows[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendFact("shedfact"); err != nil {
		t.Fatal(err)
	}

	// Shed the refill: the degraded path serves the stale entry.
	faultinject.Enable(faultinject.QuotaExhausted, nil)
	res, out, err := s.ServeQuery(ctx, partialLessQuery)
	if err != nil {
		t.Fatalf("degraded serve: %v", err)
	}
	if !out.DegradedStale || out.CacheHit {
		t.Fatalf("outcome = %+v, want DegradedStale", out)
	}
	if len(res.Warnings) == 0 || !strings.Contains(res.Warnings[len(res.Warnings)-1], "degraded") {
		t.Errorf("degraded result warnings = %v, want a degradation warning", res.Warnings)
	}
	if len(res.Rows) != len(fresh.Rows) {
		t.Errorf("degraded rows = %d, want the stale result's %d", len(res.Rows), len(fresh.Rows))
	}
	// The shared cached entry must not have accumulated the warning.
	if len(fresh.Warnings) != 0 {
		t.Errorf("cached entry mutated: warnings %v", fresh.Warnings)
	}
	if st := s.Stats(); st.DegradedServes != 1 {
		t.Errorf("DegradedServes = %d, want 1", st.DegradedServes)
	}

	// Same thing on the wire: 200 + the degraded headers.
	resp, _ := getWithHeaders(t, ts, "/query?q="+url.QueryEscape(partialLessQuery), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("degraded HTTP: status %d, want 200", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mddm-Degraded"); got != "stale-on-shed" {
		t.Errorf("X-Mddm-Degraded = %q", got)
	}
	if got := resp.Header.Get("X-Mddm-Cache"); got != "stale" {
		t.Errorf("X-Mddm-Cache = %q, want stale", got)
	}
	faultinject.Reset()

	// Recovered: the next query refills fresh (no degraded markers) and
	// observes the appended fact.
	res2, out, err := s.ServeQuery(ctx, partialLessQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.DegradedStale {
		t.Error("recovered query still degraded")
	}
	if len(res2.Warnings) != 0 {
		t.Errorf("recovered result warnings = %v", res2.Warnings)
	}
}

// TestShedWithoutStaleBoundIs429 is the control: identical overload,
// StaleOnShed zero — the stale entry exists but must NOT be served.
func TestShedWithoutStaleBoundIs429(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	limits := admissionLimits()
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
	if _, _, err := s.ServeQuery(ctx, partialLessQuery); err != nil {
		t.Fatal(err)
	}
	m, _ := s.cat.Get("patients")
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	if err := m.Relate(casestudy.DimDiagnosis, "shedfact", lows[0]); err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendFact("shedfact"); err != nil {
		t.Fatal(err)
	}

	faultinject.Enable(faultinject.QuotaExhausted, nil)
	resp, _ := getWithHeaders(t, ts, "/query?q="+url.QueryEscape(partialLessQuery), nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429 with no staleness bound", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mddm-Degraded"); got != "" {
		t.Errorf("X-Mddm-Degraded = %q on a plain shed", got)
	}
	if st := s.Stats(); st.DegradedServes != 0 {
		t.Errorf("DegradedServes = %d, want 0", st.DegradedServes)
	}
}

// TestTenantHeaderReachesQuota pins the HTTP→context tenant plumbing:
// one tenant exhausting its bucket gets 429s naming it while another
// keeps being served, via both the header and the query param.
func TestTenantHeaderReachesQuota(t *testing.T) {
	limits := admissionLimits()
	limits.Admission.TenantRate = 0.001 // no refill within the test
	limits.Admission.TenantBurst = 2
	s, _ := newTestServer(t, limits)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	q := "/query?nocache=1&q=" + url.QueryEscape(groupQuery)

	for i := 0; i < 2; i++ {
		resp, body := getWithHeaders(t, ts, q, map[string]string{"X-Mddm-Tenant": "hog"})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("hog %d: status %d (%s)", i, resp.StatusCode, body)
		}
	}
	resp, body := getWithHeaders(t, ts, q, map[string]string{"X-Mddm-Tenant": "hog"})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("exhausted hog: status %d (%s)", resp.StatusCode, body)
	}
	if !strings.Contains(string(body), "hog") {
		t.Errorf("shed body %q does not name the tenant", body)
	}
	// ?tenant= addresses the same bucket as the header.
	resp, _ = getWithHeaders(t, ts, q+"&tenant=hog", nil)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("param-addressed hog: status %d, want 429", resp.StatusCode)
	}
	// Other tenants (and the default bucket) are unaffected.
	resp, _ = getWithHeaders(t, ts, q, map[string]string{"X-Mddm-Tenant": "quiet"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet tenant: status %d", resp.StatusCode)
	}
	resp, _ = getWithHeaders(t, ts, q, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default bucket: status %d", resp.StatusCode)
	}
}

// TestAdmissionOverloadRaceUnderLoad is the -race stress for the whole
// overload surface: admitted, queued, shed, and degraded traffic runs
// concurrently with engine appends, catalog re-registrations, and
// /metrics scrapes. Nothing here asserts throughput — it asserts the
// absence of data races, leaked slots, and mis-filed responses.
func TestAdmissionOverloadRaceUnderLoad(t *testing.T) {
	limits := Limits{
		ResultCacheBytes: 1 << 20,
		StaleOnShed:      time.Minute,
		MaxFactsScanned:  1 << 20,
		Admission: admission.Config{
			MaxConcurrency: 2,
			TargetLatency:  500 * time.Microsecond, // aggressive: force the limiter to move
			MaxQueue:       2,
			TenantRate:     50,
			TenantBurst:    10,
		},
	}
	s, cat := newTestServer(t, limits)
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/metrics", s.MetricsHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)

	// The append-maintained entry: its facts are related before any
	// goroutine starts, and the engine comes from the sanctioned
	// EngineFor path so appends bump the epoch that versions cached
	// results for the queriers racing against them.
	cfg := casestudy.DefaultGen()
	cfg.Patients = 30
	grow := casestudy.MustGenerate(cfg)
	if err := cat.Register("growing", grow); err != nil {
		t.Fatal(err)
	}
	eng, err := s.EngineFor(context.Background(), "growing")
	if err != nil {
		t.Fatal(err)
	}
	const appends = 24
	lows := grow.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	for i := 0; i < appends; i++ {
		if err := grow.Relate(casestudy.DimDiagnosis, fmt.Sprintf("grown%d", i), lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
	}
	growQuery := `SELECT SETCOUNT(*) FROM growing GROUP BY Diagnosis."Diagnosis Group"`

	const iters = 40
	var admitted, shed, degraded atomic.Int64
	var wg sync.WaitGroup

	// Queriers: mixed tenants, cached and uncached, some with tight
	// client deadlines. Every response must be one of the understood
	// outcomes — 200 (fresh, hit, or degraded), 429/503 (shed), 504
	// (deadline) — never a 500.
	for g := 0; g < 6; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := &http.Client{Timeout: 5 * time.Second}
			for i := 0; i < iters; i++ {
				q := groupQuery
				if (g+i)%4 == 0 {
					q = growQuery
				}
				u := ts.URL + "/query?q=" + url.QueryEscape(q)
				if (g+i)%3 == 0 {
					u += "&nocache=1"
				}
				req, _ := http.NewRequest(http.MethodGet, u, nil)
				req.Header.Set("X-Mddm-Tenant", fmt.Sprintf("t%d", g%3))
				resp, err := client.Do(req)
				if err != nil {
					t.Errorf("querier %d: %v", g, err)
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					if resp.Header.Get("X-Mddm-Degraded") != "" {
						degraded.Add(1)
					} else {
						admitted.Add(1)
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1)
				case http.StatusGatewayTimeout:
					// queued past the client deadline; acceptable
				default:
					t.Errorf("querier %d: unexpected status %d", g, resp.StatusCode)
					return
				}
			}
		}()
	}

	// Scraper: the admission gauges and counters render continuously.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Errorf("scrape: %v", err)
				return
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if !strings.Contains(string(body), "mddm_admission_concurrency_limit") {
				t.Error("scrape: exposition missing admission metrics")
				return
			}
		}
	}()

	// Registrar: re-registrations move the result-cache version under
	// the queriers' feet.
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := patientMO(t)
		for i := 0; i < iters/10; i++ {
			if err := cat.Register("patients", base.Clone()); err != nil {
				t.Errorf("register: %v", err)
				return
			}
		}
	}()

	// Appender: epoch bumps on the "growing" entry invalidate cached
	// results while admitted and degraded reads are in flight.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			if err := eng.AppendFact(fmt.Sprintf("grown%d", i)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()

	wg.Wait()
	st := s.AdmissionStats()
	if st.Inflight != 0 || st.QueueDepth != 0 {
		t.Errorf("leaked admission state: %+v", st)
	}
	if admitted.Load() == 0 {
		t.Error("stress admitted nothing")
	}
	t.Logf("admitted %d, shed %d, degraded %d; admission stats %+v",
		admitted.Load(), shed.Load(), degraded.Load(), st)
}
