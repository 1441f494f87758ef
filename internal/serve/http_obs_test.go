package serve

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"testing"
)

// obsServer mounts the full observability surface the way cmd/mdserve
// does behind -metrics: the query API at /, plus /metrics and
// /debug/queries.
func obsServer(t *testing.T, limits Limits) *httptest.Server {
	t.Helper()
	s, _ := newTestServer(t, limits)
	mux := http.NewServeMux()
	mux.Handle("/", s.Handler())
	mux.Handle("/metrics", s.MetricsHandler())
	mux.Handle("/debug/queries", s.ActiveQueriesHandler())
	ts := httptest.NewServer(mux)
	t.Cleanup(ts.Close)
	return ts
}

// TestQueryEndpointErrorEnvelopes pins the exact status code, the Allow
// header where applicable, and the JSON error envelope for every
// malformed-request path of /query.
func TestQueryEndpointErrorEnvelopes(t *testing.T) {
	ts := httpServer(t, Limits{})
	cases := []struct {
		name       string
		method     string
		target     string
		wantStatus int
		wantAllow  string
		wantErr    string // substring of the envelope's error field
	}{
		{
			name: "invalid trace", method: http.MethodGet,
			target:     "/query?trace=maybe&q=" + url.QueryEscape(groupQuery),
			wantStatus: http.StatusBadRequest, wantErr: `invalid trace "maybe"`,
		},
		{
			name: "method not allowed PUT", method: http.MethodPut,
			target:     "/query?q=" + url.QueryEscape(groupQuery),
			wantStatus: http.StatusMethodNotAllowed, wantAllow: "GET, POST",
			wantErr: "method PUT not allowed",
		},
		{
			name: "method not allowed DELETE", method: http.MethodDelete,
			target:     "/query",
			wantStatus: http.StatusMethodNotAllowed, wantAllow: "GET, POST",
			wantErr: "method DELETE not allowed",
		},
		{
			name: "no query at all", method: http.MethodGet,
			target:     "/query",
			wantStatus: http.StatusBadRequest, wantErr: "no query",
		},
		{
			name: "POST with empty body", method: http.MethodPost,
			target:     "/query",
			wantStatus: http.StatusBadRequest, wantErr: "no query",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			req, err := http.NewRequest(tc.method, ts.URL+tc.target, nil)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			defer resp.Body.Close()
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status %d, want %d", resp.StatusCode, tc.wantStatus)
			}
			if tc.wantAllow != "" && resp.Header.Get("Allow") != tc.wantAllow {
				t.Errorf("Allow = %q, want %q", resp.Header.Get("Allow"), tc.wantAllow)
			}
			if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
				t.Errorf("Content-Type = %q, want application/json", ct)
			}
			var fail errorResponse
			if err := json.NewDecoder(resp.Body).Decode(&fail); err != nil {
				t.Fatalf("error envelope is not JSON: %v", err)
			}
			if !strings.Contains(fail.Error, tc.wantErr) {
				t.Errorf("error %q does not contain %q", fail.Error, tc.wantErr)
			}
		})
	}
}

// TestQueryTraceOptIn drives ?trace=1 end to end: the response carries a
// trace summary whose span covers the planned query, and untraced requests
// carry none.
func TestQueryTraceOptIn(t *testing.T) {
	ts := httpServer(t, Limits{})
	resp, err := http.Get(ts.URL + "/query?trace=1&q=" + url.QueryEscape(groupQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var qr queryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace == nil {
		t.Fatal("traced request returned no trace")
	}
	if qr.Trace.Query != groupQuery {
		t.Errorf("trace query = %q", qr.Trace.Query)
	}
	if qr.Trace.TotalNs <= 0 {
		t.Errorf("trace elapsed = %d", qr.Trace.TotalNs)
	}
	seen := map[string]bool{}
	for _, sp := range qr.Trace.Spans {
		seen[sp.Name] = true
		if sp.DurNs < 0 {
			t.Errorf("span %s has negative duration", sp.Name)
		}
	}
	if !seen["plan.query"] {
		t.Errorf("trace has no plan.query span (spans: %v)", seen)
	}
	if qr.Trace.Attrs["rows"] == 0 {
		t.Errorf("trace attrs missing rows: %v", qr.Trace.Attrs)
	}

	// ?trace=0 and no trace parameter both stay trace-free.
	for _, q := range []string{"?trace=0&q=", "?q="} {
		resp, err := http.Get(ts.URL + "/query" + q + url.QueryEscape(groupQuery))
		if err != nil {
			t.Fatal(err)
		}
		var plain queryResponse
		err = json.NewDecoder(resp.Body).Decode(&plain)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if plain.Trace != nil {
			t.Errorf("%s: unexpected trace in response", q)
		}
	}
}

// TestMetricsEndpointSurface asserts the scrape contract cmd/mdserve's
// selfcheck relies on: content type, the serving/engine/operator series,
// and well-formed histogram output with a +Inf bucket.
func TestMetricsEndpointSurface(t *testing.T) {
	ts := obsServer(t, Limits{})
	// One traced query so every layer has recorded something.
	resp, err := http.Get(ts.URL + "/query?trace=1&q=" + url.QueryEscape(groupQuery))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Errorf("Content-Type = %q", ct)
	}
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	body := string(raw)
	for _, want := range []string{
		"# TYPE mddm_serve_queries_total counter",
		"mddm_serve_engine_cache_total{outcome=\"rebuild\"}",
		"mddm_qos_budget_spent_facts_total",
		"mddm_operator_seconds_bucket{op=\"aggregate\",le=\"+Inf\"}",
		"mddm_operator_seconds_count{op=\"parse\"}",
		"mddm_serve_query_seconds_sum",
		"mddm_storage_bitmap_scans_total",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// /debug/queries rejects writes with the Allow header set.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/debug/queries", nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST /debug/queries: status %d, want 405", dresp.StatusCode)
	}
	if got := dresp.Header.Get("Allow"); got != "GET, HEAD" {
		t.Errorf("Allow = %q, want GET, HEAD", got)
	}
}
