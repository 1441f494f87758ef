package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"testing"
	"time"

	"mddm/internal/admission"
	"mddm/internal/faultinject"
	"mddm/internal/query"
)

// wantBody is the /query body for res: the queryResponse the handler
// builds from a result, encoded with HTML escaping off and a trailing
// newline, as the handler encodes it.
func wantBody(t *testing.T, res *query.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(queryResponse{
		Columns:      res.Columns,
		Rows:         res.Rows,
		Summarizable: res.Summarizable,
		Reasons:      res.Reasons,
		Warnings:     res.Warnings,
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// withoutTraceAndPlan decodes a /query body, checks it carries the
// opted-in trace or plan, and re-encodes it without them: what is left
// must be the plain answer's bytes.
func withoutTraceAndPlan(t *testing.T, body []byte, wantTrace, wantPlan bool) []byte {
	t.Helper()
	var r queryResponse
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("decoding %s: %v", body, err)
	}
	if (r.Trace != nil) != wantTrace || (r.Plan != nil) != wantPlan {
		t.Fatalf("trace %v plan %v, want trace %v plan %v: %s", r.Trace != nil, r.Plan != nil, wantTrace, wantPlan, body)
	}
	return wantBody(t, &query.Result{Columns: r.Columns, Rows: r.Rows, Summarizable: r.Summarizable,
		Reasons: r.Reasons, Warnings: r.Warnings})
}

// waitFor polls cond until it holds, failing the test after 10 s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// answer is what fetch read off the wire.
type answer struct {
	status int
	cache  string
	body   []byte
	err    error
}

// fetch GETs src from /query and sends what it read, for requests made
// off the test's goroutine.
func fetch(ts *httptest.Server, src string, out chan<- answer) {
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(src))
	if err != nil {
		out <- answer{err: err}
		return
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	out <- answer{status: resp.StatusCode, cache: resp.Header.Get("X-Mddm-Cache"), body: body, err: err}
}

// staleAge matches the age a degraded answer's warning reports, which
// moves between two reads of one stale entry.
var staleAge = regexp.MustCompile(`age [0-9.a-zµ]+\)`)

// TestQueryBodyBytes pins the /query body against the result ServeQuery
// returns for the same text, for every way a result reaches the wire:
// a miss, a hit, a hit a delta merge upgraded, a single-flight follower,
// a stale-on-shed answer, ?trace=1, ?plan=1 and ?nocache=1. The body must
// be the encoding of the queryResponse built from that result, byte for
// byte (an opted-in trace or plan aside).
func TestQueryBodyBytes(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	limits := Limits{
		ResultCacheBytes: 4 << 20,
		StaleOnShed:      time.Minute,
		Admission: admission.Config{
			MaxConcurrency: 1,
			TargetLatency:  time.Minute,
			MaxQueue:       8,
			TenantRate:     1e6,
			TenantBurst:    1e6,
		},
	}
	s, _ := newTestServer(t, limits)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	ctx := context.Background()
	grow := deltaAppender(t, s, "body")

	get := func(src, extra, wantCache string) []byte {
		t.Helper()
		resp, body := getWithHeaders(t, ts, "/query?q="+url.QueryEscape(src)+extra, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s%s: status %d: %s", src, extra, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Mddm-Cache"); got != wantCache {
			t.Fatalf("%s%s: X-Mddm-Cache %q, want %q", src, extra, got, wantCache)
		}
		return body
	}
	served := func(src string) *query.Result {
		t.Helper()
		res, _, err := s.ServeQuery(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	same := func(label string, got, want []byte) {
		t.Helper()
		if !bytes.Equal(got, want) {
			t.Fatalf("%s: body\n%s\nwant\n%s", label, got, want)
		}
	}

	body := get(groupQuery, "", "miss")
	same("miss", body, wantBody(t, served(groupQuery)))
	same("hit", get(groupQuery, "", "hit"), wantBody(t, served(groupQuery)))
	same("trace", withoutTraceAndPlan(t, get(groupQuery, "&trace=1", "hit"), true, false), body)
	same("nocache", get(groupQuery, "&nocache=1", "bypass"), body)

	const planned = `SELECT SUM(Age) AS N FROM patients GROUP BY Residence."Region"`
	same("plan", withoutTraceAndPlan(t, get(planned, "&plan=1", "miss"), false, true), wantBody(t, served(planned)))

	grow(2)
	same("hit-upgraded", get(groupQuery, "", "hit-upgraded"), wantBody(t, served(groupQuery)))

	// Single-flight follower: the test holds the only admission slot, so
	// the leader's fill waits in the queue; a second request for the text
	// misses and joins the flight. Queries moving by one says it did; if
	// the leader won the race to the fill anyway, try a fresh text.
	followed := false
	for i := 0; i < 5 && !followed; i++ {
		src := fmt.Sprintf(`SELECT SETCOUNT(*) AS F%d FROM patients GROUP BY Residence."Area"`, i)
		tk, err := s.adm.Admit(ctx)
		if err != nil {
			t.Fatal(err)
		}
		queries, misses := s.Stats().Queries, s.ResultCacheStats().Misses
		answers := make(chan answer, 2)
		go fetch(ts, src, answers)
		waitFor(t, "the leader to queue", func() bool { return s.AdmissionStats().QueueDepth == 1 })
		go fetch(ts, src, answers)
		waitFor(t, "the follower's miss", func() bool { return s.ResultCacheStats().Misses == misses+2 })
		tk.Release()
		got := []answer{<-answers, <-answers}
		followed = s.Stats().Queries == queries+1
		want := wantBody(t, served(src))
		for i, a := range got {
			if a.err != nil || a.status != http.StatusOK || a.cache != "miss" {
				t.Fatalf("request %d: status %d, X-Mddm-Cache %q, err %v", i, a.status, a.cache, a.err)
			}
			same(fmt.Sprintf("request %d", i), a.body, want)
		}
	}
	if !followed {
		t.Fatal("no request joined a fill in flight in 5 tries")
	}

	// Stale-on-shed: the entry cannot be upgraded, an append makes it
	// stale, and a shed refill answers it with a warning.
	served(partialLessQuery)
	grow(1)
	faultinject.Enable(faultinject.QuotaExhausted, nil)
	body = get(partialLessQuery, "", "stale")
	res, out, err := s.ServeQuery(ctx, partialLessQuery)
	faultinject.Reset()
	if err != nil || !out.DegradedStale {
		t.Fatalf("degraded serve: outcome %+v err %v", out, err)
	}
	same("stale-on-shed", staleAge.ReplaceAll(body, nil), staleAge.ReplaceAll(wantBody(t, res), nil))
}
