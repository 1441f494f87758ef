package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"testing"
	"time"

	"mddm/internal/faultinject"
)

func httpServer(t *testing.T, limits Limits) *httptest.Server {
	t.Helper()
	s, _ := newTestServer(t, limits)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return ts
}

func TestHealthz(t *testing.T) {
	ts := httpServer(t, Limits{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
}

func queryStatus(t *testing.T, ts *httptest.Server, q string) (int, queryResponse, errorResponse) {
	t.Helper()
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(q))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ok queryResponse
	var fail errorResponse
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		if err := dec.Decode(&ok); err != nil {
			t.Fatal(err)
		}
	} else if err := dec.Decode(&fail); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, ok, fail
}

func TestQueryEndpointOK(t *testing.T) {
	ts := httpServer(t, Limits{})
	status, res, _ := queryStatus(t, ts, groupQuery)
	if status != http.StatusOK {
		t.Fatalf("status %d", status)
	}
	if len(res.Rows) == 0 || len(res.Columns) == 0 {
		t.Fatalf("empty result: %+v", res)
	}
}

func TestQueryEndpointPOSTBody(t *testing.T) {
	ts := httpServer(t, Limits{})
	resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(groupQuery))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
}

// TestQueryEndpointOversizedBody pins the /query body cap: a body one
// byte past it is refused with 413 — not truncated into its shorter,
// still valid prefix, which would answer an ungrouped count — while a
// body exactly at the cap still runs.
func TestQueryEndpointOversizedBody(t *testing.T) {
	ts := httpServer(t, Limits{})
	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/query", "text/plain", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	prefix := "SELECT SETCOUNT(*) FROM patients"
	tail := " GROUP BY Diagnosis"
	atCap := prefix + strings.Repeat(" ", maxQueryBody-len(prefix)-len(tail)) + tail
	if code := post(atCap); code != http.StatusOK {
		t.Fatalf("body at the cap: status %d, want 200", code)
	}
	over := prefix + strings.Repeat(" ", maxQueryBody-len(prefix)) + tail
	if code := post(over); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("body past the cap: status %d, want 413", code)
	}
}

func TestQueryEndpointStatusMapping(t *testing.T) {
	t.Cleanup(faultinject.Reset)

	// Missing and malformed queries: 400.
	ts := httpServer(t, Limits{})
	if status, _, _ := queryStatus(t, ts, ""); status != http.StatusBadRequest {
		t.Fatalf("empty query: %d", status)
	}
	if status, _, fail := queryStatus(t, ts, "NOT A QUERY"); status != http.StatusBadRequest || fail.Error == "" {
		t.Fatalf("parse error: %d %+v", status, fail)
	}

	// Resource exhaustion: 429.
	tsRows := httpServer(t, Limits{MaxResultRows: 1})
	if status, _, _ := queryStatus(t, tsRows, groupQuery); status != http.StatusTooManyRequests {
		t.Fatalf("row limit: %d", status)
	}

	// Deadline: 504.
	tsSlow := httpServer(t, Limits{Timeout: time.Nanosecond})
	if status, _, _ := queryStatus(t, tsSlow, groupQuery); status != http.StatusGatewayTimeout {
		t.Fatalf("deadline: %d", status)
	}

	// Recovered panic: 500.
	faultinject.EnablePanic(faultinject.QueryExec, "boom")
	if status, _, fail := queryStatus(t, ts, groupQuery); status != http.StatusInternalServerError ||
		!strings.Contains(fail.Error, "internal error") {
		t.Fatalf("panic: %d %+v", status, fail)
	}
	faultinject.Reset()

	// Serialization failure: 500 with the injected cause.
	faultinject.Enable(faultinject.Serialize, errors.New("wire snapped"))
	if status, _, fail := queryStatus(t, ts, groupQuery); status != http.StatusInternalServerError ||
		!strings.Contains(fail.Error, "wire snapped") {
		t.Fatalf("serialize: %d %+v", status, fail)
	}
}

func TestStatusForUnknownErrorIs400(t *testing.T) {
	if got := statusFor(errors.New("anything else")); got != http.StatusBadRequest {
		t.Fatalf("got %d", got)
	}
}

// TestQueryHeaderMatchesCells: a result's header names the columns its
// rows fill. Grouped dimensions are listed in schema order whatever order
// GROUP BY names them in, a dimension grouped at ⊤ adds no column, and a
// dimension named twice is a query error (400), not a 500.
func TestQueryHeaderMatchesCells(t *testing.T) {
	ts := httpServer(t, Limits{ResultCacheBytes: 1 << 20})
	_, swapped, _ := queryStatus(t, ts, `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Residence."Region", Diagnosis."Diagnosis Group"`)
	_, ordered, _ := queryStatus(t, ts, `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`)
	if want := []string{"Diagnosis", "Residence", "N"}; !reflect.DeepEqual(swapped.Columns, want) {
		t.Fatalf("columns %v, want %v", swapped.Columns, want)
	}
	if len(swapped.Rows) == 0 || !reflect.DeepEqual(swapped.Rows, ordered.Rows) {
		t.Fatalf("rows %v, want the schema-order query's %v", swapped.Rows, ordered.Rows)
	}

	for _, q := range []string{
		`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."⊤", Residence."Region" HAVING >= 1 ORDER BY N DESC`,
		`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Residence."⊤" HAVING >= 1`,
	} {
		code, res, eres := queryStatus(t, ts, q)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", q, code, eres.Error)
		}
		for _, r := range res.Rows {
			if len(r) != len(res.Columns) {
				t.Fatalf("%s: row %v under header %v", q, r, res.Columns)
			}
		}
	}

	code, _, eres := queryStatus(t, ts, `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis, Diagnosis."Diagnosis Group" HAVING >= 1`)
	if code != http.StatusBadRequest || !strings.Contains(eres.Error, "twice") {
		t.Fatalf("repeated dimension: status %d, error %q; want 400 naming the repeat", code, eres.Error)
	}
}
