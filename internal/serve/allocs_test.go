package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
)

// TestServeQueryHitAllocs gates what a result-cache hit on a seen query
// text allocates: nothing in ServeQuery (the text resolves through the
// cache's alias, the entry is a lookup), and at most 24 allocations for
// the whole HTTP handler through httptest — net/http's request copy,
// header maps and the recorder included — which writes the entry's
// stored body.
func TestServeQueryHitAllocs(t *testing.T) {
	s, _ := newTestServer(t, Limits{ResultCacheBytes: 4 << 20})
	ctx := context.Background()
	if _, _, err := s.ServeQuery(ctx, groupQuery); err != nil {
		t.Fatal(err)
	}
	var out QueryOutcome
	var err error
	allocs := testing.AllocsPerRun(200, func() {
		_, out, err = s.ServeQuery(ctx, groupQuery)
	})
	if err != nil || !out.CacheHit {
		t.Fatalf("outcome %+v err %v, want a hit", out, err)
	}
	if allocs != 0 {
		t.Errorf("ServeQuery hit: %v allocs, want 0", allocs)
	}

	h := s.Handler()
	req := httptest.NewRequest(http.MethodGet, "/query?q="+url.QueryEscape(groupQuery), nil)
	var w *httptest.ResponseRecorder
	allocs = testing.AllocsPerRun(200, func() {
		w = httptest.NewRecorder()
		h.ServeHTTP(w, req)
	})
	if w.Code != http.StatusOK || w.Header().Get("X-Mddm-Cache") != "hit" {
		t.Fatalf("status %d, X-Mddm-Cache %q, want a 200 hit", w.Code, w.Header().Get("X-Mddm-Cache"))
	}
	t.Logf("handler hit: %v allocs", allocs)
	if allocs > 24 {
		t.Errorf("handler hit: %v allocs, want <= 24", allocs)
	}
}
