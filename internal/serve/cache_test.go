package serve

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"sort"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/qos"
	"mddm/internal/query"
)

// cacheLimits is the standard result-cache configuration for these
// tests: cache on, no other limits in the way.
var cacheLimits = Limits{ResultCacheBytes: 4 << 20}

// aggQuery builds the differential query for one registered aggregate:
// argument-consuming functions aggregate Age, the rest count the group.
func aggQuery(g *agg.Func) string {
	arg := "*"
	if g.NeedsArg {
		arg = "Age"
	}
	return fmt.Sprintf(`SELECT %s(%s) AS N FROM patients GROUP BY Diagnosis."Diagnosis Group" ORDER BY N DESC`, g.Name, arg)
}

// sameResult is bit-identical equality on the fields the cache returns
// to clients.
func sameResult(t *testing.T, label string, got, want *query.Result) {
	t.Helper()
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s: columns %v != %v", label, got.Columns, want.Columns)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s: rows differ:\n%v\n%v", label, got.Rows, want.Rows)
	}
	if got.Summarizable != want.Summarizable {
		t.Fatalf("%s: summarizable %v != %v", label, got.Summarizable, want.Summarizable)
	}
}

// TestCachedDifferentialAllAggregates pins, for every registered
// aggregate over the Table 1 case-study MO: index-free direct execution
// ≡ uncached serve ≡ cache fill ≡ cache hit, bit-identically.
func TestCachedDifferentialAllAggregates(t *testing.T) {
	names := agg.Names()
	sort.Strings(names)
	for _, name := range names {
		g, err := agg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			s, cat := newTestServer(t, cacheLimits)
			src := aggQuery(g)

			// The index-free baseline: direct execution against the
			// catalog snapshot, no serving layer, no engine, no cache.
			base, err := query.Exec(src, cat.Snapshot(), testRef)
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}

			ctx := context.Background()
			fill, out, err := s.ServeQuery(ctx, src)
			if err != nil {
				t.Fatalf("fill: %v", err)
			}
			if out.CacheHit {
				t.Fatal("first lookup hit an empty cache")
			}
			sameResult(t, "fill vs baseline", fill, base)

			unc, err := s.Query(ctx, src)
			if err != nil {
				t.Fatalf("uncached: %v", err)
			}
			sameResult(t, "uncached vs baseline", unc, base)

			res, out, err := s.ServeQuery(ctx, src)
			if err != nil {
				t.Fatalf("cached: %v", err)
			}
			if !out.CacheHit {
				t.Fatal("repeat lookup missed")
			}
			sameResult(t, "hit vs baseline", res, base)
		})
	}
}

// TestCacheInterleavedAppendInvalidation drives the schedule the
// tentpole exists for: query → hit → append → the very next lookup is a
// miss answered with the fresh result → hit again → second append →
// miss again. The epoch must invalidate exactly when a write lands —
// no stale serve, and no gratuitous misses between writes. The query is
// FACTS, which keeps no delta partials: its entry is invalidated, not
// upgraded (the upgrade schedule is TestDeltaUpgrade*'s).
func TestCacheInterleavedAppendInvalidation(t *testing.T) {
	const factsQuery = `SELECT FACTS FROM patients`
	s, _ := newTestServer(t, cacheLimits)
	ctx := context.Background()

	// The engine must exist before the new facts are related: building it
	// later would index them eagerly and reject the AppendFact.
	eng, err := s.EngineFor(ctx, "patients")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.cat.Get("patients")
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)

	r1, out, err := s.ServeQuery(ctx, factsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("first lookup hit")
	}
	r2, out, err := s.ServeQuery(ctx, factsQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatal("repeat lookup before any write missed")
	}
	sameResult(t, "pre-append hit", r2, r1)

	for i := 0; i < 2; i++ {
		id := fmt.Sprintf("cachefact%d", i)
		if err := m.Relate(casestudy.DimDiagnosis, id, lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
		if err := eng.AppendFact(id); err != nil {
			t.Fatal(err)
		}

		res, out, err := s.ServeQuery(ctx, factsQuery)
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheHit {
			t.Fatalf("append %d: lookup after AppendFact hit — stale serve", i)
		}
		fresh, err := query.Exec(factsQuery, s.cat.Snapshot(), testRef)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("post-append %d miss vs fresh", i), res, fresh)
		if reflect.DeepEqual(res.Rows, r1.Rows) {
			t.Fatalf("append %d: result did not change — the schedule is not observing the write", i)
		}

		again, out, err := s.ServeQuery(ctx, factsQuery)
		if err != nil {
			t.Fatal(err)
		}
		if !out.CacheHit {
			t.Fatalf("append %d: second lookup after refill missed", i)
		}
		sameResult(t, fmt.Sprintf("post-append %d hit", i), again, res)
	}

	st := s.ResultCacheStats()
	if st.Invalidations != 2 {
		t.Fatalf("invalidations = %d, want exactly 2 (one per append)", st.Invalidations)
	}
}

// TestCacheReregistrationInvalidates pins the other half of the version:
// replacing the catalog entry (new registration generation) invalidates
// even though no engine epoch moved.
func TestCacheReregistrationInvalidates(t *testing.T) {
	s, cat := newTestServer(t, cacheLimits)
	ctx := context.Background()

	r1, _, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if _, out, _ := s.ServeQuery(ctx, groupQuery); !out.CacheHit {
		t.Fatal("repeat lookup missed")
	}
	if err := cat.Register("patients", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	res, out, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("lookup after re-registration hit — stale serve")
	}
	// The replacement MO is identical data, so the refilled result matches.
	sameResult(t, "refill after re-register", res, r1)
}

// TestCacheHitBudgetPolicy pins the documented budget policy: a miss
// charges the fact budget for its computation; the hit that replaces the
// identical computation charges zero. (The cheaper-policy option of the
// spec — mirrored in docs/SERVING.md.)
func TestCacheHitBudgetPolicy(t *testing.T) {
	s, _ := newTestServer(t, cacheLimits) // no MaxFactsScanned: caller budget rules
	ctx := qos.WithFactBudget(context.Background(), 1<<30)
	b := qos.BudgetFrom(ctx)
	if b == nil {
		t.Fatal("no budget on context")
	}

	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || out.CacheHit {
		t.Fatalf("fill: hit=%v err=%v", out.CacheHit, err)
	}
	missSpent := b.Spent()
	if missSpent == 0 {
		t.Fatal("the miss charged no budget — the parity claim would be vacuous")
	}
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || !out.CacheHit {
		t.Fatalf("hit: hit=%v err=%v", out.CacheHit, err)
	}
	if got := b.Spent(); got != missSpent {
		t.Fatalf("cache hit charged %d budget, want 0 (pinned policy)", got-missSpent)
	}
	// The uncached path keeps charging, so the zero charge above is the
	// cache's doing, not budget accounting going quiet.
	if _, err := s.Query(ctx, groupQuery); err != nil {
		t.Fatal(err)
	}
	if got := b.Spent(); got <= missSpent {
		t.Fatalf("uncached re-run charged nothing (spent still %d)", got)
	}
}

// TestCacheDisabledFallsThrough: ResultCacheBytes 0 makes ServeQuery
// exactly Query — no hits, no cache state, no behavior change.
func TestCacheDisabledFallsThrough(t *testing.T) {
	s, _ := newTestServer(t, Limits{})
	if s.ResultCacheEnabled() {
		t.Fatal("cache enabled without ResultCacheBytes")
	}
	ctx := context.Background()
	for i := 0; i < 2; i++ {
		res, out, err := s.ServeQuery(ctx, groupQuery)
		if err != nil {
			t.Fatal(err)
		}
		if out.CacheHit {
			t.Fatal("hit reported with the cache disabled")
		}
		if len(res.Rows) == 0 {
			t.Fatal("no rows")
		}
	}
	if st := s.ResultCacheStats(); st.Hits+st.Misses != 0 || st.Entries != 0 {
		t.Fatalf("disabled cache has stats: %+v", st)
	}
}

// TestCacheErrorsNotCached: failing queries are recomputed every time
// and leave nothing behind; once the failure cause is fixed the next
// call succeeds (nothing shadowed it).
func TestCacheErrorsNotCached(t *testing.T) {
	s, cat := newTestServer(t, cacheLimits)
	ctx := context.Background()
	bad := `SELECT SETCOUNT(*) FROM nosuch`
	for i := 0; i < 2; i++ {
		if _, _, err := s.ServeQuery(ctx, bad); err == nil {
			t.Fatalf("call %d: no error for unknown MO", i)
		}
	}
	st := s.ResultCacheStats()
	if st.Entries != 0 {
		t.Fatalf("error result was cached: %+v", st)
	}
	if st.Misses != 2 {
		t.Fatalf("misses = %d, want 2 (both error calls consulted the cache)", st.Misses)
	}
	if err := cat.Register("nosuch", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ServeQuery(ctx, bad); err != nil {
		t.Fatalf("after registering the MO: %v", err)
	}
}

// TestCacheUnparseableFallsThrough: inputs the key encoder rejects take
// the uncached path and report its parse error.
func TestCacheUnparseableFallsThrough(t *testing.T) {
	s, _ := newTestServer(t, cacheLimits)
	if _, out, err := s.ServeQuery(context.Background(), `SELECT ((((`); err == nil || out.CacheHit {
		t.Fatalf("hit=%v err=%v, want parse error miss", out.CacheHit, err)
	}
	if st := s.ResultCacheStats(); st.Hits+st.Misses != 0 {
		t.Fatalf("unparseable input consulted the cache: %+v", st)
	}
}

// TestCacheKeyNormalizationSharesEntries: two spellings of the same
// query occupy one entry — the second spelling hits what the first
// filled.
func TestCacheKeyNormalizationSharesEntries(t *testing.T) {
	s, _ := newTestServer(t, cacheLimits)
	ctx := context.Background()
	a := groupQuery
	b := `select   SETCOUNT( * )   as "SETCOUNT"   from "patients" group by "Diagnosis"."Diagnosis Group"`
	ra, out, err := s.ServeQuery(ctx, a)
	if err != nil || out.CacheHit {
		t.Fatalf("fill: hit=%v err=%v", out.CacheHit, err)
	}
	rb, out, err := s.ServeQuery(ctx, b)
	if err != nil {
		t.Fatal(err)
	}
	if !out.CacheHit {
		t.Fatal("normalized spelling missed the filled entry")
	}
	sameResult(t, "normalized hit", rb, ra)
	if st := s.ResultCacheStats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}
}

// TestCatalogGen pins the registration-generation contract the version
// depends on: monotone under re-registration, zero when absent, and
// never reused across a deregister/register cycle.
func TestCatalogGen(t *testing.T) {
	cat := NewCatalog()
	if got := cat.Gen("patients"); got != 0 {
		t.Fatalf("gen of unregistered = %d, want 0", got)
	}
	m := patientMO(t)
	if err := cat.Register("patients", m); err != nil {
		t.Fatal(err)
	}
	g1 := cat.Gen("patients")
	if g1 == 0 {
		t.Fatal("gen after register = 0")
	}
	if err := cat.Register("patients", m); err != nil {
		t.Fatal(err)
	}
	g2 := cat.Gen("patients")
	if g2 == g1 {
		t.Fatal("re-registration did not change the generation")
	}
	cat.Deregister("patients")
	if got := cat.Gen("patients"); got != 0 {
		t.Fatalf("gen after deregister = %d, want 0", got)
	}
	if err := cat.Register("patients", m); err != nil {
		t.Fatal(err)
	}
	if g3 := cat.Gen("patients"); g3 == g1 || g3 == g2 {
		t.Fatalf("generation %d reused across deregister/register (had %d, %d)", g3, g1, g2)
	}
}

// cacheHeader issues one /query request and returns the X-Mddm-Cache
// header (with "" meaning absent).
func cacheHeader(t *testing.T, ts *httptest.Server, extra string) string {
	t.Helper()
	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(groupQuery) + extra)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %s", resp.Status)
	}
	return resp.Header.Get("X-Mddm-Cache")
}

// TestHTTPCacheHeaderAndBypass pins the HTTP contract: the header
// narrates miss → hit, ?nocache=1 reports bypass and neither reads nor
// fills the cache, and a malformed nocache value is a client error.
func TestHTTPCacheHeaderAndBypass(t *testing.T) {
	s, _ := newTestServer(t, cacheLimits)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	// Bypass first: it must not fill, so the next cached request misses.
	if got := cacheHeader(t, ts, "&nocache=1"); got != "bypass" {
		t.Fatalf("nocache header = %q, want bypass", got)
	}
	if got := cacheHeader(t, ts, ""); got != "miss" {
		t.Fatalf("first cached header = %q, want miss (bypass filled the cache?)", got)
	}
	if got := cacheHeader(t, ts, ""); got != "hit" {
		t.Fatalf("second cached header = %q, want hit", got)
	}
	// Bypass does not read either: it recomputes, and the entry stays.
	if got := cacheHeader(t, ts, "&nocache=true"); got != "bypass" {
		t.Fatalf("nocache=true header = %q, want bypass", got)
	}
	if got := cacheHeader(t, ts, ""); got != "hit" {
		t.Fatalf("cached header after bypass = %q, want hit", got)
	}
	if st := s.ResultCacheStats(); st.Entries != 1 {
		t.Fatalf("entries = %d, want 1", st.Entries)
	}

	resp, err := http.Get(ts.URL + "/query?q=" + url.QueryEscape(groupQuery) + "&nocache=banana")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("nocache=banana status = %s, want 400", resp.Status)
	}
}

// TestHTTPCacheHeaderAbsentWhenDisabled: a server without a result
// cache never emits the header — clients can tell the feature is off.
func TestHTTPCacheHeaderAbsentWhenDisabled(t *testing.T) {
	ts := httpServer(t, Limits{})
	for i := 0; i < 2; i++ {
		if got := cacheHeader(t, ts, ""); got != "" {
			t.Fatalf("header = %q on a cache-less server, want absent", got)
		}
	}
}
