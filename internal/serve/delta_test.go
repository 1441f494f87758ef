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
	"time"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/exec"
	"mddm/internal/faultinject"
	"mddm/internal/query"
	"mddm/internal/segment"
)

// deltaLimits is the standard delta-maintenance configuration: result
// cache + planner + delta, nothing else in the way.
var deltaLimits = Limits{ResultCacheBytes: 4 << 20, Planner: true, DeltaMaintenance: true}

// deltaAppender returns a closure that relates-and-appends n fresh facts
// to the server's "patients" MO — each with one low-level diagnosis and
// an age, so argument-consuming aggregates have values to fold. The
// engine must already exist (EngineFor) before the first call.
func deltaAppender(t *testing.T, s *Server, prefix string) func(n int) {
	t.Helper()
	ctx := context.Background()
	eng, err := s.EngineFor(ctx, "patients")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.cat.Get("patients")
	lows := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	appended := 0
	return func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			id := fmt.Sprintf("%s%04d", prefix, appended)
			appended++
			if err := m.Relate(casestudy.DimDiagnosis, id, lows[appended%len(lows)]); err != nil {
				t.Fatal(err)
			}
			ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), 20+appended%55)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Relate(casestudy.DimAge, id, ageID); err != nil {
				t.Fatal(err)
			}
			if err := eng.AppendFact(id); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDeltaUpgradeDifferentialAllAggregates is the tentpole's proof
// obligation: for every registered aggregate, under an interleaved
// append schedule at parallelism degrees 1/2/4/8, the delta-merged
// answer is bit-identical (columns, rows, summarizability verdict, and
// reasons) to both a from-scratch recompute through the server and the
// index-free query.Exec baseline. Functions with a constant-size
// partial (argument-free, or with a Fold) must take the upgrade path
// every round — a silent fallback to recompute would pass the equality
// and inflate nothing, so the outcome flag is asserted too. MEDIAN and
// the probabilistic functions must never upgrade (their fills carry no
// partials) and still answer correctly through the recompute path.
func TestDeltaUpgradeDifferentialAllAggregates(t *testing.T) {
	names := agg.Names()
	sort.Strings(names)
	degrees := []int{1, 2, 4, 8}
	for _, name := range names {
		g := agg.MustLookup(name)
		t.Run(name, func(t *testing.T) {
			s, _ := newTestServer(t, deltaLimits)
			grow := deltaAppender(t, s, "delta"+name)
			src := aggQuery(g)
			ctx := context.Background()

			if _, out, err := s.ServeQuery(ctx, src); err != nil {
				t.Fatalf("fill: %v", err)
			} else if out.CacheHit || out.Upgraded {
				t.Fatalf("fill outcome = %+v", out)
			}

			mergeable := !g.NeedsProb && (g.Fold != nil || !g.NeedsArg)
			for round, d := range degrees {
				grow(round + 1)
				dctx := exec.WithParallelism(ctx, d)
				got, out, err := s.ServeQuery(dctx, src)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if mergeable && !out.Upgraded {
					t.Fatalf("round %d: outcome %+v, want an upgrade (silent recompute would fake the win)", round, out)
				}
				if !mergeable && out.Upgraded {
					t.Fatalf("round %d: non-mergeable %s upgraded", round, name)
				}

				base, err := query.Exec(src, s.cat.Snapshot(), testRef)
				if err != nil {
					t.Fatalf("round %d baseline: %v", round, err)
				}
				sameResult(t, fmt.Sprintf("round %d vs baseline", round), got, base)
				if !reflect.DeepEqual(got.Reasons, base.Reasons) {
					t.Fatalf("round %d: reasons %v != baseline %v", round, got.Reasons, base.Reasons)
				}
				recomp, err := s.Query(dctx, src)
				if err != nil {
					t.Fatalf("round %d recompute: %v", round, err)
				}
				sameResult(t, fmt.Sprintf("round %d vs recompute", round), got, recomp)
				if !reflect.DeepEqual(got.Reasons, recomp.Reasons) {
					t.Fatalf("round %d: reasons %v != recompute %v", round, got.Reasons, recomp.Reasons)
				}
			}
		})
	}
}

// TestDeltaUpgradeWhereHavingOrderLimit pins that an upgrade reproduces
// the full post-processing pipeline: the cached partials hold all
// groups pre-HAVING/ORDER/LIMIT, the WHERE selection is recompiled over
// the grown fact universe, and the merged result re-applies the
// original query's HAVING, ORDER BY, and LIMIT — bit-identical to a
// recompute, across sustained appends that move groups across the
// HAVING threshold and the LIMIT cutoff.
func TestDeltaUpgradeWhereHavingOrderLimit(t *testing.T) {
	const src = `SELECT SETCOUNT(*) AS N FROM patients WHERE Age >= 40 GROUP BY Diagnosis."Diagnosis Group" HAVING >= 2 ORDER BY N DESC LIMIT 3`
	s, _ := newTestServer(t, deltaLimits)
	grow := deltaAppender(t, s, "dhol")
	ctx := context.Background()

	if _, out, err := s.ServeQuery(ctx, src); err != nil {
		t.Fatalf("fill: %v", err)
	} else if out.CacheHit {
		t.Fatal("fill hit an empty cache")
	}
	for round := 0; round < 4; round++ {
		grow(5) // ages 20..74 cycle: some pass the WHERE, some do not
		got, out, err := s.ServeQuery(ctx, src)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !out.Upgraded {
			t.Fatalf("round %d: outcome %+v, want an upgrade", round, out)
		}
		recomp, err := s.Query(ctx, src)
		if err != nil {
			t.Fatal(err)
		}
		sameResult(t, fmt.Sprintf("round %d", round), got, recomp)
		if !reflect.DeepEqual(got.Reasons, recomp.Reasons) {
			t.Fatalf("round %d: reasons %v != %v", round, got.Reasons, recomp.Reasons)
		}
	}
}

// TestDeltaUpgradeHTTPHeader: the wire-visible distinction — a repaired
// entry answers with X-Mddm-Cache: hit-upgraded, a fresh repeat with
// hit, and the body matches the recomputed answer.
func TestDeltaUpgradeHTTPHeader(t *testing.T) {
	s, _ := newTestServer(t, deltaLimits)
	grow := deltaAppender(t, s, "dhttp")
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	path := "/query?q=" + url.QueryEscape(groupQuery)

	resp, _ := getWithHeaders(t, ts, path, nil)
	if got := resp.Header.Get("X-Mddm-Cache"); got != "miss" {
		t.Fatalf("fill header = %q, want miss", got)
	}
	grow(2)
	resp, _ = getWithHeaders(t, ts, path, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("upgraded status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Mddm-Cache"); got != "hit-upgraded" {
		t.Fatalf("upgraded header = %q, want hit-upgraded", got)
	}
	resp, _ = getWithHeaders(t, ts, path, nil)
	if got := resp.Header.Get("X-Mddm-Cache"); got != "hit" {
		t.Fatalf("repeat header = %q, want hit", got)
	}
}

// TestDeltaGenMovedFallsBack: a catalog re-registration moves the
// generation; the partials describe an MO that is no longer served, so
// the upgrade must refuse (counted under reason gen-moved), demote the
// entry, and let the normal recompute answer.
func TestDeltaGenMovedFallsBack(t *testing.T) {
	s, cat := newTestServer(t, deltaLimits)
	ctx := context.Background()
	if _, err := s.EngineFor(ctx, "patients"); err != nil {
		t.Fatal(err)
	}
	r1, _, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	genMoved0 := mDeltaFallbackGenMoved.Value()
	upgrades0 := s.ResultCacheStats().Upgrades

	if err := cat.Register("patients", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	res, out, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Upgraded || out.CacheHit {
		t.Fatalf("outcome after re-registration = %+v, want a plain miss", out)
	}
	sameResult(t, "refill after gen move", res, r1) // identical data, new MO
	if got := mDeltaFallbackGenMoved.Value() - genMoved0; got != 1 {
		t.Errorf("gen-moved fallbacks = %d, want 1", got)
	}
	if got := s.ResultCacheStats().Upgrades - upgrades0; got != 0 {
		t.Errorf("upgrades counted across a generation move: %d", got)
	}
}

// TestDeltaWindowUnknownFallsBack: when the entry's epoch has been
// trimmed out of the engine's journal, no sound delta range exists —
// the upgrade must refuse (reason window-unknown), demote, and the
// recompute must answer correctly and refill an upgradeable entry that
// resumes upgrading.
func TestDeltaWindowUnknownFallsBack(t *testing.T) {
	if testing.Short() {
		t.Skip("appends past the epoch-journal bound")
	}
	s, _ := newTestServer(t, deltaLimits)
	grow := deltaAppender(t, s, "dtrim")
	ctx := context.Background()

	if _, _, err := s.ServeQuery(ctx, groupQuery); err != nil {
		t.Fatal(err)
	}
	window0 := mDeltaFallbackWindow.Value()
	// Push the fill's epoch out of the journal (storage trims its window
	// ring at 4096 entries; see storage/epoch.go).
	grow(4200)

	res, out, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if out.Upgraded {
		t.Fatalf("outcome %+v: upgraded across a trimmed journal window", out)
	}
	fresh, err := query.Exec(groupQuery, s.cat.Snapshot(), testRef)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "recompute after window loss", res, fresh)
	if got := mDeltaFallbackWindow.Value() - window0; got != 1 {
		t.Errorf("window-unknown fallbacks = %d, want 1", got)
	}

	// The refilled entry upgrades again: the journal covers epochs from
	// here on.
	grow(3)
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || !out.Upgraded {
		t.Fatalf("post-refill append: outcome %+v err %v, want an upgrade", out, err)
	}
}

// TestDeltaOverFreshFillStaysPlain pins the over-fresh guard: a fill
// whose version moved during computation (here: the version is read
// while a stale engine is resident after a re-registration, and the
// fill's rebuild moves the epoch) must be stored WITHOUT partials — a
// later delta fold against it would double-count — so the next lookup
// is a plain miss, and only the stable refill starts upgrading. The
// cold-start case is warmed away: ServeQuery builds the engine before
// reading an epoch-0 version, so the very first fill is already
// cacheable and upgradeable.
func TestDeltaOverFreshFillStaysPlain(t *testing.T) {
	s, cat := newTestServer(t, deltaLimits)
	ctx := context.Background()

	// Cold start: the warm-before-version read makes the first fill
	// stable, so its repeat is a plain hit.
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil {
		t.Fatal(err)
	} else if out.CacheHit {
		t.Fatal("first fill hit")
	}
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || !out.CacheHit || out.Upgraded {
		t.Fatalf("cold-start fill not served as a plain hit: %+v %v", out, err)
	}

	// Re-register the MO: the next fill reads its version against the
	// stale resident engine, rebuilds mid-computation, and finishes
	// over-fresh for the version it is stored under.
	if err := cat.Register("patients", patientMO(t)); err != nil {
		t.Fatal(err)
	}
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil {
		t.Fatal(err)
	} else if out.CacheHit || out.Upgraded {
		t.Fatalf("outcome %+v: fill after re-register served a stale entry", out)
	}
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil {
		t.Fatal(err)
	} else if out.CacheHit || out.Upgraded {
		t.Fatalf("outcome %+v: an over-fresh fill must not serve (as hit or via upgrade)", out)
	}
	// The stable refill is hittable and upgradeable.
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || !out.CacheHit {
		t.Fatalf("stable refill not served: %+v %v", out, err)
	}
	grow := deltaAppender(t, s, "dfresh")
	grow(1)
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || !out.Upgraded {
		t.Fatalf("outcome %+v err %v, want an upgrade from the stable refill", out, err)
	}
}

// TestDeltaStaleOnShedInterplay is the staleness-interplay pin: with
// both StaleOnShed and DeltaMaintenance on, an upgradeable entry shed
// under overload must be answered FRESH by the delta merge — never
// degraded-stale — while a plain (partial-less) entry under the same
// overload still takes the degraded path with its warning, and the
// KeepStale-retained plain entry is the one fallback counted under
// no-partials. Stats count the upgrade distinctly from hits.
func TestDeltaStaleOnShedInterplay(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	limits := admissionLimits()
	limits.Admission.TenantRate = 1000
	limits.Admission.TenantBurst = 1000
	limits.StaleOnShed = time.Minute
	limits.Planner = true
	limits.DeltaMaintenance = true
	s, _ := newTestServer(t, limits)
	grow := deltaAppender(t, s, "dshed")
	ctx := context.Background()

	// MEDIAN has no constant-size partial: its fill carries none, so
	// under overload it can only degrade.
	medianQuery := `SELECT MEDIAN(Age) AS N FROM patients GROUP BY Diagnosis."Diagnosis Group"`
	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || out.CacheHit {
		t.Fatalf("fill: %+v %v", out, err)
	}
	if _, out, err := s.ServeQuery(ctx, medianQuery); err != nil || out.CacheHit {
		t.Fatalf("median fill: %+v %v", out, err)
	}
	st0 := s.ResultCacheStats()
	noPartials0 := mDeltaFallbackNoPartials.Value()

	grow(2)
	faultinject.Enable(faultinject.QuotaExhausted, nil)

	// The upgradeable entry answers fresh: never degraded-stale when a
	// delta merge can repair it.
	res, out, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatalf("shed+upgradeable: %v", err)
	}
	if !out.Upgraded || out.DegradedStale {
		t.Fatalf("outcome %+v, want Upgraded and not DegradedStale", out)
	}
	if len(res.Warnings) != 0 {
		t.Errorf("upgraded answer carries warnings: %v", res.Warnings)
	}
	fresh, err := query.Exec(groupQuery, s.cat.Snapshot(), testRef)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "upgraded under shed vs fresh", res, fresh)

	// The partial-less entry can only degrade — stale answer, warning,
	// and the no-partials fallback accounted.
	mres, out, err := s.ServeQuery(ctx, medianQuery)
	if err != nil {
		t.Fatalf("shed+plain: %v", err)
	}
	if !out.DegradedStale || out.Upgraded {
		t.Fatalf("plain-entry outcome %+v, want DegradedStale", out)
	}
	if len(mres.Warnings) == 0 {
		t.Error("degraded answer carries no warning")
	}
	if got := mDeltaFallbackNoPartials.Value() - noPartials0; got != 1 {
		t.Errorf("no-partials fallbacks = %d, want 1", got)
	}

	st := s.ResultCacheStats()
	if got := st.Upgrades - st0.Upgrades; got != 1 {
		t.Errorf("cache upgrades = %d, want 1", got)
	}
	if st.Hits != st0.Hits {
		t.Errorf("hits moved %d -> %d: upgrades must be counted distinctly from hits", st0.Hits, st.Hits)
	}
}

// TestDeltaOffShedDegradesStale is the control for the interplay: same
// overload, DeltaMaintenance off — the stale entry is served degraded.
func TestDeltaOffShedDegradesStale(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	limits := admissionLimits()
	limits.Admission.TenantRate = 1000
	limits.Admission.TenantBurst = 1000
	limits.StaleOnShed = time.Minute
	limits.Planner = true
	s, _ := newTestServer(t, limits)
	grow := deltaAppender(t, s, "dctrl")
	ctx := context.Background()

	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || out.CacheHit {
		t.Fatalf("fill: %+v %v", out, err)
	}
	grow(1)
	faultinject.Enable(faultinject.QuotaExhausted, nil)
	_, out, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !out.DegradedStale || out.Upgraded {
		t.Fatalf("outcome %+v, want DegradedStale with delta off", out)
	}
}

// TestDeltaDurableRestartCoherence: epoch windows must survive a
// durable-store restart in the only sense that is sound — the recovered
// engine starts a fresh journal, and appends made through the store
// AFTER recovery resolve via DeltaRange, so cached results filled on
// the recovered process upgrade across durable appends exactly as they
// do across in-memory ones.
func TestDeltaDurableRestartCoherence(t *testing.T) {
	dir := t.TempDir()
	writer := openStore(t, dir, segment.Options{FoldEvery: 10})
	recs := storeRecords(t, writer, 27)
	for _, rec := range recs[:25] {
		if err := writer.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	recovered := openStore(t, dir, segment.Options{})
	defer recovered.Close()
	s := attachedServer(t, recovered, deltaLimits)
	ctx := context.Background()

	if _, out, err := s.ServeQuery(ctx, groupQuery); err != nil || out.CacheHit {
		t.Fatalf("fill on recovered store: %+v %v", out, err)
	}
	// Durable appends on the recovered process: WAL-logged, applied to
	// the serving engine, epoch journaled.
	for _, rec := range recs[25:] {
		if _, err := s.Append("patients", rec); err != nil {
			t.Fatal(err)
		}
	}
	res, out, err := s.ServeQuery(ctx, groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Upgraded {
		t.Fatalf("outcome %+v, want an upgrade across durable appends after restart", out)
	}
	fresh, err := query.Exec(groupQuery, s.cat.Snapshot(), testRef)
	if err != nil {
		t.Fatal(err)
	}
	sameResult(t, "upgraded vs fresh after restart", res, fresh)
}
