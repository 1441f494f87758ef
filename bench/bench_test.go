package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"mddm/internal/cache"
)

var testAges = []string{"20", "41", "77"}

func requestBytes(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	for _, r := range take(w, seed, testAges, 600) {
		if err := enc.Encode(r); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameRequests(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b := requestBytes(t, w, 7), requestBytes(t, w, 7)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed generated different request lists", w.name)
		}
		if bytes.Equal(a, requestBytes(t, w, 8)) {
			t.Errorf("%s: seeds 7 and 8 generated the same request list", w.name)
		}
	}
}

func TestAdhocScanNeverRepeats(t *testing.T) {
	w := workloadByName("adhoc-scan")
	seen := map[string]bool{}
	shapes := map[string]int{}
	for _, r := range take(w, 3, testAges, 12000) {
		key, _, err := cache.QueryKey(r.Q)
		if err != nil {
			t.Fatalf("unparseable query %q: %v", r.Q, err)
		}
		if seen[key] {
			t.Fatalf("query repeated within one run: %q", r.Q)
		}
		seen[key] = true
		shapes[r.Class]++
	}
	for _, s := range planShapes {
		if share := float64(shapes[s]) / 12000; share < 0.12 || share > 0.22 {
			t.Errorf("shape %s has share %.3f of the requests, want about 1/6", s, share)
		}
	}
}

func TestDashboardSet(t *testing.T) {
	keys := map[string]bool{}
	for _, q := range dashboardQueries() {
		key, _, err := cache.QueryKey(q)
		if err != nil {
			t.Fatalf("unparseable dashboard query %q: %v", q, err)
		}
		keys[key] = true
	}
	if len(keys) != 64 {
		t.Errorf("dashboard set has %d distinct cache keys, want 64", len(keys))
	}
}

func TestIngestMixedWriteShare(t *testing.T) {
	appends, facts := 0, map[string]bool{}
	reqs := take(workloadByName("ingest-mixed"), 1, testAges, 1100)
	for _, r := range reqs {
		if r.Kind == "append" {
			appends++
			if facts[r.Fact] {
				t.Fatalf("fact id %s repeated", r.Fact)
			}
			facts[r.Fact] = true
		}
	}
	if appends != 100 {
		t.Errorf("%d appends in 1100 requests, want one per %d queries = 100", appends, appendsEvery)
	}
}

func TestPercentileAndTailRule(t *testing.T) {
	vals := make([]float64, 1000)
	for i := range vals {
		vals[i] = float64(i + 1)
	}
	for _, c := range []struct{ p, want float64 }{{50, 500}, {90, 900}, {99, 990}, {100, 1000}} {
		if got := percentile(vals, c.p); got != c.want {
			t.Errorf("percentile(1..1000, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing should be 0")
	}
	for _, c := range []struct {
		p    float64
		want int
	}{{50, 20}, {90, 100}, {99, 1000}} {
		if got := minSupport(c.p); got != c.want {
			t.Errorf("minSupport(%v) = %d, want %d", c.p, got, c.want)
		}
	}
	// Ten samples beyond: p99 needs 1000 samples, p90 needs 100.
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{{1000, 99, true}, {999, 99, false}, {100, 90, true}, {99, 90, false}, {20, 50, true}, {19, 50, false}} {
		if got := supportedTail(c.n, c.p); got != c.want {
			t.Errorf("supportedTail(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
}

func TestGroupedPercentile(t *testing.T) {
	// 4000 queries over 4 s, the third second ten times slower: the plain
	// p90 is the slow second's, the median over four spans of 1000 is not.
	var qs []sample
	for i := 0; i < 4000; i++ {
		lat := time.Duration(100+i%100) * time.Microsecond
		if i/1000 == 2 {
			lat *= 10
		}
		qs = append(qs, sample{done: time.Duration(i+1) * time.Millisecond, lat: lat, ok: true})
	}
	got, groups := groupedPercentile(qs, 0, 4*time.Second, 4, 90)
	if groups != 4 || got != 0.189 {
		t.Errorf("p90 over spans = %v in %d spans, want 0.189 in 4", got, groups)
	}
	// Too few samples for more than one span: the plain percentile.
	got, groups = groupedPercentile(qs, 0, 4*time.Second, 4, 99)
	if groups != 1 || got != 1.95 {
		t.Errorf("p99 of 4000 samples = %v in %d spans, want 1.95 in 1", got, groups)
	}
	// Never more spans than the window has slices.
	if _, groups = groupedPercentile(qs, 0, 4*time.Second, 4, 50); groups != 4 {
		t.Errorf("p50 spans = %d, want the 4 slices", groups)
	}
}

func TestDurableAcceptsLostReplies(t *testing.T) {
	// base 1000, 50 appends acknowledged of 52 sent: the two whose reply was
	// lost may have been applied or not; an acknowledged one may not be gone.
	for _, c := range []struct {
		count int
		want  bool
	}{{1049, false}, {1050, true}, {1051, true}, {1052, true}, {1053, false}} {
		if got := durable(c.count, 1000, 50, 52); got != c.want {
			t.Errorf("durable(%d, 1000, 50, 52) = %v, want %v", c.count, got, c.want)
		}
	}
}

func TestSpreadMatchesExclusiveQuartiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	vals := []float64{7, 1, 10, 3, 5, 2, 9, 4, 8, 6}
	if got, want := spread(vals), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got := median(vals); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100},
		{ID: 1, Parent: 0, Start: 10, End: 40},
		{ID: 2, Parent: 0, Start: 30, End: 60},                   // overlaps span 1: the shared 10 counts once
		{ID: 3, Parent: 0, Start: 90, End: 120},                  // sticks out of the parent: only 10 is inside
		{ID: 4, Parent: 1, Start: 500, End: 520, Replayed: true}, // outside its parent's interval by design
		{ID: 5, Parent: 2, Start: 600, End: 700, Replayed: true}, // longer than its parent: clamps at zero
	}
	want := []int64{100 - 50 - 10, 30 - 20, 0, 30, 20, 100}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of span %d = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestPromDelta(t *testing.T) {
	before := parseProm(strings.NewReader(`# HELP mddm_cache_hits_total hits
# TYPE mddm_cache_hits_total counter
mddm_cache_hits_total 10
mddm_admission_shed_total{reason="queue-full"} 1
mddm_admission_shed_total{reason="deadline"} 2
mddm_delta_fallbacks_total{layer="preagg",reason="non-strict"} 5
mddm_delta_fallbacks_total{layer="result-cache",reason="no-partials"} 0
mddm_cache_bytes 100
garbage line without a number x
`))
	after := parseProm(strings.NewReader(`mddm_cache_hits_total 25
mddm_admission_shed_total{reason="queue-full"} 4
mddm_admission_shed_total{reason="deadline"} 2
mddm_delta_fallbacks_total{layer="preagg",reason="non-strict"} 9
mddm_delta_fallbacks_total{layer="result-cache",reason="no-partials"} 3
mddm_cache_bytes 4096
mddm_cache_hits_total_extra 99
`))
	d := promDelta{before, after}
	if got := d.of("mddm_cache_hits_total"); got != 15 {
		t.Errorf("hits delta = %v, want 15", got)
	}
	if got := d.sum("mddm_admission_shed_total"); got != 3 {
		t.Errorf("shed delta over all reasons = %v, want 3", got)
	}
	if got := d.sum("mddm_delta_fallbacks_total", `layer="result-cache"`); got != 3 {
		t.Errorf("result-cache fallback delta = %v, want 3", got)
	}
	if got := d.sum("mddm_cache_hits_total"); got != 15 {
		t.Errorf("a family sum must not match a longer name: got %v, want 15", got)
	}
	if got := d.after["mddm_cache_bytes"]; got != 4096 {
		t.Errorf("gauge = %v, want 4096", got)
	}
	if ratio(1, 0) != 0 {
		t.Error("ratio over zero should be 0")
	}
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := readSpec(root)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	if len(spec.Paths) != 1 || spec.Paths[0] != "bench" {
		t.Errorf("paths = %v, want [bench]", spec.Paths)
	}

	used := map[string]bool{}
	name := func(kind, n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("%s name %q does not match %s", kind, n, nameRE)
		}
		if used[n] {
			t.Errorf("name %q is used twice", n)
		}
		used[n] = true
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the driver %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		name("workload", w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the driver %q (%q)", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if len(spec.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the driver %d", len(spec.EndToEnd), len(e2eMetrics))
	}
	e2e := map[string]bool{}
	for i, m := range spec.EndToEnd {
		name("end-to-end metric", m.Name)
		e2e[m.Name] = true
		c := e2eMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better || m.Bound != c.bound {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the driver %+v", i, m, c)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if !e2e["setup_s"] {
		t.Error("no setup_s among the end-to-end metrics")
	}
	if len(spec.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the driver %d", len(spec.PerLayer), len(layerMetrics))
	}
	for i, m := range spec.PerLayer {
		name("per-layer metric", m.Name)
		c := layerMetrics[i]
		if m.Name != c.name || m.Unit != c.unit || m.Better != c.better {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the driver %+v", i, m, c)
		}
		if !e2e[c.movesMetric] && !slices.Contains(reportOnly, c.movesMetric) {
			t.Errorf("%s: moves names %q, which is neither an end-to-end metric nor a report-only number", c.name, c.movesMetric)
		}
		if workloadByName(c.movesWorkload) == nil {
			t.Errorf("%s: moves names %q, which is not a workload", c.name, c.movesWorkload)
		}
	}
}

// TestQuickSmoke runs one workload end to end, untraced and traced, on
// tiny data with a short window, and checks that the names printed are
// exactly the catalogue's.
func TestQuickSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns servers; skipped under -short")
	}
	e, err := newEnv(true)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.buildServer(); err != nil {
		t.Fatal(err)
	}
	w := workloadByName("ingest-mixed")
	for _, traced := range []bool{false, true} {
		line, notes, err := e.measure(context.Background(), w, 1, 2*time.Second, traced)
		if err != nil {
			t.Fatalf("traced=%v: %v", traced, err)
		}
		if !line.Correct || line.Failed != 0 || line.Attempted < 1 {
			t.Errorf("traced=%v: correct=%v attempted=%d failed=%d\n%s", traced, line.Correct, line.Attempted, line.Failed, strings.Join(notes, "\n"))
		}
		var want []string
		if traced {
			for _, m := range layerMetrics {
				want = append(want, m.name)
			}
		} else {
			for _, m := range e2eMetrics {
				want = append(want, m.name)
			}
		}
		var got []string
		for n := range line.Metrics {
			got = append(got, n)
		}
		sort.Strings(want)
		sort.Strings(got)
		if strings.Join(got, " ") != strings.Join(want, " ") {
			t.Errorf("traced=%v: printed names\n%v\nwant the catalogue's\n%v", traced, got, want)
		}
		if !traced {
			for n, v := range line.Metrics {
				if v.Value == 0 {
					t.Errorf("end-to-end metric %s is 0", n)
				}
			}
		}
	}
}
