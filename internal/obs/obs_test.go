package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterConcurrentAdds(t *testing.T) {
	var c Counter
	const workers, perWorker = 16, 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("lost updates: %d", got)
	}
}

func TestCounterIgnoresNonPositive(t *testing.T) {
	var c Counter
	c.Add(-5)
	c.Add(0)
	if c.Value() != 0 {
		t.Fatalf("counter moved: %d", c.Value())
	}
}

func TestSetEnabledGatesRecording(t *testing.T) {
	t.Cleanup(func() { SetEnabled(true) })
	var c Counter
	var h Histogram
	hp := newHistogram(DurationBuckets, 1.0/1e9)
	SetEnabled(false)
	c.Inc()
	h.Observe(time.Millisecond)
	hp.Observe(time.Millisecond)
	if c.Value() != 0 || hp.Count() != 0 {
		t.Fatal("recording while disabled")
	}
	SetEnabled(true)
	c.Inc()
	hp.Observe(time.Millisecond)
	if c.Value() != 1 || hp.Count() != 1 {
		t.Fatal("recording did not resume")
	}
}

func TestGaugeRecordsWhileDisabled(t *testing.T) {
	// Paired Add(1)/Add(-1) must not be split by a toggle mid-query.
	t.Cleanup(func() { SetEnabled(true) })
	var g Gauge
	g.Add(1)
	SetEnabled(false)
	g.Add(-1)
	SetEnabled(true)
	if g.Value() != 0 {
		t.Fatalf("gauge leaked: %d", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := newHistogram(DurationBuckets, 1.0/1e9)
	h.Observe(500 * time.Nanosecond) // below the first bound
	h.Observe(3 * time.Microsecond)
	h.Observe(time.Hour) // beyond the last bound: +Inf bucket
	if h.Count() != 3 {
		t.Fatalf("count: %d", h.Count())
	}
	if h.counts[0].Load() != 1 {
		t.Fatalf("first bucket: %d", h.counts[0].Load())
	}
	if h.counts[len(h.bounds)].Load() != 1 {
		t.Fatalf("+Inf bucket: %d", h.counts[len(h.bounds)].Load())
	}
	wantSum := (500*time.Nanosecond + 3*time.Microsecond + time.Hour).Seconds()
	if diff := h.Sum() - wantSum; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("sum: %v want %v", h.Sum(), wantSum)
	}
}

func TestRegistryIdempotentAndTypeChecked(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("m_total", "help")
	b := r.NewCounter("m_total", "help")
	if a != b {
		t.Fatal("same name+labels returned distinct counters")
	}
	l1 := r.NewCounter("lab_total", "h", Label{"op", "x"}, Label{"aa", "y"})
	l2 := r.NewCounter("lab_total", "h", Label{"aa", "y"}, Label{"op", "x"})
	if l1 != l2 {
		t.Fatal("label order created distinct children")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("kind clash must panic")
		}
	}()
	r.NewGauge("m_total", "help")
}

func TestWritePrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("mddm_x_total", "events", Label{"outcome", "hit"}).Add(3)
	r.NewCounter("mddm_x_total", "events", Label{"outcome", "miss"}).Add(1)
	r.NewGauge("mddm_active", "in flight").Set(2)
	h := r.NewHistogram("mddm_lat_seconds", "latency", DurationBuckets)
	h.Observe(3 * time.Microsecond)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP mddm_x_total events",
		"# TYPE mddm_x_total counter",
		`mddm_x_total{outcome="hit"} 3`,
		`mddm_x_total{outcome="miss"} 1`,
		"# TYPE mddm_active gauge",
		"mddm_active 2",
		"# TYPE mddm_lat_seconds histogram",
		`mddm_lat_seconds_bucket{le="1e-06"} 0`,
		`mddm_lat_seconds_bucket{le="4e-06"} 1`,
		`mddm_lat_seconds_bucket{le="+Inf"} 1`,
		"mddm_lat_seconds_sum 3e-06",
		"mddm_lat_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Exposition validity basics: every non-comment line is "name value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

func TestHistogramCumulativeBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.NewValueHistogram("parts", "partition counts", CountBuckets)
	for _, v := range []float64{1, 2, 2, 5, 5000} {
		h.ObserveValue(v)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`parts_bucket{le="1"} 1`,
		`parts_bucket{le="2"} 3`,
		`parts_bucket{le="8"} 4`,
		`parts_bucket{le="4096"} 4`,
		`parts_bucket{le="+Inf"} 5`,
		"parts_sum 5010",
		"parts_count 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

// TestRegistryScrapeRacesRuntimeRegistration: children registered at run
// time (per-tenant series) grow a family while a scraper renders it; under
// -race the render must not read a family's order or children outside the
// registry lock, and every scrape sees whole lines.
func TestRegistryScrapeRacesRuntimeRegistration(t *testing.T) {
	r := NewRegistry()
	const writers, perWriter = 4, 200
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				r.NewCounter("tenant_requests_total", "Requests by tenant.",
					Label{Key: "tenant", Value: fmt.Sprintf("t%d-%d", w, i)}).Inc()
			}
		}(w)
	}
	stop := make(chan struct{})
	scraped := make(chan struct{})
	go func() {
		defer close(scraped)
		for {
			var buf strings.Builder
			if err := r.WritePrometheus(&buf); err != nil {
				t.Error(err)
				return
			}
			if out := buf.String(); out != "" && !strings.HasSuffix(out, "\n") {
				t.Errorf("scrape ends mid-line: %q", out[len(out)-20:])
				return
			}
			select {
			case <-stop:
				return
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	<-scraped
	var buf strings.Builder
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(buf.String(), "tenant_requests_total{"); got != writers*perWriter {
		t.Fatalf("%d tenant series after the storm, want %d", got, writers*perWriter)
	}
}
