package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"mddm/internal/core"
)

// env is what every run needs: where things live and how long to warm up.
type env struct {
	root      string // checkout root (holds BENCHMARK.json)
	buildDir  string // root/.bench_build: binaries, temp data dirs
	outDir    string // root/bench/out: request lists, traces, results
	serverBin string
	warmup    time.Duration
	quick     bool
}

// Load-shape constants. The load is one closed-loop connection: driver
// and server then never want more than one core between them, which is
// what a shared host can be relied on to give (run.sh pins both to one
// CPU). sampleEvery is the in-window correctness sampling rate.
// sliceWidth is the span the window is cut into: throughput and CPU cost
// are taken per slice and reported as the median over the slices, so that
// a burst of interference moves a few slices, not the result.
// loggedRequests caps the written request list (the trace replays its
// head; the rest is reproducible from the seed).
const (
	sampleEvery    = 50
	sliceWidth     = time.Second
	loggedRequests = 5000
)

func (e *env) facts(w *workload) int {
	if e.quick {
		return w.quickFacts
	}
	return w.facts
}

// spawns is how often the workload's server is spawned fresh; setup_s is
// the median.
func (e *env) spawns(w *workload) int {
	if e.quick {
		return 1
	}
	return w.spawns
}

// sample is one completed request as the client saw it.
type sample struct {
	done   time.Duration // completion time since the load started
	lat    time.Duration
	append bool
	ok     bool
}

func (s sample) ms() float64 { return float64(s.lat) / float64(time.Millisecond) }

// check is a sampled response kept for comparison with the oracle.
type check struct {
	src  string
	body []byte
	at   int // index into the client's samples
}

// loadClient is the closed-loop connection: it sends the next request
// only after the previous reply arrived, and records what it saw. It
// speaks HTTP/1.1 over its own keep-alive connection rather than through
// http.Client: the driver shares its CPU with the server, and
// http.Client's transport spent more CPU per request than the server did
// on a cache hit, so the driver, not the server, set dash-hot's numbers.
type loadClient struct {
	addr string // host:port of the server
	conn net.Conn
	br   *bufio.Reader
	out  []byte // request buffer, reused

	samples []sample
	issued  []request
	checks  []check
	// sent counts the appends issued, acked those acknowledged with 200. An
	// append whose reply was lost may still have been applied.
	sent, acked int
}

// send issues one request and returns the status and body; transport
// errors come back as status 0 and drop the connection, so the next
// request dials afresh.
func (c *loadClient) send(r request) (int, []byte) {
	if c.conn == nil {
		conn, err := net.DialTimeout("tcp", c.addr, 5*time.Second)
		if err != nil {
			return 0, nil
		}
		c.conn, c.br = conn, bufio.NewReader(conn)
	}
	c.out = c.out[:0]
	if r.Kind == "append" {
		c.out = append(c.out, "POST /append HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: "...)
		c.out = strconv.AppendInt(c.out, int64(len(r.Body)), 10)
		c.out = append(c.out, "\r\n\r\n"...)
		c.out = append(c.out, r.Body...)
	} else {
		c.out = append(c.out, "GET /query?q="...)
		c.out = append(c.out, url.QueryEscape(r.Q)...)
		if r.NoCache {
			c.out = append(c.out, "&nocache=1"...)
		}
		c.out = append(c.out, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
	}
	status, body, err := c.roundTrip()
	if err != nil {
		c.close()
		return 0, nil
	}
	return status, body
}

func (c *loadClient) roundTrip() (int, []byte, error) {
	if err := c.conn.SetDeadline(time.Now().Add(30 * time.Second)); err != nil {
		return 0, nil, err
	}
	if _, err := c.conn.Write(c.out); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, body, err
}

func (c *loadClient) close() {
	if c.conn != nil {
		c.conn.Close()
		c.conn = nil
	}
}

// run drives requests from next until stop closes. sampled turns on the
// 1-in-sampleEvery response capture.
func (c *loadClient) run(start time.Time, next func() request, stop <-chan struct{}, sampled bool) {
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		default:
		}
		r := next()
		t0 := time.Now()
		status, body := c.send(r)
		lat := time.Since(t0)
		good := status == http.StatusOK
		if r.Kind == "append" {
			c.sent++
			if good {
				c.acked++
			}
		}
		if len(c.issued) < loggedRequests {
			c.issued = append(c.issued, r)
		}
		if sampled && good && r.Kind == "query" && i%sampleEvery == 0 {
			c.checks = append(c.checks, check{src: r.Q, body: body, at: len(c.samples)})
		}
		c.samples = append(c.samples, sample{done: t0.Add(lat).Sub(start), lat: lat, append: r.Kind == "append", ok: good})
	}
}

// mark is one reading of the child's CPU clock while the load runs.
type mark struct {
	at    time.Duration // since the load started
	ticks float64       // child utime+stime so far
}

// window is the measured interval of a load: the marks are its slice
// edges, the first its start and the last its end.
type window struct {
	marks     []mark
	rssPeakMB float64
	// prom holds the /metrics scrapes at the edges when scrape is set.
	scrape bool
	prom   promDelta
}

func (w *window) from() time.Duration { return w.marks[0].at }
func (w *window) to() time.Duration   { return w.marks[len(w.marks)-1].at }
func (w *window) holds(s sample) bool { return s.done > w.from() && s.done <= w.to() }

// drive runs the closed-loop client against srv: warm-up (discarded),
// then the measured window, the child's CPU time read at every slice
// edge (and /metrics at the window's edges when win.scrape).
func (e *env) drive(srv *server, hc *http.Client, c *loadClient, next func() request, length time.Duration, win *window, sampled bool) error {
	stop, done := make(chan struct{}), make(chan struct{})
	start := time.Now()
	go func() {
		defer close(done)
		c.run(start, next, stop, sampled)
	}()
	defer func() {
		close(stop)
		<-done
	}()

	time.Sleep(e.warmup)
	var err error
	if win.scrape {
		if win.prom.before, err = srv.scrape(hc); err != nil {
			return err
		}
	}
	slices := max(1, int(length/sliceWidth))
	t0 := time.Now()
	for i := 0; i <= slices; i++ {
		time.Sleep(time.Until(t0.Add(length * time.Duration(i) / time.Duration(slices))))
		ticks, err := srv.cpuTicks()
		if err != nil {
			return err
		}
		win.marks = append(win.marks, mark{time.Since(start), ticks})
	}
	if win.rssPeakMB, err = srv.peakRSSMB(); err != nil {
		return err
	}
	if win.scrape {
		win.prom.after, err = srv.scrape(hc)
	}
	return err
}

// newHTTPClient returns the client for the driver's own probes: health
// checks and /metrics scrapes.
func newHTTPClient() *http.Client {
	return &http.Client{Timeout: 30 * time.Second}
}

// runResult is one run, untraced or traced: the metrics by name, the
// request accounting (behind ok_ratio and the result line's counts), and
// the human-readable notes printed as # lines.
type runResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	notes     []string
}

func newRunResult() *runResult { return &runResult{metrics: map[string]float64{}} }

func (r *runResult) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// e2eRun is the state of one untraced run as it moves through its phases.
type e2eRun struct {
	*env
	w     *workload
	facts int
	hc    *http.Client
	res   *runResult

	srv     *server
	dataDir string
	client  *loadClient
	win     window
	// failed marks the window samples that count as failed: a non-200 or
	// transport error, or an answer the oracle disagrees with.
	failed map[int]bool
}

// runE2E is one untraced end-to-end run of a workload: gate, repeated
// fresh spawns (setup_s), warm-up, measured window, then the answer
// checks — the in-process oracle on the read-only workloads; on
// ingest-mixed cached ≡ recomputed, SIGKILL, respawn and the durability
// check.
func (e *env) runE2E(ctx context.Context, w *workload, seed int64, length time.Duration) (*runResult, error) {
	r := &e2eRun{env: e, w: w, facts: e.facts(w), hc: newHTTPClient(), res: newRunResult()}
	defer r.hc.CloseIdleConnections()
	// Whatever happens, no child outlives the run and no data dir is left.
	defer func() {
		if r.client != nil {
			r.client.close()
		}
		if r.srv != nil {
			r.srv.kill()
		}
		removeTempDir(r.dataDir)
	}()

	// phases records where the run's wall-clock time went.
	var phases []string
	clock := time.Now()
	phase := func(name string) {
		phases = append(phases, fmt.Sprintf("%s %.1f s", name, time.Since(clock).Seconds()))
		clock = time.Now()
	}

	gateMO, err := generateMO(gateFacts)
	if err != nil {
		return nil, err
	}
	gate, err := newOracle(ctx, gateMO)
	if err != nil {
		return nil, err
	}
	if err := gate.gate(ctx, w); err != nil {
		return nil, err
	}
	r.res.notef("gate: %d templates answer identically through planner and algebra", len(w.templates()))
	phase("gate")

	if err := r.freshSpawns(); err != nil {
		return nil, err
	}
	phase("set-up")
	r.client = &loadClient{addr: r.srv.addr}
	// A workload that writes changes the data under its queries, so its
	// answers are checked against the server itself afterwards, not sampled
	// for the oracle.
	if err := e.drive(r.srv, r.hc, r.client, w.stream(newGenerator(seed, ages(gateMO))), length, &r.win, !w.writes); err != nil {
		return nil, err
	}
	phase("warm-up and window")
	if err := r.accountWindow(); err != nil {
		return nil, err
	}
	if w.writes {
		r.checkCachedAgainstFresh()
		if err := r.crashAndRecover(); err != nil {
			return nil, err
		}
	} else {
		r.srv.kill() // the oracle below should have the CPU to itself
		orc := gate
		if r.facts != gateFacts {
			var mo *core.MO
			if mo, err = generateMO(r.facts); err != nil {
				return nil, err
			}
			if orc, err = newOracle(ctx, mo); err != nil {
				return nil, err
			}
		}
		r.compareWithOracle(ctx, orc)
	}
	phase("answer checks")
	r.res.notef("run: %s", strings.Join(phases, ", "))
	r.res.failed += len(r.failed)
	r.res.metrics["ok_ratio"] = 1 - float64(r.res.failed)/float64(r.res.attempted)
	return r.res, e.writeRequests(w, r.client.issued)
}

// freshSpawns measures setup_s: spawn on a fresh data dir several times
// and keep the median; the last spawn serves the run.
func (r *e2eRun) freshSpawns() error {
	var setups []float64
	for i := 0; i < r.spawns(r.w); i++ {
		if r.srv != nil {
			r.srv.kill()
			removeTempDir(r.dataDir)
		}
		var err error
		if r.dataDir, err = makeTempDir(r.buildDir, "data-"); err != nil {
			return err
		}
		if r.srv, err = spawn(r.serverBin, r.dataDir, r.facts, r.hc); err != nil {
			return err
		}
		setups = append(setups, r.srv.setup.Seconds())
	}
	r.res.metrics["setup_s"] = median(setups)
	r.res.notef("setup_s: median of %d spawns %v", len(setups), setups)
	return nil
}

// accountWindow turns the window's samples and CPU marks into the
// throughput, latency, CPU and memory metrics. Throughput and CPU cost
// are medians over the window's slices; a latency percentile is the
// median over as many equal spans of the window as leave each span
// enough samples for that percentile (see groupedPercentile).
func (r *e2eRun) accountWindow() error {
	win := &r.win
	slices := len(win.marks) - 1
	reqs, ok := make([]int, slices), make([]int, slices)
	var queries []sample
	var appendMs []float64
	r.failed = map[int]bool{}
	si := 0
	for i, s := range r.client.samples { // in completion order: one client
		if !win.holds(s) {
			continue
		}
		for s.done > win.marks[si+1].at {
			si++
		}
		reqs[si]++
		switch {
		case !s.ok:
			r.failed[i] = true
		case s.append:
			ok[si]++
			appendMs = append(appendMs, s.ms())
		default:
			ok[si]++
			queries = append(queries, s)
		}
	}
	if len(queries) == 0 {
		return fmt.Errorf("no query succeeded in the window (server stderr: %s)", strings.TrimSpace(r.srv.stderr.String()))
	}
	var qps, cpu []float64
	for i := 0; i < slices; i++ {
		a, b := win.marks[i], win.marks[i+1]
		qps = append(qps, float64(ok[i])/(b.at-a.at).Seconds())
		if reqs[i] > 0 {
			cpu = append(cpu, (b.ticks-a.ticks)*msPerTick/float64(reqs[i]))
		}
		r.res.attempted += reqs[i]
	}
	m := r.res.metrics
	m["qps"] = median(qps)
	m["server_cpu_ms_per_req"] = median(cpu)
	m["rss_peak_mb"] = win.rssPeakMB
	r.res.notef("qps, server_cpu_ms_per_req: medians over %d slices of %v; qps per slice %.0f", slices, (win.to()-win.from())/time.Duration(slices), qps)
	for _, p := range []struct {
		name string
		p    float64
	}{{"query_p50_ms", 50}, {"query_p90_ms", 90}} {
		v, groups := groupedPercentile(queries, win.from(), win.to(), slices, p.p)
		m[p.name] = v
		r.res.notef("%s: n=%d, %s%s", p.name, len(queries), spanNote(groups), tailNote(len(queries)/groups, p.p))
	}
	// Report-only from here: the 99th percentile and the durable-append
	// timings did not hold the widest bound allowed in the acceptance check
	// (see README), so they are printed, not gated.
	p99, groups := groupedPercentile(queries, win.from(), win.to(), slices, 99)
	r.res.notef("query_p99_ms (report-only): %.4f ms, n=%d, %s%s", p99, len(queries), spanNote(groups), tailNote(len(queries)/groups, 99))
	if len(appendMs) > 0 {
		sort.Float64s(appendMs)
		r.res.notef("append_p50_ms (report-only): %.4f ms, n=%d", percentile(appendMs, 50), len(appendMs))
		r.res.notef("append_p99_ms (report-only): %.4f ms, n=%d%s", percentile(appendMs, 99), len(appendMs), tailNote(len(appendMs), 99))
	}
	return nil
}

// spanSupport is how many times the samples a percentile needs by the
// ten-samples-beyond rule each span of groupedPercentile holds at least:
// a span with just ten samples beyond its p90 hops between the latency
// classes of a mixed workload.
const spanSupport = 5

// groupedPercentile cuts the window (from, to] into equal spans — as many
// as leave each about spanSupport times the sample count the p-th
// percentile needs, at most maxGroups — takes the percentile of the query
// latencies in each span, and returns the median over the spans with the
// number of spans. One span is the plain percentile of the window.
func groupedPercentile(queries []sample, from, to time.Duration, maxGroups int, p float64) (float64, int) {
	groups := max(1, min(maxGroups, len(queries)/(spanSupport*minSupport(p))))
	lats := make([][]float64, groups)
	for _, s := range queries {
		g := int((s.done - from - 1) * time.Duration(groups) / (to - from))
		lats[g] = append(lats[g], s.ms())
	}
	var vals []float64
	for _, l := range lats {
		if len(l) > 0 {
			sort.Float64s(l)
			vals = append(vals, percentile(l, p))
		}
	}
	return median(vals), groups
}

// checkCachedAgainstFresh is ingest-mixed's answer check: every dashboard
// query must answer the same from the cache (hit or hit-upgraded) as
// recomputed from scratch.
func (r *e2eRun) checkCachedAgainstFresh() {
	probe := &loadClient{addr: r.srv.addr}
	defer probe.close()
	for _, q := range dashboardQueries() {
		r.res.attempted++
		s1, cached := probe.send(request{Kind: "query", Q: q})
		s2, fresh := probe.send(request{Kind: "query", Q: q, NoCache: true})
		a, err1 := decodeWire(cached)
		b, err2 := decodeWire(fresh)
		if s1 != http.StatusOK || s2 != http.StatusOK || err1 != nil || err2 != nil || !a.equal(b) {
			r.res.failed++
			r.res.notef("MISMATCH cached vs nocache on %q", q)
		}
	}
}

// crashAndRecover is ingest-mixed's durability check: kill the server
// with SIGKILL (nothing is flushed on the way out), respawn on the same
// data dir, and require every acknowledged append to be visible. Restart
// time and disk footprint are printed report-only, like the append
// timings.
func (r *e2eRun) crashAndRecover() error {
	sent, acked := r.client.sent, r.client.acked
	if acked == 0 {
		return fmt.Errorf("no append was acknowledged")
	}
	r.srv.kill()
	disk, err := dirBytes(r.dataDir)
	if err != nil {
		return err
	}
	// Per stored fact, not per append: the directory is mostly the newest
	// O(facts) snapshot, so dividing by the append count, which throughput
	// sets, would turn a faster server into a disk gain.
	r.res.notef("disk_bytes_per_fact (report-only): %.1f B (%d B under -data, %d generated + %d acknowledged facts)",
		float64(disk)/float64(r.facts+acked), disk, r.facts, acked)
	if r.srv, err = spawn(r.serverBin, r.dataDir, r.facts, r.hc); err != nil {
		return fmt.Errorf("restart after SIGKILL: %w", err)
	}
	r.res.notef("restart_s (report-only): %.4f s", r.srv.setup.Seconds())

	r.res.attempted++
	probe := &loadClient{addr: r.srv.addr}
	defer probe.close()
	status, body := probe.send(request{Kind: "query", Q: "SELECT SETCOUNT(*) FROM patients", NoCache: true})
	if got, ok := soleCount(status, body); !ok || !durable(got, r.facts, acked, sent) {
		r.res.failed++
		r.res.notef("DURABILITY: after restart SETCOUNT(*) = %d (status %d), want %d to %d (base %d + %d acknowledged of %d sent appends)",
			got, status, r.facts+acked, r.facts+sent, r.facts, acked, sent)
	} else {
		r.res.notef("durability: %d facts after SIGKILL + restart, all %d acknowledged of %d sent appends visible", got, acked, sent)
	}
	r.srv.kill()
	return nil
}

// soleCount reads the one number of an ungrouped SETCOUNT(*) response.
func soleCount(status int, body []byte) (int, bool) {
	got, err := decodeWire(body)
	if status != http.StatusOK || err != nil || len(got.Rows) != 1 || len(got.Rows[0]) == 0 {
		return 0, false
	}
	n, err := strconv.Atoi(got.Rows[0][0])
	return n, err == nil
}

// durable says whether a recovered fact count is one a crash may leave:
// every acknowledged append is there; an append that was sent but whose
// reply never arrived may be there or not.
func durable(count, base, acked, sent int) bool {
	return base+acked <= count && count <= base+sent
}

// compareWithOracle checks the responses sampled in the window against
// the in-process planner over an identically generated MO.
func (r *e2eRun) compareWithOracle(ctx context.Context, orc *oracle) {
	checked := 0
	for _, ck := range r.client.checks {
		if !r.win.holds(r.client.samples[ck.at]) {
			continue
		}
		checked++
		want, err := orc.exec(ctx, ck.src)
		got, derr := decodeWire(ck.body)
		if err != nil || derr != nil || !got.equal(toWire(want)) {
			r.failed[ck.at] = true
			r.res.notef("MISMATCH server vs in-process planner on %q", ck.src)
		}
	}
	r.res.notef("oracle: %d sampled responses compared with the in-process planner", checked)
}

func spanNote(groups int) string {
	if groups == 1 {
		return "the plain percentile of the window"
	}
	return fmt.Sprintf("median over %d spans of the window", groups)
}

func tailNote(n int, p float64) string {
	if supportedTail(n, p) {
		return ""
	}
	return " (fewer than ten samples beyond this percentile: report-only)"
}

// writeRequests records the head of the issued request list.
func (e *env) writeRequests(w *workload, issued []request) error {
	f, err := os.Create(filepath.Join(e.outDir, "requests-"+w.name+".jsonl"))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	enc.SetEscapeHTML(false)
	for _, r := range issued {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
