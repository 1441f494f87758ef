package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"sort"
	"strings"
	"time"

	"mddm/internal/admission"
	"mddm/internal/batch"
	"mddm/internal/cache"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/plan"
	"mddm/internal/query"
	"mddm/internal/segment"
	"mddm/internal/serve"
	"mddm/internal/storage"
)

// The traced run gives the per-layer numbers. It has two halves:
//
//   - the counters (ratios and counts) are deltas of the child server's
//     /metrics over a measured window of the same traffic as the untraced
//     run, half as long;
//   - the timings come from an in-process replay of the head of the
//     request list: once through serve.Handler (the whole request), once
//     through serve.ServeQuery (the request minus HTTP), and once as a
//     hand-driven walk down the pipeline, calling each layer's public
//     functions with a span around each call.
//
// Spans are recorded by the recorder in trace.go, from outside the layers;
// spans inside the program are a later change. End-to-end metrics are
// never taken from this run.

// maxReplay caps the replayed head of the request list.
const maxReplay = 2000

// sampleSet collects timing samples per metric name; the reported value
// is the median.
type sampleSet map[string][]float64

func (s sampleSet) add(name string, v float64) { s[name] = append(s[name], v) }

func serveLimits() serve.Limits {
	return serve.Limits{
		Timeout: 5 * time.Second, MaxResultRows: 10000, MaxFactsScanned: 10_000_000,
		Parallelism: 1, ColumnMinValues: columnMinValues, ResultCacheBytes: resultCacheBytes,
		Planner: true, DeltaMaintenance: true,
		Batching:  batchConfig(),
		Admission: admissionConfig(),
	}
}

func batchConfig() batch.Config {
	return batch.Config{Enabled: true, GatherWindow: batch.DefaultGatherWindow, MaxBatch: batch.DefaultMaxBatch, MaxParallelism: 1}
}

func admissionConfig() admission.Config {
	return admission.Config{MaxConcurrency: admitCeiling, MinConcurrency: admitFloor, TargetLatency: admitTarget}
}

// stack is mdserve's serving state rebuilt in-process: generated MO,
// persistent store, recovered engine with warm columns, server. Its
// construction is the in-process account of setup_s.
type stack struct {
	dir string
	mo  *core.MO
	st  *segment.Store
	eng *storage.Engine
	srv *serve.Server

	generateS, buildS, warmS float64
	heapBytes                int64
}

// storeOptions mirror the server's flush policy. Background folding is
// off in-process so the replay is not interrupted; the fold is timed on
// its own (segment.fold_ms).
var storeOptions = segment.Options{Sync: true}

func heapAlloc() int64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return int64(m.HeapAlloc)
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

// newStack builds a stack over a fresh data directory under parent,
// following cmd/mdserve's start-up order.
func newStack(ctx context.Context, parent string, facts int) (s *stack, err error) {
	dir, err := makeTempDir(parent, "trace-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if err != nil {
			removeTempDir(dir)
		}
	}()
	s = &stack{dir: dir}
	heap0 := heapAlloc()
	t := time.Now()
	if s.mo, err = generateMO(facts); err != nil {
		return nil, err
	}
	s.generateS = time.Since(t).Seconds()
	if s.st, err = segment.Open(dir, s.mo, storeOptions); err != nil {
		return nil, err
	}
	t = time.Now()
	if s.eng, err = s.st.Recover(ctx, dimension.CurrentContext(refDate)); err != nil {
		return nil, err
	}
	s.buildS = time.Since(t).Seconds()
	t = time.Now()
	if err = s.eng.WarmColumns(ctx, columnMinValues); err != nil {
		return nil, err
	}
	s.warmS = time.Since(t).Seconds()
	s.heapBytes = max(heapAlloc()-heap0, 0)
	s.srv = serve.NewServer(serve.NewCatalog(), serveLimits(), refDate)
	if err = s.srv.AttachStore("patients", s.st); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *stack) close() {
	_ = s.srv.CloseStores() // a store the segment probe already closed says so; there is nothing left to flush
	removeTempDir(s.dir)
}

func toFactAppend(r request) segment.FactAppend {
	rec := segment.FactAppend{FactID: r.Fact, Pairs: make([]segment.Pair, len(r.pairs))}
	for i, p := range r.pairs {
		rec.Pairs[i] = segment.Pair{Dim: p.Dim, Value: p.Value, Annot: dimension.Always()}
	}
	return rec
}

// runTraced is one traced run of a workload; see the comment at the top
// of this file.
func (e *env) runTraced(ctx context.Context, w *workload, seed int64, length time.Duration) (*runResult, error) {
	res := newRunResult()
	gateMO, err := generateMO(gateFacts)
	if err != nil {
		return nil, err
	}
	if err := e.tracedCounters(res, w, seed, length/2, ages(gateMO)); err != nil {
		return nil, err
	}
	if err := e.tracedReplay(ctx, res, w, seed, length/2, ages(gateMO)); err != nil {
		return nil, err
	}
	return res, nil
}

// tracedCounters spawns the server, drives the workload's traffic, and
// turns the /metrics deltas over the window into the counter metrics.
func (e *env) tracedCounters(res *runResult, w *workload, seed int64, length time.Duration, ageValues []string) error {
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	dataDir, err := makeTempDir(e.buildDir, "data-")
	if err != nil {
		return err
	}
	defer removeTempDir(dataDir)
	srv, err := spawn(e.serverBin, dataDir, e.facts(w), hc)
	if err != nil {
		return err
	}
	defer srv.kill()
	client := &loadClient{addr: srv.addr}
	defer client.close()
	win := window{scrape: true}
	if err := e.drive(srv, hc, client, w.stream(newGenerator(seed, ageValues)), length, &win, false); err != nil {
		return err
	}
	for _, s := range client.samples {
		if win.holds(s) {
			res.attempted++
			if !s.ok {
				res.failed++
			}
		}
	}
	d, m := win.prom, res.metrics
	hits, misses := d.of("mddm_cache_hits_total"), d.of("mddm_cache_misses_total")
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	upgrades := d.of(`mddm_delta_upgrades_total{layer="result-cache"}`)
	m["cache.upgrade_ratio"] = ratio(upgrades, upgrades+d.sum("mddm_delta_fallbacks_total", `layer="result-cache"`))
	m["cache.evictions"] = d.of("mddm_cache_evictions_total")
	m["cache.resident_bytes"] = d.after["mddm_cache_bytes"]
	m["admission.queue_wait_ms"] = 1000 * ratio(d.of("mddm_admission_queue_wait_seconds_sum"), d.of("mddm_admission_queue_wait_seconds_count"))
	shed := d.sum("mddm_admission_shed_total")
	m["admission.shed_ratio"] = ratio(shed, shed+d.of("mddm_admission_admitted_total"))
	members := d.of("mddm_batch_members_total")
	m["batch.members_per_batch"] = ratio(members, d.of("mddm_batch_batches_total"))
	bypass := d.sum("mddm_batch_bypass_total")
	m["batch.bypass_ratio"] = ratio(bypass, bypass+members)
	m["plan.fallback_ratio"] = ratio(d.of(`mddm_plan_queries_total{mode="fallback"}`), d.sum("mddm_plan_queries_total"))
	m["storage.column_kernel_ratio"] = ratio(d.of(`mddm_storage_kernel_total{kind="column"}`), d.sum("mddm_storage_kernel_total"))
	m["segment.fsyncs_per_append"] = ratio(d.of("mddm_segment_wal_fsyncs_total"), d.of("mddm_segment_wal_appends_total"))
	res.notef("counters: %d requests in a %.1f s window of the child server", res.attempted, (win.to() - win.from()).Seconds())
	return nil
}

// passResult is what one replayed request did on the whole-request pass.
type passResult struct {
	us    float64
	bytes int
}

// tracedReplay is the in-process half of the traced run.
func (e *env) tracedReplay(ctx context.Context, res *runResult, w *workload, seed int64, budget time.Duration, ageValues []string) error {
	facts := e.facts(w)
	// Twin stacks: one is driven through HTTP, the other through the serving
	// layer's Go entry points and then by hand.
	var stacks [2]*stack
	for i := range stacks {
		s, err := newStack(ctx, e.buildDir, facts)
		if err != nil {
			return err
		}
		defer s.close()
		stacks[i] = s
	}
	whole, inner := stacks[0], stacks[1]
	m := res.metrics
	m["casestudy.generate_s"] = whole.generateS
	m["storage.build_engine_s"] = whole.buildS
	m["storage.warm_columns_s"] = whole.warmS
	m["storage.heap_bytes_per_fact"] = float64(whole.heapBytes) / float64(facts)

	reqs := take(w, seed, ageValues, maxReplay)
	rec := newRecorder()
	samples := sampleSet{}

	// Pass 1: the whole request through the HTTP handler. It sets how many
	// requests fit the time budget: the later passes cost about as much
	// again each (twice for algebra fallbacks, which the staged pass runs
	// both under plan.execute and as its replayed child).
	handler := whole.srv.Handler()
	pass1 := make([]passResult, 0, len(reqs))
	start := time.Now()
	for i, r := range reqs {
		hr := httpRequest(r)
		rw := httptest.NewRecorder()
		id := rec.begin("serve.http", -1, i)
		handler.ServeHTTP(rw, hr)
		pass1 = append(pass1, passResult{us: rec.end(id), bytes: rw.Body.Len()})
		res.attempted++
		if rw.Code != http.StatusOK {
			res.failed++
		}
		if time.Since(start) > budget/4 {
			break
		}
	}
	n := len(pass1)
	reqs = reqs[:n]

	// Pass 2: the same requests through the serving layer's Go entry
	// points on an identical second stack, so both stacks move through the
	// same cache states: the difference per request is HTTP's own time.
	pass2 := make([]float64, n)
	for i, r := range reqs {
		id := rec.begin("serve.query", -1, i)
		var err error
		switch {
		case r.Kind == "append":
			_, err = inner.srv.Append("patients", toFactAppend(r))
		case r.NoCache:
			_, err = inner.srv.Query(ctx, r.Q)
		default:
			_, _, err = inner.srv.ServeQuery(ctx, r.Q)
		}
		pass2[i] = rec.end(id)
		if err != nil {
			return fmt.Errorf("replaying %q through the serving layer: %w", r.Q+r.Fact, err)
		}
	}

	// Pass 3: the hand-driven walk down the pipeline on the second stack's
	// engine and store, with this run's own cache and admission controller.
	st := &staged{
		ctx: ctx, rec: rec, samples: samples, eng: inner.eng, store: inner.st, engines: inner.srv,
		cat:   query.Catalog{"patients": inner.mo},
		cache: cache.New(resultCacheBytes), adm: admission.New(admissionConfig()), facts: facts,
	}
	// Coverage is taken per request and reported as the median, so the
	// typical request decides it, not the few expensive ones; the per-class
	// lines say how the classes differ.
	type classTimes struct{ whole, inner, stages []float64 }
	classes := map[string]*classTimes{}
	var sumWhole float64
	for i, r := range reqs {
		var stages, encode float64
		var class string
		var err error
		if r.Kind == "append" {
			r.Fact += "s" // the second stack's store already holds pass 2's fact
			class = "append"
			stages, err = st.append(i, r)
		} else {
			stages, encode, class, err = st.query(i, r)
		}
		if err != nil {
			return fmt.Errorf("staged replay of %q: %w", r.Q+r.Fact, err)
		}
		samples.add("serve.http_self_us", pass1[i].us-pass2[i])
		samples.add("serve.query_self_us", pass2[i]-(stages-encode))
		samples.add("serve.resp_bytes", float64(pass1[i].bytes))
		samples.add("trace.coverage_ratio", ratio(stages, pass1[i].us))
		samples.add("serve.unattributed_ratio", 1-ratio(stages-encode, pass2[i]))
		sumWhole += pass1[i].us
		c := classes[class]
		if c == nil {
			c = &classTimes{}
			classes[class] = c
		}
		c.whole, c.inner, c.stages = append(c.whole, pass1[i].us), append(c.inner, pass2[i]), append(c.stages, stages)
	}
	spansPerReq := float64(len(rec.spans)) / float64(max(n, 1))
	m["trace.overhead_ratio"] = 1 + ratio(spansPerReq*spanCostUs(), sumWhole/float64(max(n, 1)))
	res.notef("replay: %d requests of the list, %d spans", n, len(rec.spans))
	names := make([]string, 0, len(classes))
	for name := range classes {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		c := classes[name]
		res.notef("replay class %-14s n=%-5d median us: handler %.1f, serving layer %.1f, staged stages %.1f",
			name, len(c.whole), median(c.whole), median(c.inner), median(c.stages))
	}

	if err := st.probeKernels(m); err != nil {
		return err
	}
	if err := st.probeBatchTax(samples); err != nil {
		return err
	}
	if err := probeSegment(ctx, whole, facts, seed, rec, samples, m); err != nil {
		return err
	}
	for name, vals := range samples {
		m[name] = median(vals)
	}
	return e.writeTrace(w, rec.spans)
}

// spanCostUs measures what one begin/end pair of the recorder costs.
func spanCostUs() float64 {
	r := newRecorder()
	const pairs = 100000
	t := time.Now()
	for i := 0; i < pairs; i++ {
		r.end(r.begin("probe", -1, i))
	}
	return float64(time.Since(t).Microseconds()) / pairs
}

func httpRequest(r request) *http.Request {
	if r.Kind == "append" {
		hr := httptest.NewRequest(http.MethodPost, "/append", strings.NewReader(r.Body))
		hr.Header.Set("Content-Type", "application/json")
		return hr
	}
	target := "/query?q=" + url.QueryEscape(r.Q)
	if r.NoCache {
		target += "&nocache=1"
	}
	return httptest.NewRequest(http.MethodGet, target, nil)
}

// staged is the hand-driven pipeline: the serving path of one request
// spelled out as calls to each layer's public functions, in the order
// serve.ServeQuery makes them, each under a span.
type staged struct {
	ctx     context.Context
	rec     *recorder
	samples sampleSet
	eng     *storage.Engine
	store   *segment.Store
	engines plan.Engines
	cat     query.Catalog
	cache   *cache.Cache
	adm     *admission.Controller
	facts   int
}

// cached is the staged cache's entry: the result and, when the planner
// captured them, the partials a delta upgrade continues from.
type cached struct {
	res   *query.Result
	parts *plan.Partials
}

func resultSize(r *query.Result) int64 {
	n := int64(96)
	for _, row := range r.Rows {
		n += 24
		for _, v := range row {
			n += int64(len(v)) + 16
		}
	}
	return n
}

func (s *staged) version() cache.Version { return cache.Version{Gen: 1, Epoch: s.eng.Epoch()} }

// query walks one read down the pipeline. It returns the summed duration
// of the stages (µs), the encode stage's share of it, and the class of
// the request: hit, upgrade, or the plan shape or fallback reason that
// computed it.
func (s *staged) query(i int, r request) (stages, encode float64, class string, err error) {
	rec := s.rec
	root := rec.begin("staged.request", -1, i)
	rec.spans[root].Note = r.Q
	defer rec.end(root)
	stage := func(name string, f func()) float64 {
		id := rec.begin(name, root, i)
		f()
		us := rec.end(id)
		stages += us
		return us
	}

	var key string
	keyID := rec.begin("query.key", root, i)
	key, _, err = cache.QueryKey(r.Q)
	us := rec.end(keyID)
	stages += us
	s.samples.add("query.key_us", us)
	if err != nil {
		return 0, 0, "", err
	}
	parseID := rec.beginReplayed("query.parse", keyID, i)
	q, err := query.Parse(r.Q)
	s.samples.add("query.parse_us", rec.end(parseID))
	if err != nil {
		return 0, 0, "", err
	}

	var res *query.Result
	ver := s.version()
	if !r.NoCache {
		var v any
		var hit bool
		us := stage("cache.get", func() { v, hit = s.cache.Get(key, ver) })
		if hit {
			s.samples.add("cache.get_hit_us", us)
			res, class = v.(*cached).res, "hit"
		} else if res, err = s.upgrade(i, root, key, &stages); err != nil {
			return 0, 0, "", err
		} else if res != nil {
			class = "upgrade"
		}
	}
	if res == nil {
		if res, class, err = s.compute(i, root, r, q, key, ver, &stages); err != nil {
			return 0, 0, "", err
		}
	}
	var buf bytes.Buffer
	encode = stage("serve.encode", func() {
		enc := json.NewEncoder(&buf)
		enc.SetEscapeHTML(false)
		err = enc.Encode(toWire(res))
	})
	s.samples.add("serve.encode_us", encode)
	return stages, encode, class, err
}

// upgrade repairs a version-stale entry by folding the appended facts,
// as serve's delta path does; a nil result means there was nothing to
// repair and the caller computes.
func (s *staged) upgrade(i int, root int32, key string, stages *float64) (*query.Result, error) {
	v, oldVer, upgradeable, ok := s.cache.GetForUpgrade(key)
	if !ok || !upgradeable {
		return nil, nil
	}
	lo, hi, cur, ok := s.eng.DeltaRange(oldVer.Epoch)
	if !ok {
		return nil, nil
	}
	id := s.rec.begin("plan.upgrade", root, i)
	merged, next, err := plan.UpgradeResult(s.ctx, s.eng, v.(*cached).parts, lo, hi, refDate)
	us := s.rec.end(id)
	if err != nil {
		return nil, err
	}
	*stages += us
	s.samples.add("plan.upgrade_us", us)
	id = s.rec.begin("cache.upgrade_swap", root, i)
	s.cache.Upgrade(key, oldVer, cache.Version{Gen: 1, Epoch: cur}, &cached{merged, next}, resultSize(merged))
	us = s.rec.end(id)
	*stages += us
	s.samples.add("cache.upgrade_swap_us", us)
	return merged, nil
}

// compute is the miss path: admission, plan, execute, cache fill. Under
// plan.execute it replays, as children, the storage kernel the shape
// calls (or the algebra, for fallbacks) and the HAVING/ORDER/LIMIT tail,
// each called directly, so the planner's own time can be told apart from
// the layers below it.
func (s *staged) compute(i int, root int32, r request, q *query.Query, key string, ver cache.Version, stages *float64) (*query.Result, string, error) {
	rec := s.rec
	id := rec.begin("admission.admit", root, i)
	tk, err := s.adm.Admit(s.ctx)
	admitUs := rec.end(id)
	if err != nil {
		return nil, "", err
	}

	cctx, ex := plan.WithExplain(s.ctx)
	var cp *plan.Capture
	if !r.NoCache {
		cctx, cp = plan.WithCapture(cctx)
	}
	m0 := mallocs()
	id = rec.begin("plan.prepare", root, i)
	p, err := plan.PrepareContext(cctx, r.Q, s.cat, refDate, s.engines)
	prepareUs := rec.end(id)
	if err != nil {
		tk.Release()
		return nil, "", err
	}
	execID := rec.begin("plan.execute", root, i)
	res, err := p.Execute()
	executeUs := rec.end(execID)
	allocs := float64(mallocs() - m0)
	if err != nil {
		tk.Release()
		return nil, "", err
	}
	*stages += admitUs + prepareUs + executeUs

	class := ex.Shape
	if ex.Mode == plan.ModeFallback {
		class = ex.Reason
		m0 = mallocs()
		id = rec.beginReplayed("algebra.exec", execID, i)
		_, err = query.ExecContext(s.ctx, r.Q, s.cat, refDate)
		us := rec.end(id)
		if err != nil {
			tk.Release()
			return nil, "", err
		}
		s.samples.add("algebra.exec_ms."+ex.Reason, us/1e3)
		s.samples.add("algebra.allocs_per_fact", float64(mallocs()-m0)/float64(s.facts))
	} else {
		id = rec.beginReplayed("storage.kernel", execID, i)
		err = s.kernel(ex.Shape, q, p)
		kernelUs := rec.end(id)
		if err != nil {
			tk.Release()
			return nil, "", err
		}
		s.samples.add("plan.prepare_us."+ex.Shape, prepareUs)
		s.samples.add("plan.execute_us."+ex.Shape, executeUs)
		s.samples.add("plan.self_us."+ex.Shape, max(executeUs-kernelUs, 0))
		s.samples.add("plan.allocs."+ex.Shape, allocs)
	}
	// The result tail, re-applied to the finished result: HAVING, ORDER and
	// LIMIT are idempotent on their own output, so this repeats the work's
	// shape without changing the answer.
	id = rec.beginReplayed("plan.finish", execID, i)
	tail := *res
	if err = query.ApplyHaving(q, &tail); err == nil {
		err = query.OrderAndLimit(q, &tail)
	}
	s.samples.add("plan.finish_us", rec.end(id))
	if err != nil {
		tk.Release()
		return nil, "", err
	}

	if !r.NoCache {
		id = rec.begin("cache.put", root, i)
		if cp.Partials != nil {
			s.cache.PutUpgradeable(key, ver, &cached{res, cp.Partials}, resultSize(res))
		} else {
			s.cache.Put(key, ver, &cached{res: res}, resultSize(res))
		}
		us := rec.end(id)
		*stages += us
		s.samples.add("cache.put_us", us)
	}
	id = rec.begin("admission.release", root, i)
	tk.Release()
	us := rec.end(id)
	*stages += us
	s.samples.add("admission.admit_us", admitUs+us)
	return res, class, nil
}

// kernel calls, directly, the storage kernel the plan shape runs for
// this query's leg.
func (s *staged) kernel(shape string, q *query.Query, p *plan.Prepared) error {
	sel := p.Selection()
	switch shape {
	case plan.ShapeFacts:
		s.eng.SelectedFactIDs(sel)
	case plan.ShapeGlobal:
		if arg := p.ArgDim(); arg != "" {
			s.eng.ArgValues(arg)
		}
	case plan.ShapeKernelCount:
		dim, cat := p.GroupLeg()
		_, err := s.eng.CountDistinctByContext(s.ctx, dim, cat)
		return err
	case plan.ShapeKernelSum:
		dim, cat := p.GroupLeg()
		_, err := s.eng.SumByContext(s.ctx, dim, cat, p.ArgDim())
		return err
	case plan.ShapeGroupFold:
		dim, cat := p.GroupLeg()
		_, _, _, err := s.eng.AggregateBy(s.ctx, dim, cat, p.ArgDim(), sel)
		return err
	case plan.ShapeCross:
		for _, g := range q.GroupBy {
			if _, err := s.eng.ValueLists(s.ctx, g.Dim, g.Cat, sel); err != nil {
				return err
			}
		}
	}
	return nil
}

// append walks one write: the durable log append (which applies the fact
// to the MO and the engine) — the write path has no further stages a
// caller can reach from outside.
func (s *staged) append(i int, r request) (float64, error) {
	root := s.rec.begin("staged.request", -1, i)
	s.rec.spans[root].Note = r.Fact
	defer s.rec.end(root)
	id := s.rec.begin("segment.append", root, i)
	_, err := s.store.AppendSeq(toFactAppend(r))
	us := s.rec.end(id)
	s.samples.add("segment.append_us", us)
	return us, err
}
