// Command mdserve serves OLAP queries over HTTP with the robustness the
// research pipeline lacks: per-query deadlines and resource limits,
// panic isolation, request timeouts, adaptive admission control with
// graceful load shedding, and graceful shutdown (SIGINT/SIGTERM stops
// admitting, drains in-flight queries, exits 0).
//
//	mdserve -addr :8344                 # serve the paper's case study
//	mdserve -gen 10000 -timeout 2s      # synthetic data, 2s per query
//	mdserve -admission 8 -admit-target 50ms -tenant-rps 100
//	                                    # shed past the knee: 429 + Retry-After
//	mdserve -data /var/lib/mddm         # persistent appends: WAL + segments,
//	                                    # crash-recovered at startup
//	mdserve -batch                      # fuse concurrent similar queries
//	                                    # into shared scans (X-Mddm-Batch)
//	curl 'localhost:8344/query?q=SELECT+SETCOUNT(*)+FROM+patients'
//
// The catalog contains the patient MO under the name "patients"; NOW
// resolves to -ref. With -data, facts POSTed to /append are durably
// logged before they become visible and survive restarts (including
// kill -9): startup replays the directory's segments and log tail onto
// the deterministic base and serves bit-identical results.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mddm/internal/admission"
	"mddm/internal/batch"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/segment"
	"mddm/internal/serve"
	"mddm/internal/temporal"
)

func main() {
	addr := flag.String("addr", ":8344", "listen address")
	refS := flag.String("ref", "01/01/1999", "reference date resolving NOW")
	gen := flag.Int("gen", 0, "use synthetic data with N patients instead of Table 1")
	seed := flag.Int64("seed", 1, "synthetic data seed")
	timeout := flag.Duration("timeout", 5*time.Second, "per-query deadline (0 disables)")
	maxRows := flag.Int("max-rows", 10000, "per-query result-row limit (0 disables)")
	maxFacts := flag.Int64("max-facts", 10_000_000, "per-query scanned-facts limit (0 disables)")
	// Deprecated: ignored — queries run sequentially; kept only because
	// bench/ sets it (ROADMAP item 1).
	parallelism := flag.Int("parallelism", 1, "deprecated: queries run on one goroutine; only 1 is accepted")
	columns := flag.Int("columns", 0, "warm characterization columns for categories with at least N values (0 = bitmap kernels only)")
	resultCache := flag.Int64("result-cache", 0, "result-cache size in bytes (0 disables; ?nocache=1 bypasses per query)")
	admit := flag.Int("admission", 0, "admission-control concurrency ceiling (0 disables admission control)")
	admitFloor := flag.Int("admit-floor", 1, "admission-control concurrency floor the adaptive limit never drops below")
	admitTarget := flag.Duration("admit-target", 100*time.Millisecond, "per-query latency target steering the adaptive concurrency limit")
	admitQueue := flag.Int("admit-queue", 0, "admission wait-queue capacity (0 = 2× the ceiling)")
	tenantRPS := flag.Float64("tenant-rps", 0, "per-tenant admissions per second (0 disables tenant quotas; tenant from X-Mddm-Tenant or ?tenant=)")
	tenantBurst := flag.Float64("tenant-burst", 0, "per-tenant quota burst (0 = 2× -tenant-rps)")
	staleOnShed := flag.Duration("stale-on-shed", 0, "serve a result-cache entry this stale (with a warning) instead of shedding a query under overload (0 disables; needs -result-cache)")
	// Deprecated: ignored — every query is planned and every result cache
	// delta-maintained; kept only because bench/ sets them (ROADMAP item 1).
	planner := flag.Bool("planner", true, "deprecated: every query runs through the columnar planner; only true is accepted")
	delta := flag.Bool("delta", true, "deprecated: the result cache always repairs version-stale entries by folding only appended facts; only true is accepted")
	batching := flag.Bool("batch", false, "shared-scan batching: fuse concurrent similar queries into one scan (responses carry X-Mddm-Batch: solo|leader|member)")
	batchWindow := flag.Duration("batch-window", 2*time.Millisecond, "how long a batch leader waits gathering similar queries before scanning")
	batchMax := flag.Int("batch-max", 32, "batch size that launches the fused scan before the gather window expires")
	shutdownGrace := flag.Duration("shutdown-grace", 5*time.Second, "drain window on SIGINT/SIGTERM")
	metrics := flag.Bool("metrics", false, "expose GET /metrics (Prometheus text format) and GET /debug/queries")
	selfcheck := flag.Bool("selfcheck", false, "start on a loopback port, run one query through HTTP, and exit")
	data := flag.String("data", "", "persistent data directory: recover appended facts at startup and durably log POST /append (empty = in-memory only)")
	dataSync := flag.Bool("data-sync", true, "fsync the write-ahead log on every append (off: durability of the newest appends rides on the OS page cache)")
	dataFold := flag.Int("data-fold", 1024, "fold the append log into an immutable segment every N appends (0 = only at shutdown)")
	dataMMap := flag.Bool("data-mmap", false, "serve the persisted column checkpoint via a read-only memory mapping instead of copying it onto the heap")
	flag.Parse()

	if *parallelism != 1 {
		fatal(fmt.Errorf("-parallelism %d: partition-parallel execution was removed, every query runs on one goroutine; only -parallelism 1 is accepted", *parallelism))
	}
	if !*planner {
		fatal(fmt.Errorf("-planner=false: the algebra serving path was removed, every query is planned; only -planner=true is accepted"))
	}
	if !*delta {
		fatal(fmt.Errorf("-delta=false: the switch was removed, a result cache is always delta-maintained; only -delta=true is accepted"))
	}
	if *staleOnShed > 0 && *resultCache <= 0 {
		fatal(fmt.Errorf("-stale-on-shed needs a positive -result-cache: a shed query degrades to a result-cache entry"))
	}
	ref, err := temporal.ParseDate(*refS)
	if err != nil {
		fatal(err)
	}
	mo, err := buildMO(*gen, *seed)
	if err != nil {
		fatal(err)
	}
	cat := serve.NewCatalog()
	srv := serve.NewServer(cat, serve.Limits{
		Timeout:          *timeout,
		MaxResultRows:    *maxRows,
		MaxFactsScanned:  *maxFacts,
		ColumnMinValues:  *columns,
		ResultCacheBytes: *resultCache,
		StaleOnShed:      *staleOnShed,
		Batching: batch.Config{
			Enabled:      *batching,
			GatherWindow: *batchWindow,
			MaxBatch:     *batchMax,
		},
		Admission: admission.Config{
			MaxConcurrency: *admit,
			MinConcurrency: *admitFloor,
			TargetLatency:  *admitTarget,
			MaxQueue:       *admitQueue,
			TenantRate:     *tenantRPS,
			TenantBurst:    *tenantBurst,
		},
	}, ref)

	if *data != "" {
		st, err := segment.Open(*data, mo, segment.Options{
			Sync: *dataSync, MMap: *dataMMap, FoldEvery: *dataFold,
		})
		if err != nil {
			fatal(err)
		}
		baseFacts := mo.Facts().Len()
		eng, err := st.Recover(context.Background(), dimension.CurrentContext(ref))
		if err != nil {
			fatal(err)
		}
		if *columns > 0 {
			// Warm after install: categories the checkpoint carried are
			// free, the rest build once here instead of on the first query.
			if err := eng.WarmColumns(context.Background(), *columns); err != nil {
				fatal(err)
			}
		}
		if err := srv.AttachStore("patients", st); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "mdserve: data dir %s: recovered %d appended facts (%d total)\n",
			*data, eng.NumFacts()-baseFacts, eng.NumFacts())
	} else if err := cat.Register("patients", mo); err != nil {
		fatal(err)
	}

	handler := srv.Handler()
	if *metrics {
		// The observability surface is opt-in: the default handler set is
		// byte-for-byte what it was before the flag existed.
		mux := http.NewServeMux()
		mux.Handle("/", handler)
		mux.Handle("/metrics", srv.MetricsHandler())
		mux.Handle("/debug/queries", srv.ActiveQueriesHandler())
		handler = mux
	}
	hs := &http.Server{
		Addr:              *addr,
		Handler:           handler,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}

	if *selfcheck {
		var appendBody string
		if *data != "" {
			lows := mo.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
			if len(lows) == 0 {
				fatal(fmt.Errorf("selfcheck: no low-level diagnoses to append"))
			}
			appendBody = fmt.Sprintf(`{"mo":"patients","fact":"selfcheck-%d","pairs":[{"dim":%q,"value":%q}]}`,
				time.Now().UnixNano(), casestudy.DimDiagnosis, lows[0])
		}
		err := runSelfcheck(hs, *metrics, *resultCache > 0, *admit > 0, *batching, appendBody)
		// Flush before exiting so the appended fact is folded durable —
		// the second -selfcheck run on the same -data dir replays it.
		if cerr := srv.CloseStores(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "mdserve: listening on %s\n", ln.Addr())
	if err := serveUntilShutdown(ctx, hs, ln, srv, *shutdownGrace); err != nil {
		fatal(err)
	}
}

// serveUntilShutdown serves on ln until ctx is done (main arrives here
// with a SIGINT/SIGTERM-bound context), then shuts down gracefully:
// admission stops first (new queries shed with 503 while the server is
// still answerable), in-flight requests drain through http.Server's
// Shutdown within grace, and a clean drain returns nil so the process
// exits 0. A serve error before any shutdown was requested is returned
// as the failure it is.
func serveUntilShutdown(ctx context.Context, hs *http.Server, ln net.Listener, srv *serve.Server, grace time.Duration) error {
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintln(os.Stderr, "mdserve: shutting down")
	srv.Drain()
	shctx, cancel := context.WithTimeout(context.Background(), grace)
	defer cancel()
	if err := hs.Shutdown(shctx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errc; err != nil && err != http.ErrServerClosed {
		return err
	}
	// With the listener closed and in-flight requests drained, no more
	// appends can arrive: fold the log tail and close the stores so the
	// next start recovers from segments instead of replaying the WAL.
	if err := srv.CloseStores(); err != nil {
		return fmt.Errorf("closing data stores: %w", err)
	}
	fmt.Fprintln(os.Stderr, "mdserve: drained")
	return nil
}

// buildMO constructs the served MO: the paper's Table 1 case study, or
// synthetic data when n > 0.
func buildMO(n int, seed int64) (*core.MO, error) {
	if n > 0 {
		cfg := casestudy.DefaultGen()
		cfg.Patients = n
		cfg.Seed = seed
		return casestudy.Generate(cfg)
	}
	return casestudy.BuildPatientMO(casestudy.DefaultOptions())
}

// runSelfcheck binds a loopback listener, serves on it, and round-trips
// one query plus the health probe through real HTTP — the smoke test the
// command-line integration tests call. With -metrics it also scrapes
// /metrics and checks the exposition contains the serving-layer series;
// with -result-cache it repeats the query and checks the X-Mddm-Cache
// header walks miss → hit → bypass; with -admission it checks the
// admission gauges are exposed and that every response carries
// X-Mddm-Request-Id; with -data (appendBody non-empty) it POSTs one
// durable append, checks it is immediately visible to FACTS, and checks
// the duplicate is rejected without being logged; with -batch it walks
// the X-Mddm-Batch header through all three outcomes — solo (a
// non-batchable FACTS query), leader (a lone batchable aggregate), and
// member (concurrent similar aggregates fusing into one scan).
func runSelfcheck(hs *http.Server, metrics, resultCache, admissionOn, batchOn bool, appendBody string) error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	go hs.Serve(ln)
	defer hs.Close()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/healthz")
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selfcheck: /healthz returned %s", resp.Status)
	}

	q := `SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`
	resp, err = http.Get(base + "/query?q=" + url.QueryEscape(q))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("selfcheck: /query returned %s", resp.Status)
	}
	if resp.Header.Get("X-Mddm-Request-Id") == "" {
		return fmt.Errorf("selfcheck: /query response has no X-Mddm-Request-Id")
	}
	var out struct {
		Columns []string   `json:"columns"`
		Rows    [][]string `json:"rows"`
	}
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(&out); err != nil {
		return err
	}
	if len(out.Rows) == 0 {
		return fmt.Errorf("selfcheck: query returned no rows")
	}
	if resultCache {
		if got := resp.Header.Get("X-Mddm-Cache"); got != "miss" {
			return fmt.Errorf("selfcheck: first query X-Mddm-Cache = %q, want \"miss\"", got)
		}
		for _, step := range []struct{ extra, want string }{
			{"", "hit"},
			{"&nocache=1", "bypass"},
		} {
			cresp, err := http.Get(base + "/query?q=" + url.QueryEscape(q) + step.extra)
			if err != nil {
				return err
			}
			cresp.Body.Close()
			if cresp.StatusCode != http.StatusOK {
				return fmt.Errorf("selfcheck: repeat query returned %s", cresp.Status)
			}
			if got := cresp.Header.Get("X-Mddm-Cache"); got != step.want {
				return fmt.Errorf("selfcheck: repeat query X-Mddm-Cache = %q, want %q", got, step.want)
			}
		}
		fmt.Println("selfcheck ok: result cache miss/hit/bypass")
	}
	if metrics {
		mresp, err := http.Get(base + "/metrics")
		if err != nil {
			return err
		}
		body, err := io.ReadAll(io.LimitReader(mresp.Body, 1<<20))
		mresp.Body.Close()
		if err != nil {
			return err
		}
		if mresp.StatusCode != http.StatusOK {
			return fmt.Errorf("selfcheck: /metrics returned %s", mresp.Status)
		}
		wants := []string{
			"mddm_serve_queries_total",
			"mddm_serve_engine_cache_total",
			"mddm_operator_seconds",
		}
		if admissionOn {
			wants = append(wants,
				"mddm_admission_concurrency_limit",
				"mddm_admission_admitted_total",
				"mddm_admission_queue_depth",
			)
		}
		for _, want := range wants {
			if !strings.Contains(string(body), want) {
				return fmt.Errorf("selfcheck: /metrics missing %s", want)
			}
		}
		dresp, err := http.Get(base + "/debug/queries")
		if err != nil {
			return err
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusOK {
			return fmt.Errorf("selfcheck: /debug/queries returned %s", dresp.Status)
		}
		fmt.Println("selfcheck ok: metrics surface up")
	}
	if batchOn {
		if err := selfcheckBatch(base, q); err != nil {
			return err
		}
		fmt.Println("selfcheck ok: batch outcomes solo/leader/member")
	}
	if appendBody != "" {
		aresp, err := http.Post(base+"/append", "application/json", strings.NewReader(appendBody))
		if err != nil {
			return err
		}
		var ack struct {
			Fact string `json:"fact"`
			Seq  uint64 `json:"seq"`
		}
		aerr := json.NewDecoder(io.LimitReader(aresp.Body, 1<<20)).Decode(&ack)
		aresp.Body.Close()
		if aresp.StatusCode != http.StatusOK {
			return fmt.Errorf("selfcheck: /append returned %s", aresp.Status)
		}
		if aerr != nil || ack.Fact == "" {
			return fmt.Errorf("selfcheck: /append ack malformed: %v", aerr)
		}
		// The duplicate must be rejected by validation — before logging.
		dresp, err := http.Post(base+"/append", "application/json", strings.NewReader(appendBody))
		if err != nil {
			return err
		}
		dresp.Body.Close()
		if dresp.StatusCode != http.StatusBadRequest {
			return fmt.Errorf("selfcheck: duplicate /append returned %s, want 400", dresp.Status)
		}
		// The append is visible to queries on the same connection that
		// acknowledged it.
		fq := `SELECT FACTS FROM patients`
		fresp, err := http.Get(base + "/query?q=" + url.QueryEscape(fq) + "&nocache=1")
		if err != nil {
			return err
		}
		fbody, ferr := io.ReadAll(io.LimitReader(fresp.Body, 8<<20))
		fresp.Body.Close()
		if ferr != nil || fresp.StatusCode != http.StatusOK {
			return fmt.Errorf("selfcheck: FACTS after append returned %s (%v)", fresp.Status, ferr)
		}
		if !strings.Contains(string(fbody), ack.Fact) {
			return fmt.Errorf("selfcheck: appended fact %s not visible to FACTS", ack.Fact)
		}
		fmt.Printf("selfcheck ok: durable append %s at seq %d\n", ack.Fact, ack.Seq)
	}
	fmt.Printf("selfcheck ok: %d rows, columns %v\n", len(out.Rows), out.Columns)
	return nil
}

// selfcheckBatch walks X-Mddm-Batch through solo → leader → member.
// nocache=1 keeps a configured result cache from answering before the
// batching path runs.
func selfcheckBatch(base, groupQ string) error {
	get := func(q string) (string, error) {
		resp, err := http.Get(base + "/query?nocache=1&q=" + url.QueryEscape(q))
		if err != nil {
			return "", err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return "", fmt.Errorf("selfcheck: batch query returned %s", resp.Status)
		}
		return resp.Header.Get("X-Mddm-Batch"), nil
	}

	// A FACTS query has no kernel leg to share: it must bypass as solo.
	got, err := get(`SELECT FACTS FROM patients`)
	if err != nil {
		return err
	}
	if got != "solo" {
		return fmt.Errorf("selfcheck: FACTS X-Mddm-Batch = %q, want \"solo\"", got)
	}

	// A lone batchable aggregate opens (and is) its own batch: leader.
	got, err = get(groupQ)
	if err != nil {
		return err
	}
	if got != "leader" {
		return fmt.Errorf("selfcheck: lone aggregate X-Mddm-Batch = %q, want \"leader\"", got)
	}

	// Concurrent similar aggregates must fuse: at least one response joins
	// an open batch as a member. The gather window is milliseconds, so
	// scheduling jitter can miss the fusion in one round — retry a few.
	similar := []string{
		groupQ,
		`SELECT COUNT(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SETCOUNT(*) FROM patients WHERE Age >= 40 GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT AVG(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
	}
	for round := 0; round < 20; round++ {
		outcomes := make(chan string, 2*len(similar))
		errc := make(chan error, 2*len(similar))
		for i := 0; i < cap(outcomes); i++ {
			go func(q string) {
				o, err := get(q)
				if err != nil {
					errc <- err
					return
				}
				outcomes <- o
			}(similar[i%len(similar)])
		}
		for i := 0; i < cap(outcomes); i++ {
			select {
			case err := <-errc:
				return err
			case o := <-outcomes:
				if o == "member" {
					return nil
				}
			}
		}
	}
	return fmt.Errorf("selfcheck: no member outcome in 20 rounds of concurrent similar queries")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "mdserve:", err)
	os.Exit(1)
}
