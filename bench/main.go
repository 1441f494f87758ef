// Command bench is the repository's one outside-in benchmark: it builds
// cmd/mdserve, spawns it as a child process in one fixed full-stack
// configuration, drives it over loopback HTTP with seeded closed-loop
// traffic, checks the answers, and prints every metric by name with its
// unit. See README.md in this directory.
//
//	bash bench/run.sh --workload dash-hot --seed 1 --seconds 20 --trace 0   # one run, one JSON line
//	bash bench/run.sh --seed 1                                              # every workload, untraced then traced
//	bash bench/run.sh --aa                                                  # two sets of runs on the same code, compared
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	workloadName := flag.String("workload", "", "run one workload and print one JSON result line (default: every workload, untraced then traced)")
	seed := flag.Int64("seed", 1, "traffic seed: the same seed generates the same requests")
	seconds := flag.Int("seconds", runSeconds, "length of the measured window in seconds")
	trace := flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	aa := flag.Bool("aa", false, "run two sets of ten runs per workload on this code and compare them against the bounds")
	quick := flag.Bool("quick", false, "smoke test: tiny data, one spawn, short warm-up")
	spec := flag.Bool("spec", false, "print BENCHMARK.json as the driver's metric catalogue defines it, and exit")
	flag.Parse()

	if *spec {
		if err := printSpec(); err != nil {
			fatal(err)
		}
		return
	}

	e, err := newEnv(*quick)
	if err == nil {
		err = e.buildServer()
	}
	if err != nil {
		fatal(err)
	}
	// An interrupted run must not leave servers or data directories behind.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		cleanUpLeftovers()
		os.Exit(130)
	}()
	ctx := context.Background()
	length := time.Duration(*seconds) * time.Second
	switch {
	case *aa:
		err = e.runAA(ctx, *seed, length)
	case *workloadName != "":
		w := workloadByName(*workloadName)
		if w == nil {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		err = e.runOne(ctx, w, *seed, length, *trace != 0)
	default:
		err = e.runAll(ctx, *seed, length)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// runSeconds is the measured window the driver is asked for
// (BENCHMARK.json's run_seconds): with gate, set-ups, warm-up and answer
// checks a run takes up to 30 s, and 92 of them must fit 3420 s.
const runSeconds = 20

// findRoot walks up from the working directory to the checkout root, the
// directory holding BENCHMARK.json.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("no BENCHMARK.json in the working directory or any parent")
		}
		dir = parent
	}
}

func newEnv(quick bool) (*env, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	e := &env{
		root:     root,
		buildDir: filepath.Join(root, ".bench_build"),
		outDir:   filepath.Join(root, "bench", "out"),
		warmup:   2 * time.Second,
		quick:    quick,
	}
	if quick {
		e.warmup = 500 * time.Millisecond
	}
	e.serverBin = filepath.Join(e.buildDir, "mdserve")
	for _, d := range []string{e.buildDir, e.outDir} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, err
		}
	}
	return e, nil
}

// buildServer compiles cmd/mdserve of the checkout's module into the
// build directory. The go build cache makes the repeat a no-op.
func (e *env) buildServer() error {
	cmd := exec.Command("go", "build", "-o", e.serverBin, "mddm/cmd/mdserve")
	cmd.Dir = filepath.Join(e.root, "bench")
	cmd.Env = append(os.Environ(), "GOFLAGS=-buildvcs=false")
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("building mdserve: %v\n%s", err, out)
	}
	return nil
}

// resultLine is the last line of a single run's standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runOne is the driver-facing mode: one workload, one run, one JSON line.
func (e *env) runOne(ctx context.Context, w *workload, seed int64, length time.Duration, traced bool) error {
	line, notes, err := e.measure(ctx, w, seed, length, traced)
	if err != nil {
		return err
	}
	for _, n := range notes {
		fmt.Println("#", n)
	}
	return json.NewEncoder(os.Stdout).Encode(line)
}

// measure runs the workload once, untraced or traced, and shapes the
// result line: the end-to-end metrics of an untraced run, the per-layer
// metrics of a traced one.
func (e *env) measure(ctx context.Context, w *workload, seed int64, length time.Duration, traced bool) (resultLine, []string, error) {
	run := e.runE2E
	if traced {
		run = e.runTraced
	}
	res, err := run(ctx, w, seed, length)
	if err != nil {
		return resultLine{}, nil, err
	}
	line := resultLine{Correct: res.failed == 0, Attempted: res.attempted, Failed: res.failed, Metrics: map[string]metricValue{}}
	if traced {
		for _, lm := range layerMetrics {
			line.Metrics[lm.name] = metricValue{res.metrics[lm.name], lm.unit}
		}
	} else {
		for _, em := range e2eMetrics {
			line.Metrics[em.name] = metricValue{res.metrics[em.name], em.unit}
		}
	}
	return line, res.notes, nil
}

// runRecord is what result.json keeps of one run.
type runRecord struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Traced   bool       `json:"traced"`
	Result   resultLine `json:"result"`
	Notes    []string   `json:"notes,omitempty"`
}

// environment is the provenance block of result.json.
type environment struct {
	NProc       int      `json:"nproc"` // CPUs the driver may use: 1 when run.sh pinned it
	GoVersion   string   `json:"go_version"`
	Commit      string   `json:"commit"`
	Clients     int      `json:"clients"`
	WarmupS     float64  `json:"warmup_s"`
	WindowS     float64  `json:"window_s"`
	ServerFlags []string `json:"server_flags"`
	FlushPolicy string   `json:"flush_policy"`
}

func (e *env) environment(length time.Duration) environment {
	commit := "unknown"
	if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return environment{
		NProc: runtime.NumCPU(), GoVersion: runtime.Version(), Commit: commit,
		Clients: 1, WarmupS: e.warmup.Seconds(), WindowS: length.Seconds(),
		ServerFlags: serverFlags("127.0.0.1:<free port>", "<fresh temp dir>", 0)[6:],
		FlushPolicy: "WAL fsync before every append is acknowledged (-data-sync=true); fold into a segment every 1024 appends",
	}
}

// runAll is the human-facing mode: every workload untraced, then every
// workload traced, all metrics printed by name with unit, and the lot
// written to bench/out/result.json.
func (e *env) runAll(ctx context.Context, seed int64, length time.Duration) error {
	var records []runRecord
	failed := false
	for _, traced := range []bool{false, true} {
		for i := range workloads {
			w := &workloads[i]
			line, notes, err := e.measure(ctx, w, seed, length, traced)
			if err != nil {
				return fmt.Errorf("%s: %w", w.name, err)
			}
			records = append(records, runRecord{w.name, seed, traced, line, notes})
			printRun(w, traced, line, notes)
			failed = failed || !line.Correct
		}
	}
	out := struct {
		Environment environment `json:"environment"`
		Runs        []runRecord `json:"runs"`
	}{e.environment(length), records}
	if err := writeJSON(filepath.Join(e.outDir, "result.json"), out); err != nil {
		return err
	}
	if failed {
		return fmt.Errorf("some responses were wrong or failed; see the MISMATCH/DURABILITY notes above")
	}
	return nil
}

func printRun(w *workload, traced bool, line resultLine, notes []string) {
	kind := "end-to-end"
	if traced {
		kind = "per-layer (traced run)"
	}
	fmt.Printf("\n== %s · %s · attempted %d, failed %d ==\n", w.name, kind, line.Attempted, line.Failed)
	names := make([]string, 0, len(line.Metrics))
	for n := range line.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-40s %14.4f %s\n", n, line.Metrics[n].Value, line.Metrics[n].Unit)
	}
	for _, n := range notes {
		fmt.Println("  #", n)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
