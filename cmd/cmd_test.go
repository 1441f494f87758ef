// Package cmd_test builds the command-line tools and exercises their key
// flags end to end — the integration layer the unit tests cannot cover.
package cmd_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var binDir string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "mddm-cmd")
	if err != nil {
		panic(err)
	}
	binDir = dir
	for _, tool := range []string{"mdrepro", "mdquery", "mdbench", "mdserve", "mdload"} {
		cmd := exec.Command("go", "build", "-o", filepath.Join(binDir, tool), "mddm/cmd/"+tool)
		cmd.Dir = ".."
		if out, err := cmd.CombinedOutput(); err != nil {
			panic(tool + ": " + err.Error() + "\n" + string(out))
		}
	}
	code := m.Run()
	os.RemoveAll(binDir)
	os.Exit(code)
}

func run(t *testing.T, tool string, args ...string) string {
	t.Helper()
	out, err := exec.Command(filepath.Join(binDir, tool), args...).CombinedOutput()
	if err != nil {
		t.Fatalf("%s %v: %v\n%s", tool, args, err, out)
	}
	return string(out)
}

func TestMdreproTables(t *testing.T) {
	out := run(t, "mdrepro", "-table", "1")
	for _, want := range []string{"Patient Table", "Jane Doe", "Grouping Table"} {
		if !strings.Contains(out, want) {
			t.Errorf("table 1 missing %q", want)
		}
	}
	out2 := run(t, "mdrepro", "-table", "2")
	if !strings.Contains(out2, "This model") || strings.Count(out2, "✓") != 9 {
		t.Errorf("table 2 output wrong:\n%s", out2)
	}
}

func TestMdreproFigures(t *testing.T) {
	f3 := run(t, "mdrepro", "-figure", "3")
	for _, want := range []string{"Set-of-Patient", "({1,2}, 11)", "({2}, 12)", "R[Count]"} {
		if !strings.Contains(f3, want) {
			t.Errorf("figure 3 missing %q", want)
		}
	}
	dot := run(t, "mdrepro", "-figure", "2", "-dot")
	if !strings.Contains(dot, "digraph schema") {
		t.Error("figure 2 DOT missing")
	}
	ex := run(t, "mdrepro", "-examples")
	if !strings.Contains(ex, "Example 10") {
		t.Error("examples walk missing")
	}
}

func TestMdreproCheck(t *testing.T) {
	out := run(t, "mdrepro", "-check")
	if !strings.Contains(out, "all checks passed") {
		t.Errorf("check output:\n%s", out)
	}
}

func TestMdqueryEndToEnd(t *testing.T) {
	out := run(t, "mdquery", "-q",
		`SELECT SETCOUNT(*) AS Count FROM patients GROUP BY Diagnosis."Diagnosis Group"`)
	if !strings.Contains(out, "11") || !strings.Contains(out, "not summarizable") {
		t.Errorf("query output:\n%s", out)
	}
	// CSV output.
	csvOut := run(t, "mdquery", "-csv", "-q",
		`SELECT SETCOUNT(*) AS Count FROM patients GROUP BY Diagnosis."Diagnosis Group"`)
	if !strings.HasPrefix(csvOut, "Diagnosis,Count") {
		t.Errorf("csv output:\n%s", csvOut)
	}
	// Save / load round trip.
	path := filepath.Join(binDir, "saved.json")
	run(t, "mdquery", "-save", path)
	loaded := run(t, "mdquery", "-load", path, "-q", `SELECT FACTS FROM patients`)
	if !strings.Contains(loaded, "1") || !strings.Contains(loaded, "2") {
		t.Errorf("load output:\n%s", loaded)
	}
	// Synthetic data.
	gen := run(t, "mdquery", "-gen", "50", "-q", `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Residence."Region"`)
	if !strings.Contains(gen, "R0") {
		t.Errorf("gen output:\n%s", gen)
	}
	// DESCRIBE.
	desc := run(t, "mdquery", "-q", `DESCRIBE patients Diagnosis`)
	if !strings.Contains(desc, "Low-level Diagnosis") {
		t.Errorf("describe output:\n%s", desc)
	}
}

func TestMdqueryCSVLoading(t *testing.T) {
	dimCSV := filepath.Join(binDir, "diag.csv")
	factCSV := filepath.Join(binDir, "facts.csv")
	if err := os.WriteFile(dimCSV, []byte("low,family\nL1,F1\nL2,F1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(factCSV, []byte("id,Diagnosis\np1,L1\np2,L2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out := run(t, "mdquery",
		"-dim", "Diagnosis="+dimCSV,
		"-facts", factCSV, "-id", "id",
		"-q", `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."family"`)
	if !strings.Contains(out, "F1") || !strings.Contains(out, "2") {
		t.Errorf("csv-load output:\n%s", out)
	}
}

func TestMdbenchSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("bench sweep is slow")
	}
	out := run(t, "mdbench", "-exp", "B2")
	if !strings.Contains(out, "bitmap/op") {
		t.Errorf("bench output:\n%s", out)
	}
}

func TestMdserveSelfcheck(t *testing.T) {
	out := run(t, "mdserve", "-selfcheck")
	if !strings.Contains(out, "selfcheck ok") {
		t.Fatalf("selfcheck output wrong:\n%s", out)
	}
}

// TestMdservePersistenceAcrossRestart runs mdserve -selfcheck twice on
// the same -data directory in separate processes: the first run's
// durable append must be recovered — from folded segments, not a
// warm process — by the second.
func TestMdservePersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	first := run(t, "mdserve", "-selfcheck", "-data", dir)
	if !strings.Contains(first, "selfcheck ok: durable append") {
		t.Fatalf("first run did not append:\n%s", first)
	}
	second := run(t, "mdserve", "-selfcheck", "-data", dir)
	if !strings.Contains(second, "recovered 1 appended facts") {
		t.Fatalf("second run did not recover the first run's append:\n%s", second)
	}
	if !strings.Contains(second, "selfcheck ok: durable append") {
		t.Fatalf("second run did not append:\n%s", second)
	}
	third := run(t, "mdserve", "-selfcheck", "-data", dir, "-columns", "4")
	if !strings.Contains(third, "recovered 2 appended facts") {
		t.Fatalf("third run did not recover both appends:\n%s", third)
	}
}

func TestMdserveSelfcheckAdmission(t *testing.T) {
	out := run(t, "mdserve", "-selfcheck", "-metrics",
		"-admission", "4", "-tenant-rps", "1000",
		"-result-cache", "1048576", "-stale-on-shed", "30s")
	if !strings.Contains(out, "selfcheck ok: metrics surface up") {
		t.Fatalf("selfcheck output wrong:\n%s", out)
	}
}

// TestMdserveSelfcheckBatch walks the shared-scan batching surface end
// to end: the selfcheck must observe all three X-Mddm-Batch outcomes
// (solo, leader, member) through real HTTP.
func TestMdserveSelfcheckBatch(t *testing.T) {
	out := run(t, "mdserve", "-selfcheck", "-batch",
		"-result-cache", "1048576")
	if !strings.Contains(out, "selfcheck ok: batch outcomes solo/leader/member") {
		t.Fatalf("selfcheck output wrong:\n%s", out)
	}
}

// TestMdserveFlagDependencies: a flag whose feature is inert without
// another must refuse to start, naming what it needs, and a removed switch
// refuses to be turned off — there is nothing to silently fall back to.
func TestMdserveFlagDependencies(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-planner=false"}, "the algebra serving path was removed"},
		{[]string{"-delta=false"}, "a result cache is always delta-maintained"},
		{[]string{"-stale-on-shed", "30s", "-admission", "4"}, "-stale-on-shed needs a positive -result-cache"},
		{[]string{"-parallelism", "2"}, "partition-parallel execution was removed"},
	} {
		out, err := exec.Command(filepath.Join(binDir, "mdserve"), append(tc.args, "-selfcheck")...).CombinedOutput()
		if err == nil {
			t.Fatalf("mdserve %v started:\n%s", tc.args, out)
		}
		if !strings.Contains(string(out), tc.want) {
			t.Fatalf("mdserve %v: rejection message wrong, want %q:\n%s", tc.args, tc.want, out)
		}
	}
}

// TestMdloadEndToEnd starts a batching mdserve for real, drives the
// committed B19 mix (request-bounded) at it with mdload, and checks the
// JSON report: clean requests, batch outcomes tallied, sane latency.
func TestMdloadEndToEnd(t *testing.T) {
	srv := exec.Command(filepath.Join(binDir, "mdserve"),
		"-addr", "127.0.0.1:0", "-batch", "-result-cache", "1048576")
	stderr, err := srv.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		srv.Process.Signal(os.Interrupt)
		srv.Wait()
	}()
	// mdserve prints "listening on <addr>" once the socket is bound.
	var addr string
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		if _, err := fmt.Sscanf(sc.Text(), "mdserve: listening on %s", &addr); err == nil {
			break
		}
	}
	if addr == "" {
		t.Fatalf("mdserve never reported its address (scan err %v)", sc.Err())
	}
	go io.Copy(io.Discard, stderr) // keep the pipe drained

	mix := filepath.Join("..", "internal", "traffic", "testdata", "b19_similar.json")
	reportPath := filepath.Join(binDir, "mdload_report.json")
	// The committed mix is wall-clock-bounded (2s); bound this run by
	// count instead so the report is exact: stretch the duration, cap the
	// requests.
	run(t, "mdload",
		"-url", "http://"+addr, "-mix", mix,
		"-duration", "60s", "-requests", "64", "-concurrency", "8",
		"-out", reportPath)

	data, err := os.ReadFile(reportPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Requests int64 `json:"requests"`
		Errors   int64 `json:"errors"`
		Classes  map[string]struct {
			Latency struct {
				P50  float64 `json:"p50"`
				P999 float64 `json:"p999"`
			} `json:"latency_ms"`
			Batch map[string]int64 `json:"batch"`
		} `json:"classes"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report not JSON: %v\n%s", err, data)
	}
	if rep.Requests != 64 || rep.Errors != 0 {
		t.Fatalf("report: %d requests, %d errors; want 64 clean\n%s", rep.Requests, rep.Errors, data)
	}
	cs, ok := rep.Classes["similar-groupby"]
	if !ok {
		t.Fatalf("report classes missing similar-groupby:\n%s", data)
	}
	var batched int64
	for _, n := range cs.Batch {
		batched += n
	}
	if batched != 64 || cs.Batch["leader"] == 0 {
		t.Fatalf("batch tallies %v; want 64 outcomes with leaders", cs.Batch)
	}
	if !(cs.Latency.P50 > 0 && cs.Latency.P50 <= cs.Latency.P999) {
		t.Fatalf("latency percentiles out of order: %+v", cs.Latency)
	}
}

// TestMdloadRejectsBadMix: a malformed mix must fail fast, before any
// traffic is sent.
func TestMdloadRejectsBadMix(t *testing.T) {
	bad := filepath.Join(binDir, "bad_mix.json")
	if err := os.WriteFile(bad, []byte(`{"mode":"sideways"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command(filepath.Join(binDir, "mdload"), "-mix", bad).CombinedOutput()
	if err == nil {
		t.Fatalf("mdload ran a malformed mix:\n%s", out)
	}
	if !strings.Contains(string(out), "mode") {
		t.Fatalf("rejection message wrong:\n%s", out)
	}
}
