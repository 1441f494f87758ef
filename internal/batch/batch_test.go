package batch

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/qos"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

func testEngine(t *testing.T, patients int) *storage.Engine {
	t.Helper()
	cfg := casestudy.DefaultGen()
	cfg.Patients = patients
	m := casestudy.MustGenerate(cfg)
	return storage.NewEngine(m, dimension.CurrentContext(temporal.MaxChronon))
}

// fakeSignals is a settable load view for the adaptive policy.
type fakeSignals struct {
	mu              sync.Mutex
	inflight, limit int
}

func (f *fakeSignals) Load() (int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.inflight, f.limit
}

func (f *fakeSignals) set(inflight, limit int) {
	f.mu.Lock()
	f.inflight, f.limit = inflight, limit
	f.mu.Unlock()
}

// TestDisabled pins the zero-value contract: a disabled (or nil-config)
// scheduler scans nothing — every Do answers solo with ErrDisabled.
func TestDisabled(t *testing.T) {
	s := New(Config{}, nil)
	if s.Enabled() {
		t.Fatal("zero config must be disabled")
	}
	r := s.Do(Request{Ctx: context.Background()})
	if r.Outcome != OutcomeSolo || !errors.Is(r.Err, ErrDisabled) {
		t.Fatalf("disabled Do = %+v, want solo + ErrDisabled", r)
	}
	var nilS *Scheduler
	if nilS.Enabled() {
		t.Fatal("nil scheduler must report disabled")
	}
	nilS.Bypass("facts") // must not panic
}

// TestLeaderAndMembers runs a burst of similar queries through one
// scheduler and asserts exactly one leader per batch, correct member
// outputs (differential vs solo AggregateBy), and the stats/savings
// arithmetic. The burst mixes count-only, accumulator, and list members
// so one batch exercises all three scan output modes.
func TestLeaderAndMembers(t *testing.T) {
	e := testEngine(t, 40)
	s := New(Config{Enabled: true, GatherWindow: 50 * time.Millisecond, MaxBatch: 64}, nil)
	const n = 8
	memberShape := func(i int) (argDim string, listArgs bool) {
		switch i % 4 {
		case 1:
			return casestudy.DimAge, false // accumulator mode
		case 3:
			return casestudy.DimAge, true // list mode
		}
		return "", false // count-only
	}
	results := make([]Result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			argDim, listArgs := memberShape(i)
			results[i] = s.Do(Request{
				Ctx:      context.Background(),
				Engine:   e,
				Dim:      casestudy.DimDiagnosis,
				Cat:      casestudy.CatLowLevel,
				ArgDim:   argDim,
				ListArgs: listArgs,
			})
		}(i)
	}
	wg.Wait()
	leaders := 0
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("member %d: %v", i, r.Err)
		}
		switch r.Outcome {
		case OutcomeLeader:
			leaders++
		case OutcomeMember:
		default:
			t.Fatalf("member %d: outcome %q", i, r.Outcome)
		}
	}
	if leaders < 1 {
		t.Fatalf("no leader among %d members", n)
	}
	st := s.Stats()
	if st.Members != n {
		t.Fatalf("stats.Members = %d, want %d", st.Members, n)
	}
	if st.Batches != int64(leaders) {
		t.Fatalf("stats.Batches = %d, leaders = %d", st.Batches, leaders)
	}
	if st.ScansSaved != st.Members-st.Batches {
		t.Fatalf("stats.ScansSaved = %d, want members-batches = %d", st.ScansSaved, st.Members-st.Batches)
	}
	// Differential: every member's slice equals its solo fold — argument
	// lists element-for-element for list members, Accs replayed over
	// the solo lists (bitwise) for accumulator members.
	for i, r := range results {
		argDim, listArgs := memberShape(i)
		wantV, wantC, wantA, err := e.AggregateBy(context.Background(), casestudy.DimDiagnosis, casestudy.CatLowLevel, argDim, nil)
		if err != nil {
			t.Fatal(err)
		}
		if argDim != "" {
			if listArgs != (r.Args != nil) || listArgs == (r.Folds != nil) {
				t.Fatalf("member %d (listArgs=%v): args non-nil=%v, folds non-nil=%v",
					i, listArgs, r.Args != nil, r.Folds != nil)
			}
		}
		var gotV []string
		var gotC []int
		var gotA [][]float64
		wi := 0
		for j, v := range r.Values {
			if r.Counts[j] == 0 {
				continue
			}
			gotV = append(gotV, v)
			gotC = append(gotC, int(r.Counts[j]))
			switch {
			case r.Args != nil:
				gotA = append(gotA, r.Args[j])
			case r.Folds != nil:
				var want agg.Acc
				for _, x := range wantA[wi] {
					want.Add(x)
				}
				if r.Folds[j] != want {
					t.Fatalf("member %d value %s: fold %+v, solo replay %+v", i, v, r.Folds[j], want)
				}
				gotA = append(gotA, nil)
				wantA[wi] = nil
			default:
				gotA = append(gotA, nil)
			}
			wi++
		}
		if fmt.Sprint(gotV) != fmt.Sprint(wantV) || fmt.Sprint(gotC) != fmt.Sprint(wantC) || fmt.Sprint(gotA) != fmt.Sprint(wantA) {
			t.Fatalf("member %d diverged from solo", i)
		}
	}
}

// TestMaxBatchLaunchesEarly fills the size cap and asserts the batch
// launches without waiting out an hour-long window.
func TestMaxBatchLaunchesEarly(t *testing.T) {
	e := testEngine(t, 20)
	s := New(Config{Enabled: true, GatherWindow: time.Hour, MaxBatch: 4}, nil)
	done := make(chan Result, 4)
	for i := 0; i < 4; i++ {
		go func() {
			done <- s.Do(Request{
				Ctx:    context.Background(),
				Engine: e,
				Dim:    casestudy.DimDiagnosis,
				Cat:    casestudy.CatLowLevel,
			})
		}()
	}
	deadline := time.After(10 * time.Second)
	for i := 0; i < 4; i++ {
		select {
		case r := <-done:
			if r.Err != nil {
				t.Fatal(r.Err)
			}
		case <-deadline:
			t.Fatal("size-capped batch did not launch early")
		}
	}
	if st := s.Stats(); st.Batches != 1 || st.Members != 4 || st.ScansSaved != 3 {
		t.Fatalf("stats = %+v, want 1 batch of 4", st)
	}
}

// TestSeparateLegsSeparateBatches asserts queries over different
// (dim, cat) legs — and different engines — never share a scan.
func TestSeparateLegsSeparateBatches(t *testing.T) {
	e1, e2 := testEngine(t, 20), testEngine(t, 20)
	s := New(Config{Enabled: true, GatherWindow: 50 * time.Millisecond, MaxBatch: 64}, nil)
	legs := []Request{
		{Ctx: context.Background(), Engine: e1, Dim: casestudy.DimDiagnosis, Cat: casestudy.CatLowLevel},
		{Ctx: context.Background(), Engine: e1, Dim: casestudy.DimDiagnosis, Cat: casestudy.CatFamily},
		{Ctx: context.Background(), Engine: e2, Dim: casestudy.DimDiagnosis, Cat: casestudy.CatLowLevel},
	}
	var wg sync.WaitGroup
	results := make([]Result, len(legs))
	for i, req := range legs {
		wg.Add(1)
		go func(i int, req Request) {
			defer wg.Done()
			results[i] = s.Do(req)
		}(i, req)
	}
	wg.Wait()
	for i, r := range results {
		if r.Err != nil {
			t.Fatalf("leg %d: %v", i, r.Err)
		}
		if r.Outcome != OutcomeLeader {
			t.Fatalf("leg %d: outcome %q, want each leg its own leader", i, r.Outcome)
		}
	}
	if st := s.Stats(); st.Batches != 3 || st.ScansSaved != 0 {
		t.Fatalf("stats = %+v, want 3 singleton batches", st)
	}
}

// TestMemberCancellation asserts a canceled member unblocks immediately
// with a qos cancellation while the surviving member still gets its scan.
func TestMemberCancellation(t *testing.T) {
	e := testEngine(t, 20)
	s := New(Config{Enabled: true, GatherWindow: 200 * time.Millisecond, MaxBatch: 64}, nil)
	ctx, cancel := context.WithCancel(context.Background())
	var canceled Result
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		canceled = s.Do(Request{Ctx: ctx, Engine: e, Dim: casestudy.DimDiagnosis, Cat: casestudy.CatLowLevel})
	}()
	var survivor Result
	wg.Add(1)
	go func() {
		defer wg.Done()
		survivor = s.Do(Request{Ctx: context.Background(), Engine: e, Dim: casestudy.DimDiagnosis, Cat: casestudy.CatLowLevel})
	}()
	time.Sleep(20 * time.Millisecond) // let both join the gather window
	cancel()
	wg.Wait()
	if canceled.Err == nil || !errors.Is(canceled.Err, qos.ErrCanceled) {
		t.Fatalf("canceled member err = %v, want qos cancellation", canceled.Err)
	}
	if survivor.Err != nil {
		t.Fatalf("surviving member: %v", survivor.Err)
	}
	if len(survivor.Values) == 0 {
		t.Fatal("surviving member got no scan output")
	}
}

// TestScanErrorPropagates asserts a failed scan reaches its members as the
// scan's error.
func TestScanErrorPropagates(t *testing.T) {
	e := testEngine(t, 20)
	s := New(Config{Enabled: true, GatherWindow: time.Millisecond, MaxBatch: 64}, nil)
	r := s.Do(Request{Ctx: context.Background(), Engine: e, Dim: "NoSuchDim", Cat: "NoSuchCat"})
	if r.Err == nil || r.Outcome != OutcomeLeader {
		t.Fatalf("Do on an unknown dimension = %+v, want the leader to get the scan error", r)
	}
}

// TestScanPanicReachesMembers asserts a panic in the fused scan — which
// runs on the scheduler's goroutine, outside any member's recover — reaches
// every member as a *ScanPanic carrying the value and the stack, and that
// the leg is released: the next batch on it scans normally.
func TestScanPanicReachesMembers(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	e := testEngine(t, 20)
	s := New(Config{Enabled: true, GatherWindow: 200 * time.Millisecond, MaxBatch: 64}, nil)
	faultinject.EnablePanic(faultinject.KernelScan, "scan boom")
	req := Request{Ctx: context.Background(), Engine: e, Dim: casestudy.DimDiagnosis, Cat: casestudy.CatLowLevel}
	results := make([]Result, 3)
	var wg sync.WaitGroup
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = s.Do(req)
		}()
	}
	wg.Wait()
	for i, r := range results {
		var sp *ScanPanic
		if !errors.As(r.Err, &sp) || sp.Value != "scan boom" || len(sp.Stack) == 0 {
			t.Fatalf("member %d err = %v, want a *ScanPanic with value and stack", i, r.Err)
		}
	}
	if st := s.Stats(); st.Batches != 1 || st.Members != 3 {
		t.Fatalf("stats = %+v, want one batch of three", st)
	}
	faultinject.Reset()
	if r := s.Do(req); r.Err != nil || len(r.Values) == 0 {
		t.Fatalf("leg not released after a scan panic: %+v", r)
	}
}

// TestBypassStats asserts bypass accounting, including an unknown reason
// (counted under the other-bucket metric but still in Stats).
func TestBypassStats(t *testing.T) {
	s := New(Config{Enabled: true}, nil)
	s.Bypass("facts")
	s.Bypass("facts")
	s.Bypass("someday-reason")
	st := s.Stats()
	if st.Bypasses["facts"] != 2 || st.Bypasses["someday-reason"] != 1 {
		t.Fatalf("bypasses = %v", st.Bypasses)
	}
	// Stats must deep-copy: mutating the copy must not leak back.
	st.Bypasses["facts"] = 99
	if s.Stats().Bypasses["facts"] != 2 {
		t.Fatal("Stats leaked its internal map")
	}
}

// TestAdaptiveWindow pins the window policy table: nil signals pin the
// configured window; a present limiter shrinks it at low load.
func TestAdaptiveWindow(t *testing.T) {
	w := 8 * time.Millisecond
	sig := &fakeSignals{}
	cases := []struct {
		name            string
		sig             Signals
		inflight, limit int
		want            time.Duration
	}{
		{"nil-signals", nil, 0, 0, w},
		{"no-limit", sig, 5, 0, w / 4},
		{"near-idle", sig, 1, 10, w / 4},
		{"light", sig, 4, 10, w / 2},
		{"loaded", sig, 9, 10, w},
		{"saturated", sig, 10, 10, w},
	}
	for _, tc := range cases {
		sig.set(tc.inflight, tc.limit)
		s := New(Config{Enabled: true, GatherWindow: w}, tc.sig)
		if got := s.window(); got != tc.want {
			t.Errorf("%s: window = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestWithDefaults pins the zero-field fill-ins.
func TestWithDefaults(t *testing.T) {
	c := Config{Enabled: true}.withDefaults()
	if c.GatherWindow != DefaultGatherWindow || c.MaxBatch != DefaultMaxBatch {
		t.Fatalf("defaults = %+v", c)
	}
	c = Config{Enabled: true, GatherWindow: time.Second, MaxBatch: 7}.withDefaults()
	if c.GatherWindow != time.Second || c.MaxBatch != 7 {
		t.Fatalf("explicit config rewritten: %+v", c)
	}
}

// TestSelectionsStayPrivate asserts two members with different WHERE
// bitmaps in one batch each get their own counts (the fused scan must not
// share selection state across members).
func TestSelectionsStayPrivate(t *testing.T) {
	e := testEngine(t, 40)
	none := storage.NewBitmap(e.NumFacts()) // empty: admits nothing
	s := New(Config{Enabled: true, GatherWindow: 50 * time.Millisecond, MaxBatch: 64}, nil)
	var all, empty Result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		all = s.Do(Request{Ctx: context.Background(), Engine: e, Dim: casestudy.DimDiagnosis, Cat: casestudy.CatLowLevel})
	}()
	go func() {
		defer wg.Done()
		empty = s.Do(Request{Ctx: context.Background(), Engine: e, Dim: casestudy.DimDiagnosis, Cat: casestudy.CatLowLevel, Sel: none})
	}()
	wg.Wait()
	if all.Err != nil || empty.Err != nil {
		t.Fatal(all.Err, empty.Err)
	}
	sum := int64(0)
	for _, c := range all.Counts {
		sum += c
	}
	if sum == 0 {
		t.Fatal("unfiltered member saw no facts")
	}
	for j, c := range empty.Counts {
		if c != 0 {
			t.Fatalf("empty-selection member counted %d at value %d", c, j)
		}
	}
}
