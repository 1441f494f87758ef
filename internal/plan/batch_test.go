package plan

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"

	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
)

// batchableQueries is the shared-scan differential corpus: every planned
// single-leg shape (kernel-count, kernel-sum, group-fold) across every
// batchable aggregate, with and without WHERE, on both catalog MOs.
var batchableQueries = []string{
	// Kernel-count shape.
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`,
	`SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
	// Kernel-sum shape.
	`SELECT SUM(Age) FROM gen GROUP BY Residence."Region"`,
	`SELECT SUM(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
	// Group-fold shape: argument aggregates and selections.
	`SELECT AVG(Age) FROM gen GROUP BY Residence."Region"`,
	`SELECT MIN(Age) FROM gen GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT MAX(Age) FROM gen GROUP BY Diagnosis."Diagnosis Family"`,
	`SELECT COUNT(Age) FROM gen GROUP BY Residence."County"`,
	`SELECT SETCOUNT(*) FROM gen WHERE Residence = 'R0' GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT SUM(Age) FROM gen WHERE Age >= 40 GROUP BY Residence."Region"`,
	`SELECT AVG(Age) FROM gen WHERE Age < 50 GROUP BY Diagnosis."Diagnosis Group"`,
	// Result-shaping tails run after the fused scan, per member.
	`SELECT SETCOUNT(*) AS N FROM gen GROUP BY Diagnosis."Diagnosis Group" HAVING >= 2 ORDER BY N DESC LIMIT 3`,
	`SELECT AVG(Age) AS A FROM gen GROUP BY Residence."Region" ORDER BY A LIMIT 2`,
}

// runShared drives one query through the batch-side API exactly as the
// serve glue does — PrepareContext, the fused scan, FinishShared — as a
// single-member batch.
func runShared(t *testing.T, ctx context.Context, src string, cat query.Catalog, engines Engines) (*query.Result, error) {
	t.Helper()
	p, err := PrepareContext(ctx, src, cat, testRef, engines)
	if err != nil {
		return nil, err
	}
	if ok, reason := p.Batchable(); !ok {
		t.Fatalf("%s: not batchable (%s)", src, reason)
	}
	dim, gcat := p.GroupLeg()
	members := []storage.SharedScanMember{{ArgDim: p.ArgDim(), Sel: p.Selection(), ListArgs: p.NeedsArgLists()}}
	// The scan runs under the scheduler's own context in production
	// (allMembersCtx), never the member's budget context.
	scan, err := p.Engine().ScanLeg(context.Background(), dim, gcat, members)
	if err != nil {
		t.Fatalf("%s: fused scan: %v", src, err)
	}
	m := scan.Members[0]
	return p.FinishScan(scan.Kernel, scan.Values, m.Counts, m.Args, m.Folds)
}

// TestFinishSharedDifferential asserts shared-scan completion ≡ solo
// planner execution ≡ algebra for the whole batchable corpus — rows,
// columns, summarizability, warnings, and the explain routing (the solo
// run's shape and kernel strategy).
func TestFinishSharedDifferential(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	for _, src := range batchableQueries {
		sctx, soloEx := WithExplain(context.Background())
		want, wantErr := ExecContext(sctx, src, cat, testRef, engines)
		if wantErr != nil {
			t.Fatalf("%s: solo: %v", src, wantErr)
		}
		alg, algErr := query.ExecContext(context.Background(), src, cat, testRef)
		if algErr != nil {
			t.Fatalf("%s: algebra: %v", src, algErr)
		}
		if !reflect.DeepEqual(want.Rows, alg.Rows) {
			t.Fatalf("%s: solo planner diverged from algebra", src)
		}
		ctx, ex := WithExplain(context.Background())
		got, err := runShared(t, ctx, src, cat, engines)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if !reflect.DeepEqual(got.Columns, want.Columns) || !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("%s: shared diverged:\n shared: %v\n solo:   %v", src, got.Rows, want.Rows)
		}
		if got.Summarizable != want.Summarizable || !reflect.DeepEqual(got.Reasons, want.Reasons) {
			t.Fatalf("%s: summarizability diverged", src)
		}
		if !reflect.DeepEqual(got.Warnings, want.Warnings) {
			t.Fatalf("%s: warnings diverged", src)
		}
		if ex.Kernel != soloEx.Kernel || (ex.Kernel != storage.KernelColumn && ex.Kernel != storage.KernelBitmap) {
			t.Fatalf("%s: explain kernel %q, solo ran %q", src, ex.Kernel, soloEx.Kernel)
		}
		switch ex.Shape {
		case ShapeKernelCount, ShapeKernelSum, ShapeGroupFold:
		default:
			t.Fatalf("%s: explain shape %q", src, ex.Shape)
		}
		if ex.Shape != soloEx.Shape {
			t.Fatalf("%s: explain shape %q, solo ran %q", src, ex.Shape, soloEx.Shape)
		}
	}
}

// TestFinishSharedBudgetParity asserts a shared-scan completion spends
// exactly the fact budget its solo execution spends — the scan itself is
// free, the member's replay charges everything.
func TestFinishSharedBudgetParity(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	const budget = int64(1 << 40)
	for _, src := range batchableQueries {
		// Warm once: the first execution on an engine pays one-time
		// infrastructure charges (summarizability scans) that are memoized
		// afterwards; parity is a steady-state contract.
		if _, err := ExecContext(context.Background(), src, cat, testRef, engines); err != nil {
			t.Fatal(err)
		}
		sctx := qos.WithFactBudget(context.Background(), budget)
		if _, err := ExecContext(sctx, src, cat, testRef, engines); err != nil {
			t.Fatal(err)
		}
		soloSpent := qos.BudgetFrom(sctx).Spent()

		bctx := qos.WithFactBudget(context.Background(), budget)
		if _, err := runShared(t, bctx, src, cat, engines); err != nil {
			t.Fatal(err)
		}
		sharedSpent := qos.BudgetFrom(bctx).Spent()
		if soloSpent != sharedSpent {
			t.Fatalf("%s: solo spent %d, shared spent %d", src, soloSpent, sharedSpent)
		}
		if soloSpent == 0 {
			t.Fatalf("%s: spent no budget", src)
		}
	}
}

// TestFinishSharedBudgetExhaustion asserts the replayed budget loop fails
// with the solo path's exact error text when the budget is too small —
// shape-prefixed wrap included.
func TestFinishSharedBudgetExhaustion(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	for _, src := range []string{
		`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SUM(Age) FROM gen GROUP BY Residence."Region"`,
		`SELECT AVG(Age) FROM gen WHERE Age >= 0 GROUP BY Residence."Region"`,
	} {
		// Warm first so the tiny-budget runs start from the same memoized
		// state and the first charge both paths hit is the kernel's.
		if _, err := ExecContext(context.Background(), src, cat, testRef, engines); err != nil {
			t.Fatal(err)
		}
		_, soloErr := ExecContext(qos.WithFactBudget(context.Background(), 1), src, cat, testRef, engines)
		if soloErr == nil || !errors.Is(soloErr, qos.ErrResourceExhausted) {
			t.Fatalf("%s: solo err = %v, want resource exhausted", src, soloErr)
		}
		_, sharedErr := runShared(t, qos.WithFactBudget(context.Background(), 1), src, cat, engines)
		if sharedErr == nil || !errors.Is(sharedErr, qos.ErrResourceExhausted) {
			t.Fatalf("%s: shared err = %v, want resource exhausted", src, sharedErr)
		}
		if soloErr.Error() != sharedErr.Error() {
			t.Fatalf("%s: error text diverged:\n solo:   %s\n shared: %s", src, soloErr, sharedErr)
		}
	}
}

// TestFinishSharedCapturesPartials asserts a shared-scan completion fills
// the delta-capture sink exactly like solo execution: the captured
// partials upgrade over appended facts to the algebra's recomputed truth.
func TestFinishSharedCapturesPartials(t *testing.T) {
	cat, engines, eng, appendFact := deltaFixture(t, 30)
	src := `SELECT AVG(Age) FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`
	cctx, cp := WithCapture(context.Background())
	if _, err := runShared(t, cctx, src, cat, engines); err != nil {
		t.Fatal(err)
	}
	if cp.Partials == nil {
		t.Fatal("shared completion captured no partials")
	}
	epoch, _ := eng.EpochFacts()
	appendFact(44, "L0")
	appendFact(61, "L1")
	res, _, _ := upgradeOnce(t, eng, cp.Partials, epoch)
	requireMatchesAlgebra(t, src, cat, res)
}

// TestBatchableClassification pins the bypass taxonomy — and that every
// non-batchable Prepared still Executes to the solo result (the bypass
// path the serve glue takes).
func TestBatchableClassification(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	cases := []struct {
		src    string
		reason string
	}{
		{`SELECT FACTS FROM gen WHERE Residence = 'R0'`, BypassFacts},
		{`SELECT SETCOUNT(*) FROM gen`, BypassGlobal},
		{`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`, BypassCross},
		{`DESCRIBE gen Diagnosis`, BypassDescribe},
		{`SELECT SETCOUNT(*) FROM gen GROUP BY NoSuchDim."X"`, BypassError},
	}
	for _, tc := range cases {
		p, err := PrepareContext(context.Background(), tc.src, cat, testRef, engines)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		ok, reason := p.Batchable()
		if ok || reason != tc.reason {
			t.Fatalf("%s: Batchable = %v %q, want false %q", tc.src, ok, reason, tc.reason)
		}
		if d, c := p.GroupLeg(); d != "" || c != "" {
			t.Fatalf("%s: GroupLeg = %q/%q on a non-batchable query", tc.src, d, c)
		}
		got, gotErr := p.Execute()
		want, wantErr := ExecContext(context.Background(), tc.src, cat, testRef, engines)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("%s: execute err %v, solo err %v", tc.src, gotErr, wantErr)
		}
		if gotErr != nil {
			if gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: error text diverged:\n prepared: %s\n solo:     %s", tc.src, gotErr, wantErr)
			}
			continue
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) || !reflect.DeepEqual(got.Columns, want.Columns) {
			t.Fatalf("%s: prepared Execute diverged from solo", tc.src)
		}
	}
	p, err := PrepareContext(context.Background(), batchableQueries[0], cat, testRef, engines)
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := p.Batchable(); !ok {
		t.Fatalf("batchable query classified as %q", reason)
	}
	if p.Engine() == nil || p.Selection() != nil || p.ArgDim() != "" {
		t.Fatal("batchable accessors inconsistent for a no-WHERE SETCOUNT")
	}
	p.Abort()
}

// TestNeedsArgLists pins the scan-output mode classification: no lists
// without an argument dimension, Accs for every aggregate with a Fold —
// under delta capture too, the Acc is the partial — and lists only for
// MEDIAN, which has none. A misclassification either re-introduces the
// full-width list allocation the Acc path exists to avoid or hands
// FinishShared folds where the function needs values (which it refuses).
func TestNeedsArgLists(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	cases := []struct {
		src     string
		capture bool
		want    bool
	}{
		{`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, false, false},
		{`SELECT SUM(Age) FROM gen GROUP BY Residence."Region"`, false, false},
		{`SELECT AVG(Age) FROM gen GROUP BY Residence."Region"`, false, false},
		{`SELECT MIN(Age) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, false, false},
		{`SELECT MAX(Age) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, false, false},
		{`SELECT COUNT(Age) FROM gen GROUP BY Residence."Region"`, false, false},
		// Capture changes nothing: the scan's Acc is what it keeps.
		{`SELECT AVG(Age) FROM gen GROUP BY Residence."Region"`, true, false},
		{`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, true, false},
		{`SELECT MEDIAN(Age) FROM gen GROUP BY Residence."Region"`, false, true},
		{`SELECT MEDIAN(Age) FROM gen GROUP BY Residence."Region"`, true, true},
	}
	for _, tc := range cases {
		ctx := context.Background()
		if tc.capture {
			ctx, _ = WithCapture(ctx)
		}
		p, err := PrepareContext(ctx, tc.src, cat, testRef, engines)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		if got := p.NeedsArgLists(); got != tc.want {
			t.Fatalf("%s (capture=%v): NeedsArgLists = %v, want %v", tc.src, tc.capture, got, tc.want)
		}
		p.Abort()
	}
}

// TestFinishMemberSlotContract asserts the defensive refusal: a member
// finished from a slot of the other mode — folds for MEDIAN, which needs
// lists, or lists for AVG, which finalizes its Acc — is a glue bug,
// surfaced as an error naming the entry point that was called rather than
// as a wrong answer.
func TestFinishMemberSlotContract(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	for _, tc := range []struct{ fn, want string }{
		{"MEDIAN", "without argument lists"},
		{"AVG", "without argument folds"},
	} {
		src := `SELECT ` + tc.fn + `(Age) FROM gen GROUP BY Residence."Region"`
		for _, entry := range []string{"FinishShared", "FinishScan"} {
			p, err := PrepareContext(context.Background(), src, cat, testRef, engines)
			if err != nil {
				t.Fatal(err)
			}
			dim, gcat := p.GroupLeg()
			members := []storage.SharedScanMember{{ArgDim: p.ArgDim(), Sel: p.Selection(), ListArgs: !p.NeedsArgLists()}} // the wrong mode
			values, counts, args, folds, err := p.Engine().SharedAggregateBy(context.Background(), dim, gcat, members, 1)
			if err != nil {
				t.Fatal(err)
			}
			if entry == "FinishShared" {
				_, err = p.FinishShared(values, counts[0], args[0], folds[0])
			} else {
				_, err = p.FinishScan(storage.KernelBitmap, values, counts[0], args[0], folds[0])
			}
			if err == nil || !strings.Contains(err.Error(), entry+" "+tc.want) {
				t.Fatalf("%s, %s from the wrong slot = %v, want %q", tc.fn, entry, err, entry+" "+tc.want)
			}
		}
	}
}

// TestFinishSharedNonBatchable asserts FinishShared refuses a query that
// never should have reached it.
func TestFinishSharedNonBatchable(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	p, err := PrepareContext(context.Background(), `SELECT FACTS FROM gen`, cat, testRef, engines)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.FinishShared(nil, nil, nil, nil); err == nil || !strings.Contains(err.Error(), "FinishShared on a non-batchable") {
		t.Fatalf("FinishShared on FACTS = %v, want non-batchable error", err)
	}
}

// TestPrepareContextErrors covers the parse-error and canceled-context
// paths (span and latency metric must still be released — no panic, an
// error returned).
func TestPrepareContextErrors(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	if _, err := PrepareContext(context.Background(), `SELECT NONSENSE`, cat, testRef, engines); err == nil {
		t.Fatal("parse error not surfaced")
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := PrepareContext(ctx, `SELECT SETCOUNT(*) FROM gen`, cat, testRef, engines); err == nil || !errors.Is(err, qos.ErrCanceled) {
		t.Fatalf("canceled prepare = %v, want canceled", err)
	}
}
