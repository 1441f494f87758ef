package plan

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/exec"
	"mddm/internal/faultinject"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// testRef matches the reference chronon used across the query test suites.
var testRef = temporal.MustDate("01/01/1999")

// testCatalog returns a two-MO catalog: "patients" is the hand-built
// Example 8 MO from the paper (representations, temporal annotations,
// probabilities), "gen" is the synthetic generator MO (non-strict
// hierarchy, churn, mixed granularity, 100 patients) — together they
// cover every structural feature the planner must reproduce.
func testCatalog(t testing.TB) query.Catalog {
	t.Helper()
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return query.Catalog{
		"patients": m,
		"gen":      casestudy.MustGenerate(casestudy.DefaultGen()),
	}
}

// diffOne executes src through the planner and through the full algebra
// and requires identical outcomes: same error text, or same columns,
// rows, summarizability verdict, reasons, and warnings. It returns the
// filled Explain so callers can additionally pin the routing.
func diffOne(t *testing.T, ctx context.Context, src string, cat query.Catalog, engines Engines) *Explain {
	t.Helper()
	pctx, ex := WithExplain(ctx)
	r1, err1 := ExecContext(pctx, src, cat, testRef, engines)
	r2, err2 := query.ExecContext(ctx, src, cat, testRef)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s:\n planner err: %v\n algebra err: %v", src, err1, err2)
	}
	if err1 != nil {
		if err1.Error() != err2.Error() {
			t.Fatalf("%s: error text diverged:\n planner: %s\n algebra: %s", src, err1, err2)
		}
		return ex
	}
	if !reflect.DeepEqual(r1.Columns, r2.Columns) {
		t.Fatalf("%s: columns diverged:\n planner: %v\n algebra: %v", src, r1.Columns, r2.Columns)
	}
	if !reflect.DeepEqual(r1.Rows, r2.Rows) {
		t.Fatalf("%s: rows diverged (%d vs %d):\n planner: %v\n algebra: %v",
			src, len(r1.Rows), len(r2.Rows), r1.Rows, r2.Rows)
	}
	if r1.Summarizable != r2.Summarizable || !reflect.DeepEqual(r1.Reasons, r2.Reasons) {
		t.Fatalf("%s: summarizability diverged:\n planner: %v %v\n algebra: %v %v",
			src, r1.Summarizable, r1.Reasons, r2.Summarizable, r2.Reasons)
	}
	if !reflect.DeepEqual(r1.Warnings, r2.Warnings) {
		t.Fatalf("%s: warnings diverged: %v vs %v", src, r1.Warnings, r2.Warnings)
	}
	return ex
}

// docExamples are the five examples of docs/QUERY.md, verbatim.
var docExamples = []string{
	`SELECT SETCOUNT(*) AS Count FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Family" ASOF VALID '15/06/1975'`,
	`SELECT EXPECTED(*) AS N FROM patients WHERE Diagnosis IN ('E10', 'E11') AND Age >= 40 GROUP BY Residence."Region" ORDER BY N DESC LIMIT 10`,
	`SELECT AVG(Age) FROM patients WHERE Residence = 'R1'`,
	`DESCRIBE patients Diagnosis`,
}

// plannedQueries exercises every planned shape and WHERE connective on
// both catalog MOs.
var plannedQueries = []string{
	// Global shape.
	`SELECT SETCOUNT(*) FROM patients`,
	`SELECT SETCOUNT(*) FROM gen`,
	`SELECT AVG(Age) FROM gen`,
	`SELECT SUM(Age) FROM gen`,
	`SELECT MIN(Age) FROM gen`,
	`SELECT MAX(Age) FROM gen`,
	`SELECT COUNT(Age) FROM gen`,
	// Kernel count / sum shapes (no WHERE).
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Family"`,
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`,
	`SELECT SETCOUNT(*) FROM gen GROUP BY Residence."Region"`,
	`SELECT SUM(Age) FROM gen GROUP BY Residence."Region"`,
	`SELECT SUM(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
	// Group-fold shape (selection or non-SUM argument aggregate).
	`SELECT AVG(Age) FROM gen GROUP BY Residence."Region"`,
	`SELECT MIN(Age) FROM gen GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT MAX(Age) FROM gen GROUP BY Diagnosis."Diagnosis Family"`,
	`SELECT COUNT(Age) FROM gen GROUP BY Residence."County"`,
	`SELECT SETCOUNT(*) FROM gen WHERE Residence = 'R0' GROUP BY Diagnosis."Diagnosis Group"`,
	`SELECT SUM(Age) FROM gen WHERE Age >= 40 GROUP BY Residence."Region"`,
	// Cross shape.
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`,
	`SELECT AVG(Age) FROM gen GROUP BY Diagnosis."Diagnosis Family", Residence."County"`,
	`SELECT SETCOUNT(*) FROM gen WHERE Age < 50 GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`,
	`SELECT MIN(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group", Residence`,
	// WHERE connectives and literal resolution.
	`SELECT FACTS FROM gen WHERE Residence = 'R0'`,
	`SELECT FACTS FROM gen WHERE NOT Residence = 'R0'`,
	`SELECT FACTS FROM gen WHERE Residence <> 'R0'`,
	`SELECT FACTS FROM gen WHERE Residence = 'R0' OR Residence = 'R1'`,
	`SELECT FACTS FROM gen WHERE Residence = 'R0' AND Age >= 30`,
	`SELECT FACTS FROM gen WHERE Residence IN ('R0', 'R1')`,
	`SELECT FACTS FROM gen WHERE Diagnosis NOT IN ('L0', 'L1', 'F0')`,
	`SELECT FACTS FROM gen WHERE Age > 30 AND Age <= 60`,
	`SELECT FACTS FROM gen WHERE Age = 40`,
	`SELECT FACTS FROM gen WHERE Age != 40`,
	`SELECT FACTS FROM patients WHERE Diagnosis.Code = 'E10'`,
	`SELECT FACTS FROM patients WHERE Diagnosis.Text = 'Insulin dep. diabetes'`,
	`SELECT FACTS FROM patients WHERE Diagnosis = 'E10'`,
	`SELECT FACTS FROM patients WHERE Diagnosis = 'no-such-value'`,
	`SELECT FACTS FROM patients WHERE Diagnosis.Code = 'no-such-code'`,
	`SELECT FACTS FROM gen WHERE (Residence = 'R0' OR Age < 20) AND NOT Diagnosis IN ('L3')`,
	// LIMIT cuts the sorted fact rows.
	`SELECT FACTS FROM patients LIMIT 10`,
	`SELECT FACTS FROM gen LIMIT 10`,
	`SELECT FACTS FROM gen WHERE Residence = 'R0' LIMIT 3`,
	// Facts on a selection that empties the MO.
	`SELECT SETCOUNT(*) FROM gen WHERE Age > 1000`,
	`SELECT SETCOUNT(*) FROM gen WHERE Age > 1000 GROUP BY Residence."Region"`,
	`SELECT FACTS FROM gen WHERE Age > 1000`,
	// ⊤ grouping and duplicate group dims.
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."⊤"`,
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Diagnosis."Diagnosis Group"`,
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."⊤", Residence."Region"`,
	// HAVING / ORDER BY / LIMIT post-processing.
	`SELECT SETCOUNT(*) AS N FROM gen GROUP BY Diagnosis."Diagnosis Group" HAVING >= 2`,
	`SELECT SETCOUNT(*) AS N FROM gen GROUP BY Diagnosis."Diagnosis Group" ORDER BY N DESC LIMIT 3`,
	`SELECT SETCOUNT(*) AS N FROM gen GROUP BY Residence."Region" ORDER BY N LIMIT 0`,
	`SELECT AVG(Age) AS A FROM gen GROUP BY Residence."County" HAVING > 30 ORDER BY A DESC LIMIT 2`,
	// Aliases and bare GROUP BY (bottom category default).
	`SELECT SETCOUNT(*) AS Count FROM gen GROUP BY Residence`,
	`SELECT SETCOUNT(*) AS SETCOUNT FROM gen`,
}

// errorQueries must fail identically (byte-identical text) on both paths.
var errorQueries = []string{
	`SELECT SETCOUNT(*) FROM nowhere`,
	`SELECT SETCOUNT(*) FROM gen GROUP BY Bogus`,
	`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Bogus Category"`,
	`SELECT FACTS FROM gen WHERE Bogus = 'x'`,
	`SELECT FACTS FROM patients WHERE Diagnosis.Bogus = 'x'`,
	`SELECT BOGUS(*) FROM gen`,
	`SELECT SUM(*) FROM gen`,
	`SELECT SETCOUNT(Age) FROM gen`,
	`SELECT SUM(Bogus) FROM gen`,
	`SELECT SUM(Age) AS Age FROM gen`,
	`SELECT SETCOUNT(*) AS Diagnosis FROM gen`,
	`SELECT SETCOUNT(*) FROM gen HAVING ?? 3`,
	`SELECT SUM(Name) FROM patients`,
}

func TestDifferentialOracle(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	all := append(append(append([]string{}, docExamples...), plannedQueries...), errorQueries...)
	for _, deg := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("degree=%d", deg), func(t *testing.T) {
			ctx := exec.WithParallelism(context.Background(), deg)
			for _, src := range all {
				diffOne(t, ctx, src, cat, engines)
			}
		})
	}
}

// TestDifferentialAllAggregates sweeps every registered aggregate through
// global, one-dimensional, selected and cross shapes on both MOs,
// asserting planner ≡ algebra for each (probabilistic functions route to
// the algebra and must still agree trivially; MEDIAN, which has no Fold,
// runs planned from argument lists on every shape).
func TestDifferentialAllAggregates(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	ctx := context.Background()
	for _, name := range agg.Names() {
		fn, err := agg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		arg := "*"
		if fn.NeedsArg {
			arg = "Age"
		}
		shapes := []string{
			fmt.Sprintf(`SELECT %s(%s) FROM gen`, name, arg),
			fmt.Sprintf(`SELECT %s(%s) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, name, arg),
			fmt.Sprintf(`SELECT %s(%s) FROM gen WHERE Residence = 'R0' GROUP BY Diagnosis."Diagnosis Group"`, name, arg),
			fmt.Sprintf(`SELECT %s(%s) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`, name, arg),
			fmt.Sprintf(`SELECT %s(%s) FROM patients GROUP BY Residence`, name, arg),
		}
		for _, src := range shapes {
			ex := diffOne(t, ctx, src, cat, engines)
			wantMode := ModePlanned
			reason := ""
			if fn.NeedsProb {
				wantMode, reason = ModeFallback, ReasonProbabilistic
			}
			if ex.Mode != wantMode || ex.Reason != reason {
				t.Fatalf("%s: routed mode=%q reason=%q, want mode=%q reason=%q",
					src, ex.Mode, ex.Reason, wantMode, reason)
			}
		}
	}
}

// TestIndexFreeComparator closes the three-way differential: the planned
// SETCOUNT rows must match the engine's index-free full scan, the same
// comparator the storage kernels are pinned against.
func TestIndexFreeComparator(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	eng, err := engines.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range []struct{ dim, cat string }{
		{casestudy.DimDiagnosis, casestudy.CatGroup},
		{casestudy.DimDiagnosis, casestudy.CatFamily},
		{casestudy.DimResidence, casestudy.CatRegion},
	} {
		src := fmt.Sprintf(`SELECT SETCOUNT(*) FROM gen GROUP BY "%s"."%s"`, g.dim, g.cat)
		res, err := ExecContext(context.Background(), src, cat, testRef, engines)
		if err != nil {
			t.Fatal(err)
		}
		scan := eng.CountDistinctScan(g.dim, g.cat)
		got := map[string]string{}
		for _, r := range res.Rows {
			got[r[0]] = r[1]
		}
		want := map[string]string{}
		for v, c := range scan {
			if c > 0 {
				want[v] = agg.FormatResult(float64(c))
			}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: planned %v != index-free scan %v", src, got, want)
		}
	}
}

// TestFallbackRouting pins each fallback reason to its trigger and checks
// the fallback still produces algebra-identical results.
func TestFallbackRouting(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	ctx := context.Background()
	cases := []struct {
		src    string
		reason string
	}{
		{`DESCRIBE patients Diagnosis`, ReasonDescribe},
		{`SELECT SETCOUNT(*) FROM patients WITH PROB >= 0.5`, ReasonMinProb},
		{`SELECT SETCOUNT(*) FROM patients ASOF VALID '15/06/1975'`, ReasonTimeslice},
		{`SELECT SETCOUNT(*) FROM patients ASOF TRANS '01/01/1998'`, ReasonTimeslice},
		{`SELECT EXPECTED(*) FROM patients`, ReasonProbabilistic},
		{`SELECT MINCOUNT(*) FROM patients`, ReasonProbabilistic},
		{`SELECT MAXCOUNT(*) FROM patients`, ReasonProbabilistic},
	}
	for _, c := range cases {
		ex := diffOne(t, ctx, c.src, cat, engines)
		if ex.Mode != ModeFallback || ex.Reason != c.reason {
			t.Fatalf("%s: mode=%q reason=%q, want fallback/%s", c.src, ex.Mode, ex.Reason, c.reason)
		}
	}
}

// failingEngines always fails resolution, forcing the defensive fallback.
type failingEngines struct{}

func (failingEngines) EngineFor(context.Context, string) (*storage.Engine, error) {
	return nil, errors.New("no engines today")
}

func TestFallbackEngineUnavailable(t *testing.T) {
	cat := testCatalog(t)
	ex := diffOne(t, context.Background(),
		`SELECT SETCOUNT(*) FROM gen GROUP BY Residence."Region"`, cat, failingEngines{})
	if ex.Mode != ModeFallback || ex.Reason != ReasonEngineUnavailable {
		t.Fatalf("mode=%q reason=%q, want fallback/engine-unavailable", ex.Mode, ex.Reason)
	}
}

// staleEngines resolves an engine built under a different evaluation
// context than the query's; the planner must refuse its closures.
type staleEngines struct{ eng *storage.Engine }

func (s staleEngines) EngineFor(context.Context, string) (*storage.Engine, error) {
	return s.eng, nil
}

func TestFallbackContextMismatch(t *testing.T) {
	cat := testCatalog(t)
	at := temporal.MustDate("15/06/1975")
	eng, err := storage.BuildEngine(context.Background(), cat["gen"],
		dimension.CurrentContext(testRef).AtValid(at))
	if err != nil {
		t.Fatal(err)
	}
	ex := diffOne(t, context.Background(),
		`SELECT SETCOUNT(*) FROM gen GROUP BY Residence."Region"`, cat, staleEngines{eng})
	if ex.Mode != ModeFallback || ex.Reason != ReasonContextMismatch {
		t.Fatalf("mode=%q reason=%q, want fallback/context-mismatch", ex.Mode, ex.Reason)
	}
}

func TestCatalogEnginesMemoizes(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	e1, err := engines.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	e2, err := engines.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	if e1 != e2 {
		t.Fatal("engine not memoized across resolutions")
	}
	if _, err := engines.EngineFor(context.Background(), "nowhere"); err == nil {
		t.Fatal("unknown MO resolved")
	}
	// Swapping the catalog entry for a different MO rebuilds.
	cat["gen"] = casestudy.MustGenerate(casestudy.DefaultGen())
	e3, err := engines.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	if e3 == e1 {
		t.Fatal("engine not rebuilt after catalog swap")
	}
}

// TestBudgetParity pins the planner's budget accounting to the kernel
// contract: a planned grouped count spends exactly what the kernel it
// dispatches to spends, so admission-control sizing transfers unchanged.
func TestBudgetParity(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	eng, err := engines.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	const budget = int64(1 << 40)

	pctx := qos.WithFactBudget(context.Background(), budget)
	if _, err := ExecContext(pctx, `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, cat, testRef, engines); err != nil {
		t.Fatal(err)
	}
	plannedSpent := qos.BudgetFrom(pctx).Spent()

	kctx := qos.WithFactBudget(context.Background(), budget)
	if _, err := eng.CountDistinctByContext(kctx, casestudy.DimDiagnosis, casestudy.CatGroup); err != nil {
		t.Fatal(err)
	}
	kernelSpent := qos.BudgetFrom(kctx).Spent()

	if plannedSpent != kernelSpent {
		t.Fatalf("planned spent %d, kernel spent %d", plannedSpent, kernelSpent)
	}
	if plannedSpent == 0 {
		t.Fatal("planned query spent no budget")
	}
}

// TestBudgetExhaustion drives a planned query into a tiny budget on every
// shape and requires a resource-exhausted error, not a partial result.
func TestBudgetExhaustion(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	// Resolve the engine outside the tiny budget: built under it the build
	// itself exhausts and every query below would route to the algebra.
	if _, err := engines.EngineFor(context.Background(), "gen"); err != nil {
		t.Fatal(err)
	}
	for _, src := range []string{
		`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SETCOUNT(*) FROM gen`,
		`SELECT AVG(Age) FROM gen WHERE Age >= 0 GROUP BY Residence."Region"`,
		`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`,
		`SELECT FACTS FROM gen`,
	} {
		ctx, ex := WithExplain(qos.WithFactBudget(context.Background(), 1))
		_, err := ExecContext(ctx, src, cat, testRef, engines)
		if err == nil || !errors.Is(err, qos.ErrResourceExhausted) {
			t.Fatalf("%s: got %v, want resource exhausted", src, err)
		}
		if ex.Mode != ModePlanned {
			t.Fatalf("%s: exhausted on the %s path, want planned", src, ex.Mode)
		}
	}
}

// TestCancellation covers pre-admission cancellation and the fault
// injection point inside the plan executor.
func TestCancellation(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecContext(ctx, `SELECT SETCOUNT(*) FROM gen`, cat, testRef, engines)
	if err == nil || !errors.Is(err, qos.ErrCanceled) {
		t.Fatalf("got %v, want canceled", err)
	}
}

func TestFaultInjectPlanExec(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	defer faultinject.Reset()
	boom := errors.New("injected plan failure")
	faultinject.Enable(faultinject.PlanExec, boom)
	_, err := ExecContext(context.Background(), `SELECT SETCOUNT(*) FROM gen`, cat, testRef, engines)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected failure", err)
	}
	if !strings.HasPrefix(err.Error(), "plan: ") {
		t.Fatalf("injected error not attributed to the planner: %v", err)
	}
	if faultinject.Hits(faultinject.PlanExec) == 0 {
		t.Fatal("plan-exec injection point never hit")
	}
	// A fallback query must not pass through the plan executor's point.
	faultinject.Reset()
	faultinject.Enable(faultinject.PlanExec, boom)
	if _, err := ExecContext(context.Background(), `DESCRIBE patients Diagnosis`, cat, testRef, engines); err != nil {
		t.Fatalf("fallback query tripped the plan-exec point: %v", err)
	}
}

// TestWhereClosureExpandFault covers the bitmap compiler's error path: a
// failing closure expansion surfaces as a wrapped storage error, same as
// on the kernel paths.
func TestWhereClosureExpandFault(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	defer faultinject.Reset()
	boom := errors.New("injected closure failure")
	faultinject.Enable(faultinject.ClosureExpand, boom)
	_, err := ExecContext(context.Background(),
		`SELECT SETCOUNT(*) FROM gen WHERE Residence = 'R0'`, cat, testRef, engines)
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("got %v, want injected closure failure", err)
	}
	if !strings.HasPrefix(err.Error(), "query: ") {
		t.Fatalf("closure failure not wrapped as a query error: %v", err)
	}
}

// TestExplainOutput pins the explain payload fields per shape.
func TestExplainOutput(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	cases := []struct {
		src   string
		shape string
	}{
		{`SELECT FACTS FROM gen WHERE Residence = 'R0'`, ShapeFacts},
		{`SELECT SETCOUNT(*) FROM gen`, ShapeGlobal},
		{`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, ShapeKernelCount},
		{`SELECT SUM(Age) FROM gen GROUP BY Residence."Region"`, ShapeKernelSum},
		{`SELECT AVG(Age) FROM gen GROUP BY Residence."Region"`, ShapeGroupFold},
		{`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`, ShapeCross},
	}
	for _, c := range cases {
		ctx, ex := WithExplain(exec.WithParallelism(context.Background(), 4))
		res, err := ExecContext(ctx, c.src, cat, testRef, engines)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Mode != ModePlanned || ex.Shape != c.shape {
			t.Fatalf("%s: mode=%q shape=%q, want planned/%s", c.src, ex.Mode, ex.Shape, c.shape)
		}
		if ex.Degree != 4 {
			t.Fatalf("%s: degree=%d, want 4", c.src, ex.Degree)
		}
		if ex.Groups != len(res.Rows) && c.shape != ShapeFacts {
			t.Fatalf("%s: groups=%d, rows=%d", c.src, ex.Groups, len(res.Rows))
		}
	}
}

// TestSummarizableReasonsParity forces a non-strict grouping and a
// non-distributive function and checks the planner reproduces the
// algebra's summarizability report verbatim (already covered by the
// differential assert; this pins the interesting fixtures explicitly).
func TestSummarizableReasonsParity(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	ctx := context.Background()
	for _, src := range []string{
		// gen's diagnosis hierarchy is non-strict by construction.
		`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Family"`,
		// AVG is not distributive.
		`SELECT AVG(Age) FROM gen GROUP BY Residence."Region"`,
		// Selection can remove the offending facts: still must agree.
		`SELECT SETCOUNT(*) FROM gen WHERE Residence = 'R0' GROUP BY Diagnosis."Diagnosis Family"`,
	} {
		pctx, _ := WithExplain(ctx)
		r1, err := ExecContext(pctx, src, cat, testRef, engines)
		if err != nil {
			t.Fatal(err)
		}
		r2, err := query.ExecContext(ctx, src, cat, testRef)
		if err != nil {
			t.Fatal(err)
		}
		if r1.Summarizable != r2.Summarizable || !reflect.DeepEqual(r1.Reasons, r2.Reasons) {
			t.Fatalf("%s: report diverged: %v %v vs %v %v",
				src, r1.Summarizable, r1.Reasons, r2.Summarizable, r2.Reasons)
		}
	}
}
