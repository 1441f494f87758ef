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
	"mddm/internal/faultinject"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// testRef matches the reference chronon used across the query test suites.
var testRef = temporal.MustDate("01/01/1999")

// testCatalog returns a three-MO catalog: "patients" is the hand-built
// Example 8 MO from the paper (representations, temporal annotations),
// "gen" is the synthetic generator MO (non-strict hierarchy, churn, mixed
// granularity, uncertain attachments, 100 patients) and "wards" is wardsMO,
// whose hierarchy edges and memberships are themselves temporal and
// uncertain — together they cover every structural feature the planner
// must reproduce.
func testCatalog(t testing.TB) query.Catalog {
	t.Helper()
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return query.Catalog{
		"patients": m,
		"gen":      casestudy.MustGenerate(casestudy.DefaultGen()),
		"wards":    wardsMO(t),
	}
}

// diffOne executes src through the planner and through the full algebra
// and requires identical outcomes: same error text, or same columns,
// rows, summarizability verdict, reasons, and warnings. It returns the
// filled Explain so callers can additionally pin the routing.
func diffOne(t *testing.T, ctx context.Context, src string, cat query.Catalog, engines Engines) *Explain {
	t.Helper()
	return diffOneAt(t, ctx, src, cat, engines, testRef)
}

// diffOneAt is diffOne with NOW resolving to ref on both paths.
func diffOneAt(t *testing.T, ctx context.Context, src string, cat query.Catalog, engines Engines, ref temporal.Chronon) *Explain {
	t.Helper()
	pctx, ex := WithExplain(ctx)
	r1, err1 := ExecContext(pctx, src, cat, ref, engines)
	r2, err2 := query.ExecContext(ctx, src, cat, ref)
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

// TestDifferentialOracle runs the static query lists and the context-view
// matrix (viewQueries, views_test.go) through planner and algebra. A view
// query must also report that it ran planned, from a view. Every scan runs on
// the calling goroutine, so degree 1 is the one degree the matrix runs at.
func TestDifferentialOracle(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	t.Run("degree=1", func(t *testing.T) {
		ctx := context.Background()
		for _, src := range append(append(append([]string{}, docExamples...), plannedQueries...), errorQueries...) {
			diffOne(t, ctx, src, cat, engines)
		}
		for _, src := range viewQueries() {
			if ex := diffOne(t, ctx, src, cat, engines); ex.Mode != ModePlanned || ex.View == "" {
				t.Fatalf("%s: mode=%q view=%q, want planned from a view", src, ex.Mode, ex.View)
			}
		}
	})
}

// TestDifferentialAllAggregates sweeps every registered aggregate through
// global, one-dimensional, selected and cross shapes on both MOs,
// asserting planner ≡ algebra for each (probabilistic functions fold
// membership probabilities on a view of the current context; MEDIAN, which
// has no Fold, runs planned from argument lists on every shape).
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
			if ex.Mode != ModePlanned {
				t.Fatalf("%s: routed mode=%q, want planned", src, ex.Mode)
			}
			// Membership probabilities are indexed by context views only.
			if (ex.View != "") != fn.NeedsProb {
				t.Fatalf("%s: view=%q, want a view exactly for a probabilistic function", src, ex.View)
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

// TestDescribePlanned pins DESCRIBE to the planner's schema rendering —
// planned, shape describe, no engine resolved — with the algebra's rows and
// error texts.
func TestDescribePlanned(t *testing.T) {
	cat := testCatalog(t)
	ctx := context.Background()
	for _, src := range []string{
		`DESCRIBE patients Diagnosis`,
		`DESCRIBE wards`,
		`DESCRIBE nowhere`,
		`DESCRIBE patients Bogus`,
	} {
		// failingEngines: a DESCRIBE that resolved an engine would fail.
		ex := diffOne(t, ctx, src, cat, failingEngines{})
		if ex.Mode != ModePlanned || ex.Shape != ShapeDescribe {
			t.Fatalf("%s: mode=%q shape=%q, want planned/describe", src, ex.Mode, ex.Shape)
		}
	}
}

// errNoEngines is what failingEngines resolves to.
var errNoEngines = errors.New("no engines today")

// failingEngines always fails resolution.
type failingEngines struct{}

func (failingEngines) EngineFor(context.Context, string) (*storage.Engine, error) {
	return nil, errNoEngines
}

// TestEngineUnavailableIsError pins what an unresolvable engine does to a
// query: it fails with the resolver's error, unwrapped, before anything is
// planned — the planner has no other way to answer it.
func TestEngineUnavailableIsError(t *testing.T) {
	cat := testCatalog(t)
	ctx, ex := WithExplain(context.Background())
	p, err := PrepareContext(ctx, `SELECT SETCOUNT(*) FROM gen GROUP BY Residence."Region"`, cat, testRef, failingEngines{})
	if err != nil {
		t.Fatal(err)
	}
	if ok, reason := p.Batchable(); ok || reason != BypassError {
		t.Fatalf("Batchable = %v %q, want false %q", ok, reason, BypassError)
	}
	if _, err := p.Execute(); err != errNoEngines {
		t.Fatalf("err = %v, want the resolver's error", err)
	}
	if ex.Mode != "" {
		t.Fatalf("explain %+v, want no mode: nothing was planned", *ex)
	}
}

// staleEngines resolves an engine built under a different evaluation
// context than the query's.
type staleEngines struct{ eng *storage.Engine }

func (s staleEngines) EngineFor(context.Context, string) (*storage.Engine, error) {
	return s.eng, nil
}

// TestContextViews pins how an engine is resolved for a context: the
// snapshot itself for the context it was built under, and for any other —
// an ASOF instant, a threshold, another reference chronon, even the current
// context when the snapshot was built under a timeslice — a context view,
// built once per context and per snapshot and answering like the algebra.
func TestContextViews(t *testing.T) {
	cat := testCatalog(t)
	ctx := context.Background()
	const plain = `SELECT SETCOUNT(*) FROM gen GROUP BY Residence."Region"`
	const asof = plain + ` ASOF VALID '15/06/1985'`

	// A snapshot built under a timeslice answers a current query from a view.
	at := temporal.MustDate("15/06/1985")
	sliced, err := storage.BuildEngine(ctx, cat["gen"], dimension.CurrentContext(testRef).AtValid(at))
	if err != nil {
		t.Fatal(err)
	}
	if ex := diffOne(t, ctx, plain, cat, staleEngines{sliced}); ex.Mode != ModePlanned || ex.View != storage.ViewBuilt {
		t.Fatalf("current query on a sliced snapshot: mode=%q view=%q, want planned from a built view", ex.Mode, ex.View)
	}
	// ... and the query at its own instant from the snapshot itself.
	if ex := diffOne(t, ctx, asof, cat, staleEngines{sliced}); ex.Mode != ModePlanned || ex.View != "" {
		t.Fatalf("query at the snapshot's instant: mode=%q view=%q, want planned with no view", ex.Mode, ex.View)
	}

	engines := NewCatalogEngines(cat, testRef)
	base, err := engines.EngineFor(ctx, "gen")
	if err != nil {
		t.Fatal(err)
	}
	ectx := dimension.CurrentContext(testRef).AtValid(at)
	for i, want := range []string{storage.ViewBuilt, storage.ViewCached} {
		ex := diffOne(t, ctx, asof, cat, engines)
		if ex.Mode != ModePlanned || ex.View != want || ex.AsofValid != "15/06/1985" || ex.AsofTrans != "" || ex.MinProb != 0 {
			t.Fatalf("round %d: explain %+v, want planned from a %s view at 15/06/1985", i, *ex, want)
		}
	}
	v1, _ := base.View(ectx, false)
	if v2, outcome := base.View(ectx, false); v2 != v1 || outcome != storage.ViewCached || !v1.IsView() {
		t.Fatalf("view not memoized per context: %p vs %p (%s)", v1, v2, outcome)
	}
	if other, _ := base.View(ectx.WithMinProb(0.5), false); other == v1 {
		t.Fatal("two contexts share one view")
	}
	// Another reference chronon is another context.
	if ex := diffOneAt(t, ctx, plain, cat, engines, temporal.MustDate("01/01/1990")); ex.View == "" {
		t.Fatal("a query at another reference chronon answered from the snapshot")
	}
	// Swapping the catalog entry rebuilds the snapshot, and its views with it.
	cat["gen"] = casestudy.MustGenerate(casestudy.DefaultGen())
	if ex := diffOne(t, ctx, asof, cat, engines); ex.View != storage.ViewBuilt {
		t.Fatalf("after a catalog swap: view=%q, want built", ex.View)
	}
	if swapped, _ := engines.EngineFor(ctx, "gen"); swapped == base {
		t.Fatal("engine not rebuilt after catalog swap")
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
// dispatches to spends, so admission-control sizing transfers unchanged —
// on the engine itself and on a context view of it, where the count is of
// the facts the context admits.
func TestBudgetParity(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	base, err := engines.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	const budget = int64(1 << 40)
	at := temporal.MustDate("15/06/1988")
	view, _ := base.View(dimension.CurrentContext(testRef).AtValid(at), false)
	spent := map[string]int64{}
	for clause, eng := range map[string]*storage.Engine{"": base, ` ASOF VALID '15/06/1988'`: view} {
		pctx := qos.WithFactBudget(context.Background(), budget)
		if _, err := ExecContext(pctx, `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`+clause, cat, testRef, engines); err != nil {
			t.Fatal(err)
		}
		plannedSpent := qos.BudgetFrom(pctx).Spent()

		kctx := qos.WithFactBudget(context.Background(), budget)
		if _, err := eng.CountDistinctByContext(kctx, casestudy.DimDiagnosis, casestudy.CatGroup); err != nil {
			t.Fatal(err)
		}
		kernelSpent := qos.BudgetFrom(kctx).Spent()

		if plannedSpent != kernelSpent {
			t.Fatalf("%q: planned spent %d, kernel spent %d", clause, plannedSpent, kernelSpent)
		}
		if plannedSpent == 0 {
			t.Fatalf("%q: planned query spent no budget", clause)
		}
		spent[clause] = plannedSpent
	}
	if spent[""] <= spent[` ASOF VALID '15/06/1988'`] {
		t.Fatalf("the timeslice spent %v: it should count fewer facts than the current context", spent)
	}
}

// TestBudgetExhaustion drives a planned query into a tiny budget on every
// shape — on the engine and on context views — and requires a
// resource-exhausted error, not a partial result, worded by the shape that
// ran: the view changes which facts are counted, not who reports them.
func TestBudgetExhaustion(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	// The engine and its views are built under the tiny budget: a build
	// charges none, so every query below exhausts in its own scan.
	const exhausted = `resource limit exhausted: scanned more than the allowed facts`
	for _, c := range []struct{ src, text string }{
		{`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, `query: storage: count-distinct Diagnosis/Diagnosis Group: ` + exhausted},
		{`SELECT SETCOUNT(*) FROM gen`, `query: ` + exhausted},
		{`SELECT AVG(Age) FROM gen WHERE Age >= 0 GROUP BY Residence."Region"`, `query: storage: aggregate Residence/Region: ` + exhausted},
		{`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`, `query: ` + exhausted},
		{`SELECT FACTS FROM gen`, `query: ` + exhausted},
	} {
		for _, clause := range []string{"", ` ASOF VALID '15/06/1988'`, ` WITH PROB >= 0.95`} {
			src := c.src + clause
			ctx, ex := WithExplain(qos.WithFactBudget(context.Background(), 1))
			_, err := ExecContext(ctx, src, cat, testRef, engines)
			if err == nil || !errors.Is(err, qos.ErrResourceExhausted) {
				t.Fatalf("%s: got %v, want resource exhausted", src, err)
			}
			if !strings.HasPrefix(err.Error(), c.text) {
				t.Fatalf("%s: exhausted as %q, want %q…", src, err, c.text)
			}
			if ex.Mode != ModePlanned || (ex.View != "") != (clause != "") {
				t.Fatalf("%s: exhausted on the %s path (view %q), want planned", src, ex.Mode, ex.View)
			}
		}
	}
	ctx := qos.WithFactBudget(context.Background(), 1)
	_, err := ExecContext(ctx, `SELECT EXPECTED(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, cat, testRef, engines)
	if err == nil || !strings.HasPrefix(err.Error(), `query: storage: aggregate Diagnosis/Diagnosis Group: `+exhausted) {
		t.Fatalf("EXPECTED: got %v, want the group fold's exhaustion", err)
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
	// DESCRIBE compiles nothing: it must not pass through the plan
	// executor's point.
	faultinject.Reset()
	faultinject.Enable(faultinject.PlanExec, boom)
	if _, err := ExecContext(context.Background(), `DESCRIBE patients Diagnosis`, cat, testRef, engines); err != nil {
		t.Fatalf("DESCRIBE tripped the plan-exec point: %v", err)
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

// TestExplainOutput pins the explain payload fields per shape, and for a
// query answered from a context view the view's evaluation context and
// whether resolving it built the view or found it cached.
func TestExplainOutput(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	cases := []struct {
		src   string
		shape string
		view  Explain // the view fields expected; zero for an answer from the engine itself
	}{
		{src: `SELECT FACTS FROM gen WHERE Residence = 'R0'`, shape: ShapeFacts},
		{src: `SELECT SETCOUNT(*) FROM gen`, shape: ShapeGlobal},
		{src: `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, shape: ShapeKernelCount},
		{src: `SELECT SUM(Age) FROM gen GROUP BY Residence."Region"`, shape: ShapeKernelSum},
		{src: `SELECT AVG(Age) FROM gen GROUP BY Residence."Region"`, shape: ShapeGroupFold},
		{src: `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`, shape: ShapeCross},
		{src: `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group" ASOF VALID '15/06/1988'`, shape: ShapeKernelCount,
			view: Explain{View: storage.ViewBuilt, AsofValid: "15/06/1988"}},
		{src: `SELECT SUM(Age) FROM gen GROUP BY Residence."Region" ASOF VALID '15/06/1988'`, shape: ShapeKernelSum,
			view: Explain{View: storage.ViewCached, AsofValid: "15/06/1988"}},
		{src: `SELECT FACTS FROM gen ASOF VALID '15/06/1988' ASOF TRANS '01/01/1990' WITH PROB >= 0.95`, shape: ShapeFacts,
			view: Explain{View: storage.ViewBuilt, AsofValid: "15/06/1988", AsofTrans: "01/01/1990", MinProb: 0.95}},
		{src: `SELECT SETCOUNT(*) FROM gen WITH PROB >= 0.95`, shape: ShapeGlobal,
			view: Explain{View: storage.ViewBuilt, MinProb: 0.95}},
		{src: `SELECT EXPECTED(*) FROM gen GROUP BY Diagnosis."Diagnosis Group"`, shape: ShapeGroupFold,
			view: Explain{View: storage.ViewBuilt}},
		{src: `SELECT MINCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`, shape: ShapeCross,
			view: Explain{View: storage.ViewCached}},
	}
	for _, c := range cases {
		ctx, ex := WithExplain(context.Background())
		res, err := ExecContext(ctx, c.src, cat, testRef, engines)
		if err != nil {
			t.Fatal(err)
		}
		if ex.Mode != ModePlanned || ex.Shape != c.shape {
			t.Fatalf("%s: mode=%q shape=%q, want planned/%s", c.src, ex.Mode, ex.Shape, c.shape)
		}
		if ex.Groups != len(res.Rows) && c.shape != ShapeFacts {
			t.Fatalf("%s: groups=%d, rows=%d", c.src, ex.Groups, len(res.Rows))
		}
		if got := (Explain{View: ex.View, AsofValid: ex.AsofValid, AsofTrans: ex.AsofTrans, MinProb: ex.MinProb}); got != c.view {
			t.Fatalf("%s: view fields %+v, want %+v", c.src, got, c.view)
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
