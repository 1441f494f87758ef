package plan

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/query"
	"mddm/internal/storage"
)

// deltaFixture builds a strict, churn-free generated MO (so GROUP BY the
// low-level category starts with a clean strictness verdict) plus an
// engine and an appender. The appender relates a new fact to each given
// low-level diagnosis (two lows make the fact multi-valued), optionally
// gives it an Age, and appends it to the engine — MO and engine stay in
// sync, so the algebra recompute remains a valid oracle after appends.
func deltaFixture(t *testing.T, patients int) (query.Catalog, *CatalogEngines, *storage.Engine, func(age int, lows ...string)) {
	t.Helper()
	cfg := casestudy.DefaultGen()
	cfg.Patients = patients
	cfg.NonStrict = false
	cfg.Churn = false
	cfg.MixedGranularity = false
	cfg.UncertainFrac = 0
	// One diagnosis per patient: a fact related to several lows would be
	// multi-valued at the low-level category before any append happens.
	cfg.DiagnosesPerPatient = 1
	m := casestudy.MustGenerate(cfg)
	cat := query.Catalog{"gen": m}
	engines := NewCatalogEngines(cat, testRef)
	eng, err := engines.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	appended := 0
	appendFact := func(age int, lows ...string) {
		t.Helper()
		id := fmt.Sprintf("up%d", appended)
		appended++
		for _, low := range lows {
			if err := m.Relate(casestudy.DimDiagnosis, id, low); err != nil {
				t.Fatal(err)
			}
		}
		if age >= 0 {
			ageID, err := casestudy.AddAge(m.Dimension(casestudy.DimAge), age)
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Relate(casestudy.DimAge, id, ageID); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.AppendFact(id); err != nil {
			t.Fatal(err)
		}
	}
	return cat, engines, eng, appendFact
}

// capturePartials runs src through the planner with a capture sink and
// requires the query to have produced upgradeable partials.
func capturePartials(t *testing.T, src string, cat query.Catalog, engines Engines) (*query.Result, *Partials) {
	t.Helper()
	cctx, cp := WithCapture(context.Background())
	res, err := ExecContext(cctx, src, cat, testRef, engines)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	if cp.Partials == nil {
		t.Fatalf("%s: no partials captured", src)
	}
	return res, cp.Partials
}

// upgradeOnce resolves the delta range since epoch and continues the
// partials over it, requiring the journal lookup to succeed.
func upgradeOnce(t *testing.T, eng *storage.Engine, p *Partials, epoch uint64) (*query.Result, *Partials, uint64) {
	t.Helper()
	lo, hi, cur, ok := eng.DeltaRange(epoch)
	if !ok {
		t.Fatalf("DeltaRange(%d) not resolvable", epoch)
	}
	res, next, err := UpgradeResult(context.Background(), eng, p, lo, hi, testRef)
	if err != nil {
		t.Fatal(err)
	}
	return res, next, cur
}

// requireMatchesAlgebra recomputes src from scratch on the algebra path
// and requires the upgraded result to be identical — the same oracle the
// planner differential suite uses, applied to a continued fold.
func requireMatchesAlgebra(t *testing.T, src string, cat query.Catalog, got *query.Result) {
	t.Helper()
	want, err := query.ExecContext(context.Background(), src, cat, testRef)
	if err != nil {
		t.Fatalf("%s: algebra recompute: %v", src, err)
	}
	if !reflect.DeepEqual(got.Columns, want.Columns) {
		t.Fatalf("%s: columns diverged:\n upgraded: %v\n algebra:  %v", src, got.Columns, want.Columns)
	}
	if !reflect.DeepEqual(got.Rows, want.Rows) {
		t.Fatalf("%s: rows diverged (%d vs %d):\n upgraded: %v\n algebra:  %v",
			src, len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	if got.Summarizable != want.Summarizable || !reflect.DeepEqual(got.Reasons, want.Reasons) {
		t.Fatalf("%s: summarizability diverged:\n upgraded: %v %v\n algebra:  %v %v",
			src, got.Summarizable, got.Reasons, want.Summarizable, want.Reasons)
	}
}

// unusedLow returns a low-level diagnosis no captured group references —
// appending a fact there forces the continuation to create a group the
// cached partials never saw.
func unusedLow(t *testing.T, cat query.Catalog, p *Partials, skip map[string]bool) string {
	t.Helper()
	lows := cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	for _, low := range lows {
		if used := groupOf(p, low).Count > 0; !used && !skip[low] {
			return low
		}
	}
	t.Fatal("no unused low-level diagnosis in fixture")
	return ""
}

// groupOf returns the partial of the group with value v, the zero Group
// when the partials hold none.
func groupOf(p *Partials, v string) Group {
	for _, g := range p.Groups {
		if g.Value == v {
			return g
		}
	}
	return Group{}
}

// TestUpgradeResultGlobalShapes continues every globally-grouped
// mergeable function over appended facts — including a fact with no Age,
// so argument extraction skips it — and requires bit-identity with an
// algebra recompute. A second continuation from the returned partials
// proves chaining, and an empty delta range must reproduce the cached
// result verbatim.
func TestUpgradeResultGlobalShapes(t *testing.T) {
	cat, engines, eng, appendFact := deltaFixture(t, 30)
	queries := []string{
		`SELECT SETCOUNT(*) FROM gen`,
		`SELECT SUM(Age) FROM gen`,
		`SELECT AVG(Age) FROM gen`,
		`SELECT COUNT(Age) FROM gen`,
		`SELECT MIN(Age) FROM gen`,
	}
	for _, src := range queries {
		t.Run(src, func(t *testing.T) {
			cached, parts := capturePartials(t, src, cat, engines)
			if parts.Dim != "" {
				t.Fatalf("global shape captured grouping leg %q", parts.Dim)
			}
			epoch := eng.Epoch()

			// Empty range: the continuation is a no-op that must round-trip
			// the cached result exactly.
			noop, _, cur := upgradeOnce(t, eng, parts, epoch)
			if !reflect.DeepEqual(noop.Rows, cached.Rows) {
				t.Fatalf("empty-range upgrade changed rows: %v vs %v", noop.Rows, cached.Rows)
			}

			oldCount := groupOf(parts, "").Count
			for i := 0; i < 5; i++ {
				appendFact(25+7*i, cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)[i])
			}
			appendFact(-1, cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)[5])

			res, next, cur := upgradeOnce(t, eng, parts, cur)
			requireMatchesAlgebra(t, src, cat, res)
			if groupOf(parts, "").Count != oldCount {
				t.Fatalf("upgrade mutated cached partials: count %d -> %d", oldCount, groupOf(parts, "").Count)
			}

			// Chain a second round from the returned partials.
			appendFact(60, cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)[6])
			res2, _, _ := upgradeOnce(t, eng, next, cur)
			requireMatchesAlgebra(t, src, cat, res2)
			_ = res2
		})
	}
}

// TestUpgradeResultGroupedStrict pins the grouped continuation on a
// strict hierarchy: the capture records a clean strictness verdict, the
// delta probe keeps it clean across appends, and facts landing in groups
// the cache never saw create fresh group states — including an
// argument-consuming group whose only fact has no Age, which must be
// withheld from the rows exactly as a recompute withholds it.
func TestUpgradeResultGroupedStrict(t *testing.T) {
	cat, engines, eng, appendFact := deltaFixture(t, 30)

	countSrc := `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`
	_, parts := capturePartials(t, countSrc, cat, engines)
	if parts.MultiValued {
		t.Fatal("strict fixture captured a multi-valued verdict")
	}
	newLow := unusedLow(t, cat, parts, nil)
	epoch := eng.Epoch()
	appendFact(40, newLow)
	res, next, _ := upgradeOnce(t, eng, parts, epoch)
	requireMatchesAlgebra(t, countSrc, cat, res)
	if next.MultiValued {
		t.Fatal("single-valued append flipped the strictness verdict")
	}
	if g := groupOf(next, newLow); g.Count != 1 {
		t.Fatalf("new group %q not merged: %+v", newLow, g)
	}

	avgSrc := `SELECT AVG(Age) FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`
	_, avgParts := capturePartials(t, avgSrc, cat, engines)
	withAge := unusedLow(t, cat, avgParts, nil)
	noAge := unusedLow(t, cat, avgParts, map[string]bool{withAge: true})
	epoch = eng.Epoch()
	appendFact(33, withAge)
	appendFact(-1, noAge)
	avgRes, avgNext, _ := upgradeOnce(t, eng, avgParts, epoch)
	requireMatchesAlgebra(t, avgSrc, cat, avgRes)
	if g := groupOf(avgNext, noAge); g.Count != 1 {
		t.Fatalf("age-less group %q not tracked in partials: %+v", noAge, g)
	}
	for _, row := range avgRes.Rows {
		if row[0] == noAge {
			t.Fatalf("group %q has no argument values but produced row %v", noAge, row)
		}
	}
}

// TestUpgradeResultMultiValuedFlip appends one fact characterized by two
// low-level diagnoses: the delta strictness probe must flip the cached
// verdict, the upgraded result must carry the non-strictness reason, and
// the whole thing must still match a recompute bit for bit.
func TestUpgradeResultMultiValuedFlip(t *testing.T) {
	cat, engines, eng, appendFact := deltaFixture(t, 30)
	src := `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`
	_, parts := capturePartials(t, src, cat, engines)
	if parts.MultiValued {
		t.Fatal("strict fixture captured a multi-valued verdict")
	}
	lows := cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	epoch := eng.Epoch()
	appendFact(50, lows[0], lows[1])
	res, next, _ := upgradeOnce(t, eng, parts, epoch)
	requireMatchesAlgebra(t, src, cat, res)
	if !next.MultiValued {
		t.Fatal("two-valued append did not flip the strictness verdict")
	}
	if res.Summarizable {
		t.Fatal("non-strict grouping reported summarizable")
	}
	found := false
	for _, r := range res.Reasons {
		if strings.Contains(r, "non-strict") {
			found = true
		}
	}
	if !found {
		t.Fatalf("upgraded reasons missing the strictness text: %v", res.Reasons)
	}

	// Once flipped, the verdict is sticky: the next continuation keeps it
	// without re-probing.
	epoch = eng.Epoch()
	appendFact(51, lows[2])
	res2, next2, _ := upgradeOnce(t, eng, next, epoch)
	requireMatchesAlgebra(t, src, cat, res2)
	if !next2.MultiValued {
		t.Fatal("strictness verdict lost on the second continuation")
	}
}

// TestUpgradeResultSelectionAndErrors pins the selection-bearing paths:
// an empty selection stays an empty (nil-row) result through a
// continuation, and a WHERE recompile failure surfaces as an error
// instead of a wrong answer.
func TestUpgradeResultSelectionAndErrors(t *testing.T) {
	cat, engines, eng, appendFact := deltaFixture(t, 20)
	lows := cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)

	emptySrc := `SELECT SUM(Age) FROM gen WHERE Age >= 200`
	_, parts := capturePartials(t, emptySrc, cat, engines)
	epoch := eng.Epoch()
	appendFact(45, lows[0])
	res, _, _ := upgradeOnce(t, eng, parts, epoch)
	requireMatchesAlgebra(t, emptySrc, cat, res)
	if res.Rows != nil {
		t.Fatalf("empty selection produced rows: %v", res.Rows)
	}

	whereSrc := `SELECT SETCOUNT(*) FROM gen WHERE Residence = 'R0'`
	_, wparts := capturePartials(t, whereSrc, cat, engines)
	epoch = eng.Epoch()
	appendFact(46, lows[1])
	lo, hi, _, ok := eng.DeltaRange(epoch)
	if !ok {
		t.Fatal("delta range not resolvable")
	}
	boom := errors.New("injected closure fault")
	faultinject.Enable(faultinject.ClosureExpand, boom)
	defer faultinject.Reset()
	if _, _, err := UpgradeResult(context.Background(), eng, wparts, lo, hi, testRef); !errors.Is(err, boom) {
		t.Fatalf("WHERE recompile fault not surfaced: %v", err)
	}
	faultinject.Reset()

	// With the fault cleared the same continuation succeeds and matches.
	res2, _, err := UpgradeResult(context.Background(), eng, wparts, lo, hi, testRef)
	if err != nil {
		t.Fatal(err)
	}
	requireMatchesAlgebra(t, whereSrc, cat, res2)
}

// fractionalFixture builds a sales MO whose measure is not integer-valued
// — the fractions of storage's fractionalAges: thirds, sevenths and
// 1e-9-scale terms over magnitudes from 1 to 1e9, so any re-association of
// a float fold shows in its last bits — with one leg a column scan answers
// (24 SKUs) and one the bitmap strategy answers (4 brands). Fact ids sort
// in append order, which keeps the algebra's member order the dense order.
// The last SKU starts without facts. The appender adds one sale of a SKU,
// priced by the same formula (or unpriced, for a negative seed).
func fractionalFixture(t *testing.T, sales int) (query.Catalog, *CatalogEngines, *storage.Engine, func(sku, seed int)) {
	t.Helper()
	const skus, brands = 24, 4
	product := dimension.MustDimensionType("Product", dimension.Constant, dimension.KindString, "SKU", "Brand")
	price := dimension.MustDimensionType("Price", dimension.Sum, dimension.KindFloat, "Price")
	m := core.NewMO(core.MustSchema("Sale", product, price))
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	pd := m.Dimension("Product")
	for b := 0; b < brands; b++ {
		must(pd.AddValue("Brand", fmt.Sprintf("brand-%d", b)))
	}
	for s := 0; s < skus; s++ {
		must(pd.AddValue("SKU", fmt.Sprintf("sku-%02d", s)))
		must(pd.AddEdge(fmt.Sprintf("sku-%02d", s), fmt.Sprintf("brand-%d", s%brands)))
	}
	n := 0
	relate := func(sku, seed int) string {
		id := fmt.Sprintf("s%06d", n)
		n++
		must(m.Relate("Product", id, fmt.Sprintf("sku-%02d", sku)))
		if seed >= 0 {
			x := float64(seed+1)/3 + float64(seed)/7 + 1e-9*float64(seed*seed) + float64(seed%5)*1e9
			v := strconv.FormatFloat(x, 'g', -1, 64)
			if !m.Dimension("Price").Has(v) {
				must(m.Dimension("Price").AddValue("Price", v))
			}
			must(m.Relate("Price", id, v))
		}
		return id
	}
	for i := 0; i < sales; i++ {
		relate(i%(skus-1), i)
	}
	cat := query.Catalog{"sales": m}
	engines := NewCatalogEngines(cat, testRef)
	eng, err := engines.EngineFor(context.Background(), "sales")
	must(err)
	return cat, engines, eng, func(sku, seed int) {
		t.Helper()
		must(eng.AppendFact(relate(sku, seed)))
	}
}

// TestUpgradeResultContinuesFolds is the bit-for-bit contract of the one
// partial on a measure whose sums round: for every function with a Fold,
// on ⊤, a column leg and a bitmap leg, k successive appends each followed
// by an UpgradeResult of the previous round's partials equal the algebra's
// recompute — a group first seen in a delta and an unpriced fact included.
// The cached partials are values: upgrading twice from the first round's
// gives the same answer twice and leaves them as they were captured.
func TestUpgradeResultContinuesFolds(t *testing.T) {
	legs := []struct{ groupBy, kernel string }{
		{``, storage.KernelBitmap}, // ⊤: one closure, every fact
		{` GROUP BY Product."SKU"`, storage.KernelColumn},
		{` GROUP BY Product."Brand"`, storage.KernelBitmap},
	}
	for _, name := range agg.Names() {
		if fn := agg.MustLookup(name); fn.Fold == nil || fn.NeedsProb {
			continue // no constant-size partial, or answered from a view: nothing captured
		}
		for _, leg := range legs {
			src := fmt.Sprintf(`SELECT %s(Price) FROM sales%s`, name, leg.groupBy)
			t.Run(src, func(t *testing.T) {
				cat, engines, eng, sell := fractionalFixture(t, 200)
				cctx, cp := WithCapture(context.Background())
				cctx, ex := WithExplain(cctx)
				if _, err := ExecContext(cctx, src, cat, testRef, engines); err != nil {
					t.Fatal(err)
				}
				if cp.Partials == nil || ex.Kernel != leg.kernel {
					t.Fatalf("partials %v by kernel %q, want captured by %q", cp.Partials, ex.Kernel, leg.kernel)
				}
				first, epoch0 := cp.Partials, eng.Epoch()
				captured := slices.Clone(first.Groups)

				parts, epoch := first, epoch0
				for round := 0; round < 4; round++ {
					for k := 0; k <= round; k++ {
						sell((7*round+k)%23, 1000+31*round+k)
					}
					sell(23, 2000+round) // round 0: a SKU the capture never saw
					sell(round, -1)      // unpriced: counted, no value to fold
					var res *query.Result
					res, parts, epoch = upgradeOnce(t, eng, parts, epoch)
					requireMatchesAlgebra(t, src, cat, res)
				}

				once, _, _ := upgradeOnce(t, eng, first, epoch0)
				requireMatchesAlgebra(t, src, cat, once)
				twice, _, _ := upgradeOnce(t, eng, first, epoch0)
				if !reflect.DeepEqual(once, twice) {
					t.Fatalf("two upgrades of the same partials differ:\n %v\n %v", once.Rows, twice.Rows)
				}
				if !reflect.DeepEqual(first.Groups, captured) {
					t.Fatalf("upgrades mutated the partials they continued:\n captured: %v\n now:      %v", captured, first.Groups)
				}
			})
		}
	}

	// The fixture can see a merge: adding the fold of the appended prices to
	// the fold of the captured ones is not the fold of all of them.
	cat, engines, eng, sell := fractionalFixture(t, 200)
	_, parts := capturePartials(t, `SELECT SUM(Price) FROM sales`, cat, engines)
	epoch := eng.Epoch()
	for k := 0; k < 8; k++ {
		sell(k, 3000+k)
	}
	lo, hi, _, _ := eng.DeltaRange(epoch)
	_, _, delta, err := eng.AggregateByRange(context.Background(), "", "", "Price", nil, lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	var tail agg.Acc
	for _, x := range delta[0] {
		tail.Add(x)
	}
	_, next, _ := upgradeOnce(t, eng, parts, epoch)
	if merged := groupOf(parts, "").Acc.Sum + tail.Sum; merged == groupOf(next, "").Acc.Sum {
		t.Fatal("the measure sums exactly under re-association: the test cannot see a merged partial")
	}
}

// TestCaptureAddsNoLists pins what a delta capture costs a miss: the copy
// of the scan's (count, Acc) per group into the partials' map — not a
// switch of the scan to argument lists (at the parent commit a captured
// SUM over 140 groups of 2000 patients allocated twice the objects and
// twenty times the bytes of an uncaptured one).
func TestCaptureAddsNoLists(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 2000
	cfg.LowLevel = 140
	cat := query.Catalog{"gen": casestudy.MustGenerate(cfg)}
	engines := NewCatalogEngines(cat, testRef)
	const src = `SELECT SUM(Age) FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`
	groups := 0
	run := func(capture bool) float64 {
		return testing.AllocsPerRun(20, func() {
			ctx := context.Background()
			var cp *Capture
			if capture {
				ctx, cp = WithCapture(ctx)
			}
			res, err := ExecContext(ctx, src, cat, testRef, engines)
			if err != nil {
				t.Fatal(err)
			}
			if capture {
				if cp.Partials == nil || len(cp.Partials.Groups) != len(res.Rows) {
					t.Fatalf("captured %v for %d rows", cp.Partials, len(res.Rows))
				}
				groups = len(res.Rows)
			}
		})
	}
	plain, captured := run(false), run(true)
	if groups < 100 {
		t.Fatalf("%d groups: the fixture is too small to tell a per-group list from a constant", groups)
	}
	if captured > plain+float64(groups)+16 {
		t.Fatalf("a captured miss allocates %.0f objects, an uncaptured one %.0f: want at most %d more", captured, plain, groups+16)
	}
}
