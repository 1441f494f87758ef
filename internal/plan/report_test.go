package plan

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// summarizableEngines returns a base engine over a generated MO of 400
// low-level diagnoses and two context views of it: one at a valid-time
// instant, whose dimensions are sliced, and one at a probability
// threshold. With unrolled, the MO has a diagnosis family in no group, so
// Family → Group does not cover (Low-level → Group still does).
func summarizableEngines(t testing.TB, unrolled bool) []*storage.Engine {
	t.Helper()
	cfg := casestudy.DefaultGen()
	cfg.LowLevel = 400
	m := casestudy.MustGenerate(cfg)
	if unrolled {
		if err := m.Dimension(casestudy.DimDiagnosis).AddValue(casestudy.CatFamily, "unrolled"); err != nil {
			t.Fatal(err)
		}
	}
	ectx := dimension.CurrentContext(testRef)
	base := storage.NewEngine(m, ectx)
	sliced, _ := base.View(ectx.AtValid(temporal.MustDate("15/06/1985")), false)
	prob, _ := base.View(ectx.WithMinProb(0.95), false)
	return []*storage.Engine{base, sliced, prob}
}

// TestSummarizableCoveringMemoAllocs gates what the summarizability check
// allocates once an engine has answered it: no hierarchy walk (a walk of
// the 400 low-level diagnoses up to their groups allocates well over a
// hundred times), so a bound that does not depend on the hierarchy's size
// holds, on a base engine and on both kinds of view, for a leg that does
// not cover (its reason text allocated) and one that does — and the
// report is the one the first call gave.
func TestSummarizableCoveringMemoAllocs(t *testing.T) {
	fn := agg.MustLookup("SUM")
	groupBy := map[string]string{casestudy.DimDiagnosis: casestudy.CatGroup}
	uncovered := "hierarchy Diagnosis: category Diagnosis Family does not fully roll up into Diagnosis Group"
	for _, unrolled := range []bool{false, true} {
		for k, eng := range summarizableEngines(t, unrolled) {
			first := checkSummarizable(eng, fn, groupBy, nil)
			var rep agg.Report
			allocs := testing.AllocsPerRun(50, func() {
				rep = checkSummarizable(eng, fn, groupBy, nil)
			})
			t.Logf("unrolled %v, engine %d: %v allocs, reasons %q", unrolled, k, allocs, rep.Reasons)
			if allocs > 16 {
				t.Errorf("unrolled %v, engine %d: %v allocs after the first call, want <= 16", unrolled, k, allocs)
			}
			if !reportsEqual(rep, first) {
				t.Errorf("unrolled %v, engine %d: report %+v, first call gave %+v", unrolled, k, rep, first)
			}
			if slices.Contains(rep.Reasons, uncovered) != unrolled {
				t.Errorf("unrolled %v, engine %d: reasons %q", unrolled, k, rep.Reasons)
			}
		}
	}
}

func reportsEqual(a, b agg.Report) bool {
	return a.Summarizable == b.Summarizable && slices.Equal(a.Reasons, b.Reasons)
}

// TestSummarizableCoveringViewConcurrentFirstUse runs the first covering
// questions of a base engine and of its views from several goroutines at
// once (under -race, the memo's fill is checked), and every goroutine
// gets the report a fresh engine gives.
func TestSummarizableCoveringViewConcurrentFirstUse(t *testing.T) {
	sum := agg.MustLookup("SUM")
	groupBys := []map[string]string{
		{casestudy.DimDiagnosis: casestudy.CatFamily},
		{casestudy.DimDiagnosis: casestudy.CatGroup},
		{casestudy.DimResidence: casestudy.CatRegion, casestudy.DimDiagnosis: casestudy.CatGroup},
	}
	want := map[int][]agg.Report{}
	for k, eng := range summarizableEngines(t, true) {
		for _, g := range groupBys {
			want[k] = append(want[k], checkSummarizable(eng, sum, g, nil))
		}
	}
	engines := summarizableEngines(t, true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k, eng := range engines {
				for j := range groupBys {
					g := groupBys[(j+w)%len(groupBys)]
					if got := checkSummarizable(eng, sum, g, nil); !reportsEqual(got, want[k][(j+w)%len(groupBys)]) {
						t.Errorf("engine %d, %v: report %+v, want %+v", k, g, got, want[k][(j+w)%len(groupBys)])
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// BenchmarkPaperFallbackRotation replays the paper-fallback workload's
// query stream in process on a warm 1 000-fact engine: MEDIAN, ASOF VALID
// (at a seeded random year of 1982–1997, as the workload draws it), WITH
// PROB, EXPECTED, MINCOUNT and MAXCOUNT, each grouped by Diagnosis Group
// and by Region, uncached.
func BenchmarkPaperFallbackRotation(b *testing.B) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 1000
	cat := query.Catalog{"patients": casestudy.MustGenerate(cfg)}
	engines := NewCatalogEngines(cat, testRef)
	r := rand.New(rand.NewSource(31))
	var qs []string
	for len(qs) < 1200 {
		for _, l := range []string{`Diagnosis."Diagnosis Group"`, `Residence."Region"`} {
			qs = append(qs,
				"SELECT MEDIAN(Age) FROM patients GROUP BY "+l,
				"SELECT SETCOUNT(*) FROM patients GROUP BY "+l+fmt.Sprintf(" ASOF VALID '15/06/%d'", 1982+r.Intn(16)),
				"SELECT SETCOUNT(*) FROM patients GROUP BY "+l+" WITH PROB >= 0.95",
				"SELECT EXPECTED(*) FROM patients GROUP BY "+l,
				"SELECT MINCOUNT(*) FROM patients GROUP BY "+l,
				"SELECT MAXCOUNT(*) FROM patients GROUP BY "+l)
		}
	}
	ctx := context.Background()
	for _, q := range qs {
		if _, err := ExecContext(ctx, q, cat, testRef, engines); err != nil {
			b.Fatal(q, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ExecContext(ctx, qs[i%len(qs)], cat, testRef, engines); err != nil {
			b.Fatal(err)
		}
	}
}
