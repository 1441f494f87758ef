// Benchmarks regenerating the experiments of EXPERIMENTS.md. The paper
// itself reports no performance numbers (it is a data-model paper); the
// measurable artifacts are Tables 1–2 and Figures 1–3 — regenerated and
// pinned by tests — plus the design-choice ablations its future-work
// section motivates (B1–B6), benchmarked here.
package mddm_test

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"mddm"
	"mddm/internal/plan"
)

var benchRef = mddm.MustDate("01/01/2026")

func benchCtx() mddm.Context { return mddm.CurrentContext(benchRef) }

func genMO(b *testing.B, patients int, nonStrict, churn bool) *mddm.MO {
	b.Helper()
	cfg := mddm.DefaultGen()
	cfg.Patients = patients
	cfg.NonStrict = nonStrict
	cfg.Churn = churn
	m, err := mddm.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// --- T1/T2/F1/F2/F3: table and figure regeneration --------------------------

func BenchmarkTable1Render(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if mddm.RenderTable1() == "" {
			b.Fatal("empty")
		}
	}
}

func BenchmarkFigure3Example12(b *testing.B) {
	m := mddm.MustPatientMO()
	ctx := mddm.CurrentContext(mddm.MustDate("01/01/1999"))
	spec := mddm.AggSpec{
		ResultDim: "Count",
		Func:      mddm.MustAggFunc("SETCOUNT"),
		GroupBy:   map[string]string{"Diagnosis": "Diagnosis Group"},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := mddm.Aggregate(m, spec, ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// --- B1: pre-aggregation reuse vs recompute ---------------------------------

func BenchmarkPreAggregation(b *testing.B) {
	for _, n := range []int{1000, 5000, 20000} {
		m := genMO(b, n, false, false)
		e := mddm.NewEngine(m, benchCtx())
		cache := mddm.NewPreAggCache(e)
		if _, err := cache.Materialize("Residence", "County", mddm.PreAggCount, ""); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("reuse/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := cache.RollupFrom("Residence", "County", "Region", mddm.PreAggCount, ""); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("base-warm/n=%d", n), func(b *testing.B) {
			// Warm: the engine's closure bitmaps are already memoized.
			for i := 0; i < b.N; i++ {
				e.CountDistinctBy("Residence", "Region")
			}
		})
		b.Run(fmt.Sprintf("base-cold/n=%d", n), func(b *testing.B) {
			// Cold: recomputing from base data includes touching the base
			// relation — the work pre-aggregation exists to avoid.
			for i := 0; i < b.N; i++ {
				cold := mddm.NewEngine(m, benchCtx())
				cold.CountDistinctBy("Residence", "Region")
			}
		})
	}
}

// --- B2: bitmap index vs model-layer scan -----------------------------------

func BenchmarkCharacterization(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		m := genMO(b, n, true, false)
		e := mddm.NewEngine(m, benchCtx())
		e.CountDistinctBy("Diagnosis", "Diagnosis Group") // build closures
		b.Run(fmt.Sprintf("bitmap/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.CountDistinctBy("Diagnosis", "Diagnosis Group")
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.CountDistinctScan("Diagnosis", "Diagnosis Group")
			}
		})
	}
}

// --- B3: strict vs non-strict hierarchy aggregation --------------------------

func BenchmarkHierarchy(b *testing.B) {
	spec := mddm.AggSpec{
		ResultDim: "Count",
		Func:      mddm.MustAggFunc("SETCOUNT"),
		GroupBy:   map[string]string{"Diagnosis": "Diagnosis Group"},
	}
	for _, n := range []int{500, 2000} {
		for _, variant := range []struct {
			name      string
			nonStrict bool
		}{{"strict", false}, {"nonstrict", true}} {
			m := genMO(b, n, variant.nonStrict, false)
			b.Run(fmt.Sprintf("%s/n=%d", variant.name, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mddm.Aggregate(m, spec, benchCtx()); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- B4: timeslice cost vs history length ------------------------------------

func BenchmarkTimeslice(b *testing.B) {
	at := mddm.MustDate("01/01/1995")
	for _, n := range []int{1000, 4000} {
		for _, churn := range []bool{false, true} {
			m := genMO(b, n, false, churn)
			b.Run(fmt.Sprintf("churn=%v/n=%d", churn, n), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := mddm.ValidTimeslice(m, at, benchRef); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// --- B5: algebra operator scaling ---------------------------------------------

func BenchmarkOperators(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		m := genMO(b, n, true, false)
		m.SetKind(mddm.Snapshot)
		half := mddm.Select(m, mddm.NumericCmp("Age", mddm.LT, 50), benchCtx())
		b.Run(fmt.Sprintf("select/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mddm.Select(m, mddm.NumericCmp("Age", mddm.GE, 50), benchCtx())
			}
		})
		b.Run(fmt.Sprintf("project/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mddm.Project(m, "Diagnosis"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("union/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mddm.Union(m, half); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("difference/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mddm.Difference(m, half); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("aggregate/n=%d", n), func(b *testing.B) {
			spec := mddm.AggSpec{
				ResultDim: "Count",
				Func:      mddm.MustAggFunc("SETCOUNT"),
				GroupBy:   map[string]string{"Residence": "Region"},
			}
			for i := 0; i < b.N; i++ {
				if _, err := mddm.Aggregate(m, spec, benchCtx()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B6: query end-to-end -------------------------------------------------------

func BenchmarkQuery(b *testing.B) {
	const q = `SELECT SETCOUNT(*) AS N FROM patients WHERE Age >= 40 GROUP BY Residence."Region"`
	for _, n := range []int{500, 2000, 8000} {
		cat := mddm.QueryCatalog{"patients": genMO(b, n, true, false)}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mddm.ExecQuery(q, cat, benchRef); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	b.Run("parse-only", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mddm.ParseQuery(q); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// --- Engine build cost (ablation: index construction amortization) -----------

func BenchmarkEngineBuild(b *testing.B) {
	for _, n := range []int{1000, 8000} {
		m := genMO(b, n, true, false)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mddm.NewEngine(m, benchCtx())
			}
		})
	}
}

// --- Generator throughput (harness overhead reference) ------------------------

func BenchmarkGenerate(b *testing.B) {
	cfg := mddm.DefaultGen()
	cfg.Patients = 1000
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := mddm.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGenerateGC prices the garbage collector's mark work over the
// served MO: one op is one forced full collection with a generated
// 40 k-fact MO live, and objs/fact is the heap objects that MO keeps
// live per fact — the deterministic stand-in for the mark time.
func BenchmarkGenerateGC(b *testing.B) {
	cfg := mddm.DefaultGen()
	cfg.Patients = 40000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	m, err := mddm.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		runtime.GC()
	}
	b.StopTimer()
	runtime.KeepAlive(m)
	b.ReportMetric(float64(after.HeapObjects-before.HeapObjects)/float64(cfg.Patients), "objs/fact")
	b.ReportMetric(float64(after.HeapAlloc-before.HeapAlloc)/float64(cfg.Patients), "B/fact")
}

// --- B7: cube materialization — derive-from-lower vs all-from-base -----------

func BenchmarkCubeMaterialization(b *testing.B) {
	cfg := mddm.DefaultGen()
	cfg.Patients = 5000
	cfg.NonStrict = false
	cfg.Churn = false
	m, err := mddm.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	// The plan (with its summarizability guard) is computed once — it
	// depends only on the hierarchy, not on when the cube is built.
	plan, err := mddm.NewPreAggCache(mddm.NewEngine(m, benchCtx())).PlanCube("Residence", mddm.PreAggCount, "")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("plan-once", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := mddm.NewPreAggCache(mddm.NewEngine(m, benchCtx()))
			if _, err := c.PlanCube("Residence", mddm.PreAggCount, ""); err != nil {
				b.Fatal(err)
			}
		}
	})
	e := mddm.NewEngine(m, benchCtx())
	e.CountDistinctBy("Residence", "Area") // warm the closure index
	b.Run("build-derived", func(b *testing.B) {
		// Higher levels derive from the Area materialization by combining
		// rows through the hierarchy.
		for i := 0; i < b.N; i++ {
			c := mddm.NewPreAggCache(e)
			if _, err := c.BuildCube(plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build-all-from-base", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			c := mddm.NewPreAggCache(e)
			for _, cat := range []string{"Area", "County", "Region"} {
				if _, err := c.Materialize("Residence", cat, mddm.PreAggCount, ""); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// --- B8: width scaling (the paper's hundreds-of-dimensions future work) -------

func BenchmarkWideMO(b *testing.B) {
	for _, nDims := range []int{50, 200} {
		types := make([]*mddm.DimensionType, nDims)
		for i := range types {
			types[i] = mddm.MustDimensionType(fmt.Sprintf("D%03d", i), mddm.Sum, mddm.KindInt, "V")
		}
		s, err := mddm.NewSchema("Wide", types...)
		if err != nil {
			b.Fatal(err)
		}
		m := mddm.NewMO(s)
		for i := 0; i < nDims; i++ {
			d := m.Dimension(fmt.Sprintf("D%03d", i))
			for v := 0; v < 4; v++ {
				if err := d.AddValue("V", fmt.Sprintf("%d", v)); err != nil {
					b.Fatal(err)
				}
			}
		}
		for f := 0; f < 100; f++ {
			id := fmt.Sprintf("f%d", f)
			for i := 0; i < nDims; i++ {
				if err := m.Relate(fmt.Sprintf("D%03d", i), id, fmt.Sprintf("%d", (f+i)%4)); err != nil {
					b.Fatal(err)
				}
			}
		}
		spec := mddm.AggSpec{
			ResultDim: "Sum",
			Func:      mddm.MustAggFunc("SUM"),
			ArgDims:   []string{"D001"},
			GroupBy:   map[string]string{"D000": "V"},
		}
		b.Run(fmt.Sprintf("aggregate/dims=%d", nDims), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := mddm.Aggregate(m, spec, benchCtx()); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- B9: cross tabulation — bitmap intersection vs model-layer scan ----------

func BenchmarkCrossTab(b *testing.B) {
	for _, n := range []int{500, 2000} {
		m := genMO(b, n, true, false)
		e := mddm.NewEngine(m, benchCtx())
		e.CrossCount("Diagnosis", "Diagnosis Group", "Residence", "Region") // warm closures
		b.Run(fmt.Sprintf("bitmap/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.CrossCount("Diagnosis", "Diagnosis Group", "Residence", "Region")
			}
		})
		b.Run(fmt.Sprintf("scan/n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e.CrossCountScan("Diagnosis", "Diagnosis Group", "Residence", "Region")
			}
		})
	}
}

// --- B10: incremental index maintenance vs full rebuild -----------------------

func BenchmarkIncrementalAppend(b *testing.B) {
	cfg := mddm.DefaultGen()
	cfg.Patients = 10000
	base, err := mddm.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("append-one", func(b *testing.B) {
		m := base.Clone()
		e := mddm.NewEngine(m, benchCtx())
		e.CountDistinctBy("Diagnosis", "Diagnosis Group") // warm
		for i := 0; i < b.N; i++ {
			id := fmt.Sprintf("bench%d", i)
			if err := m.Relate("Diagnosis", id, "L0"); err != nil {
				b.Fatal(err)
			}
			if err := m.Relate("Residence", id, "A0"); err != nil {
				b.Fatal(err)
			}
			m.Relation("Age").Add(id, "⊤")
			if err := e.AppendFact(id); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mddm.NewEngine(base, benchCtx())
		}
	})
}

// --- B13 companions: bitmap iteration and column-kernel allocation profiles ---

func BenchmarkIterate(b *testing.B) {
	m := genMO(b, 8000, true, false)
	e := mddm.NewEngine(m, benchCtx())
	bm := e.Characterizing("Diagnosis", "⊤")
	if bm.IsEmpty() {
		b.Fatal("empty universe bitmap")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := 0
		bm.Iterate(func(j int) bool { s += j; return true })
		if s == 0 {
			b.Fatal("no bits visited")
		}
	}
}

func BenchmarkColumnKernels(b *testing.B) {
	for _, n := range []int{2000, 8000} {
		m := genMO(b, n, true, false)
		bitmapEng := mddm.NewEngine(m, benchCtx())
		bitmapEng.CountDistinctBy("Diagnosis", "Low-level Diagnosis") // warm closures
		colEng := mddm.NewEngine(m, benchCtx())
		if err := colEng.WarmColumns(context.Background(), 1); err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("count-bitmap/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bitmapEng.CountDistinctBy("Diagnosis", "Low-level Diagnosis")
			}
		})
		b.Run(fmt.Sprintf("count-column/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := colEng.CountByColumn(context.Background(), "Diagnosis", "Low-level Diagnosis"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sum-bitmap/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := bitmapEng.SumByContext(context.Background(), "Diagnosis", "Low-level Diagnosis", "Age"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("sum-column/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := colEng.SumByColumn(context.Background(), "Diagnosis", "Low-level Diagnosis", "Age"); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("cross-bitmap/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				bitmapEng.CrossCount("Diagnosis", "Diagnosis Family", "Residence", "Area")
			}
		})
		b.Run(fmt.Sprintf("cross-column/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := colEng.CrossCountByColumn(context.Background(), "Diagnosis", "Diagnosis Family", "Residence", "Area"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Strictness probe: the summarizability check's per-query question ----------

// multiFree returns the facts characterized by at most one value of the
// category: a selection that holds no multi-valued fact, so the probe
// must look at every selected fact before it can answer false.
func multiFree(m *mddm.MO, e *mddm.Engine, dim, cat string) *mddm.Bitmap {
	var seen, dup *mddm.Bitmap
	for _, v := range m.Dimension(dim).CategoryAt(cat, benchCtx()) {
		bm := e.Characterizing(dim, v)
		if seen == nil {
			seen, dup = bm.Clone(), bm.Clone().AndNot(bm) // dup starts empty
			continue
		}
		dup.Or(bm.Clone().And(seen))
		seen.Or(bm)
	}
	return seen.Fill().AndNot(dup)
}

func BenchmarkStrictnessProbe(b *testing.B) {
	cfg := mddm.DefaultGen()
	cfg.Patients = 40000
	m, err := mddm.Generate(cfg)
	if err != nil {
		b.Fatal(err)
	}
	e := mddm.NewEngine(m, benchCtx())
	for _, leg := range [][2]string{
		{"Diagnosis", "Diagnosis Group"},
		{"Residence", "Region"},
		{"Diagnosis", "Low-level Diagnosis"},
	} {
		dim, cat := leg[0], leg[1]
		free := multiFree(m, e, dim, cat)
		e.MultiValued(dim, cat, nil) // warm
		if e.MultiValued(dim, cat, free) {
			b.Fatalf("%s/%s: the multi-free selection holds a multi-valued fact", dim, cat)
		}
		for _, s := range []struct {
			name string
			sel  *mddm.Bitmap
		}{{"nil", nil}, {"multi-free", free}} {
			b.Run(fmt.Sprintf("%s/sel=%s", cat, s.name), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					e.MultiValued(dim, cat, s.sel)
				}
			})
		}
	}
}

// --- B18 companion: one delta upgrade of a cached grouped result ---------------

// BenchmarkDeltaUpgrade continues captured partials over a one-fact append
// at 40 k facts: what a read of a cached result an append made stale costs.
// UpgradeResult never mutates the partials it continues, so every
// iteration repeats the same continuation.
func BenchmarkDeltaUpgrade(b *testing.B) {
	m := genMO(b, 40000, true, true)
	cat := mddm.QueryCatalog{"patients": m}
	engines := plan.NewCatalogEngines(cat, benchRef)
	ctx := context.Background()
	eng, err := engines.EngineFor(ctx, "patients")
	if err != nil {
		b.Fatal(err)
	}
	shapes := []struct{ name, src string }{
		{"low-level-desc-limit5", `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Low-level Diagnosis" ORDER BY N DESC LIMIT 5`},
		{"low-level-avg-having-asc-limit3", `SELECT AVG(Age) AS N FROM patients GROUP BY Diagnosis."Low-level Diagnosis" HAVING >= 30 ORDER BY N ASC LIMIT 3`},
		{"area", `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Residence."Area"`},
		{"family-sum", `SELECT SUM(Age) AS N FROM patients GROUP BY Diagnosis."Diagnosis Family"`},
	}
	parts := make([]*plan.Partials, len(shapes))
	for i, s := range shapes {
		cctx, cp := plan.WithCapture(ctx)
		if _, err := plan.ExecContext(cctx, s.src, cat, benchRef, engines); err != nil {
			b.Fatal(err)
		}
		if parts[i] = cp.Partials; parts[i] == nil {
			b.Fatalf("%s: no partials captured", s.name)
		}
	}
	epoch := eng.Epoch()
	for _, rel := range [][2]string{{"Diagnosis", "L0"}, {"Residence", "A0"}, {"Age", "40"}} {
		if err := m.Relate(rel[0], "delta0", rel[1]); err != nil {
			b.Fatal(err)
		}
	}
	if err := eng.AppendFact("delta0"); err != nil {
		b.Fatal(err)
	}
	lo, hi, _, ok := eng.DeltaRange(epoch)
	if !ok || hi-lo != 1 {
		b.Fatalf("delta range [%d, %d) resolved %v, want one fact", lo, hi, ok)
	}
	for i, s := range shapes {
		b.Run(s.name, func(b *testing.B) {
			b.ReportAllocs()
			for n := 0; n < b.N; n++ {
				if _, _, err := plan.UpgradeResult(ctx, eng, parts[i], lo, hi, benchRef); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Result-cache hit: what a repeated dashboard query costs the server ------

// BenchmarkServeHit answers a query text the result cache has seen, on the
// case-study MO: through ServeQuery alone, and through the HTTP handler
// with a fresh request and recorder per iteration.
func BenchmarkServeHit(b *testing.B) {
	const src = `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Group"`
	cat := mddm.NewServeCatalog()
	if err := cat.Register("patients", mddm.MustPatientMO()); err != nil {
		b.Fatal(err)
	}
	s := mddm.NewServeServer(cat, mddm.ServeLimits{ResultCacheBytes: 4 << 20}, mddm.MustDate("01/01/1999"))
	ctx := context.Background()
	if _, _, err := s.ServeQuery(ctx, src); err != nil {
		b.Fatal(err)
	}
	b.Run("ServeQuery", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, out, err := s.ServeQuery(ctx, src); err != nil || !out.CacheHit {
				b.Fatalf("outcome %+v err %v", out, err)
			}
		}
	})
	h := s.Handler()
	target := "/query?q=" + url.QueryEscape(src)
	b.Run("handler", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			w := httptest.NewRecorder()
			h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, target, nil))
			if w.Code != http.StatusOK || w.Header().Get("X-Mddm-Cache") != "hit" {
				b.Fatalf("status %d, X-Mddm-Cache %q", w.Code, w.Header().Get("X-Mddm-Cache"))
			}
		}
	})
}
