package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"mddm/internal/agg"
	"mddm/internal/batch"
	"mddm/internal/query"
	"mddm/internal/serve"
)

// b19 measures shared-scan batching end to end: a batched planner server
// vs an unbatched one over the same MO, driven by concurrent *similar*
// queries (same grouping leg, different WHERE/aggregate — the shapes the
// result cache cannot dedup). Before any timing, a differential oracle
// proves batched ≡ solo ≡ algebra for every registered aggregate, with
// the batch outcome flag asserted so a silent bypass-to-solo cannot pass
// as a win. Hard gates: batched throughput ≥ 1.5× unbatched at 64
// concurrent similar clients, and the member latency tax at 1× load
// (p999) stays within 3× of solo.
func b19(nFacts int) {
	const (
		clients     = 64 // the saturated phase
		lightLoad   = 4  // the 1× phase
		parallelism = 2
	)
	bg := context.Background()
	m := gen(nFacts, false, false)
	qcat := query.Catalog{"patients": m}
	newServer := func(batching batch.Config) *serve.Server {
		cat := serve.NewCatalog()
		if err := cat.Register("patients", m); err != nil {
			fatal(err)
		}
		return serve.NewServer(cat, serve.Limits{
			Planner:     true,
			Parallelism: parallelism,
			Batching:    batching,
		}, ref)
	}
	solo := newServer(batch.Config{})

	// Calibrate: one solo service time sizes the gather window (a fraction
	// of a scan, so the member tax stays bounded) and the load phases.
	const calQ = `SELECT SETCOUNT(*) AS N FROM patients WHERE Age >= 40 GROUP BY Diagnosis."Diagnosis Group"`
	svc := timed(func() {
		if _, err := solo.Query(bg, calQ); err != nil {
			fatal(err)
		}
	})
	window := svc / 4
	if window < 200*time.Microsecond {
		window = 200 * time.Microsecond
	}
	if window > 2*time.Millisecond {
		window = 2 * time.Millisecond
	}
	batched := newServer(batch.Config{
		Enabled:        true,
		GatherWindow:   window,
		MaxBatch:       32,
		MaxParallelism: parallelism,
	})
	fmt.Printf("B19: shared-scan batching (%d facts, %d similar clients, gather window %v)\n",
		nFacts, clients, window)

	// ------------------------------------------------------------------
	// Differential oracle FIRST: nothing is timed until batched answers
	// are proven bit-identical, and the outcome flags prove the batched
	// path actually ran.
	verified := 0
	for _, name := range agg.Names() {
		fn, err := agg.Lookup(name)
		if err != nil {
			fatal(err)
		}
		arg := "(*)"
		if fn.NeedsArg {
			arg = "(Age)"
		}
		for _, src := range []string{
			fmt.Sprintf(`SELECT %s%s FROM patients GROUP BY Diagnosis."Diagnosis Group"`, name, arg),
			fmt.Sprintf(`SELECT %s%s FROM patients WHERE Age >= 30 GROUP BY Residence."Region"`, name, arg),
		} {
			ctx, bo := serve.WithBatchOutcome(bg)
			rb, errB := batched.Query(ctx, src)
			rs, errS := solo.Query(bg, src)
			ra, errA := query.Exec(src, qcat, ref)
			if (errB == nil) != (errS == nil) || (errB == nil) != (errA == nil) {
				fatal(fmt.Errorf("B19 oracle %s: errs batched=%v solo=%v algebra=%v", src, errB, errS, errA))
			}
			if errB != nil {
				fatal(fmt.Errorf("B19 oracle %s: %v", src, errB))
			}
			jb, _ := json.Marshal(rb)
			js, _ := json.Marshal(rs)
			ja, _ := json.Marshal(ra)
			if !bytes.Equal(jb, js) || !bytes.Equal(jb, ja) {
				fatal(fmt.Errorf("B19 oracle %s: batched diverged:\n batched: %s\n solo:    %s\n algebra: %s",
					src, jb, js, ja))
			}
			// Every aggregate joins a scan: MEDIAN as a list member, the
			// probabilistic functions as probability members of a view's.
			if bo.Outcome != batch.OutcomeLeader && bo.Outcome != batch.OutcomeMember {
				fatal(fmt.Errorf("B19 oracle %s: outcome %q (reason %q) — the batched path silently bypassed",
					src, bo.Outcome, bo.Reason))
			}
			verified++
		}
	}
	fmt.Printf("differential oracle: batched ≡ solo ≡ algebra across %d aggregate/query shapes\n", verified)
	benchRows = append(benchRows, benchRow{Exp: curExp, Op: "oracle-shapes-verified", N: nFacts, Value: float64(verified)})

	// The similar-client rotation: one grouping leg, varying WHERE and
	// aggregate — the same query list, in the same hot-first rank order, as
	// internal/traffic/testdata/b19_similar.json. Clients pick from it with
	// the mix file's declared zipf skew (s=1.3, v=1): dashboard-style
	// traffic concentrates on a hot set, which is exactly what the
	// scheduler's member dedup and shared decode amortize. These are
	// nocache-class queries, so the result cache's single-flight never
	// dedups them — only the batcher can.
	similar := []string{
		`SELECT AVG(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SUM(Age) FROM patients WHERE Residence = 'R0' GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT AVG(Age) FROM patients WHERE Residence = 'R1' GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SUM(Age) FROM patients WHERE Age < 70 GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SETCOUNT(*) FROM patients WHERE Residence = 'R2' GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SETCOUNT(*) FROM patients WHERE Age >= 40 GROUP BY Diagnosis."Diagnosis Group"`,
	}
	loadDur := 100 * svc
	if loadDur < 300*time.Millisecond {
		loadDur = 300 * time.Millisecond
	}
	if loadDur > 1500*time.Millisecond {
		loadDur = 1500 * time.Millisecond
	}

	// runLoad drives `workers` closed-loop clients over the rotation and
	// returns every request's latency with its batch outcome.
	type sample struct {
		el      time.Duration
		outcome batch.Outcome
	}
	runLoad := func(srv *serve.Server, workers int) []sample {
		var mu sync.Mutex
		var all []sample
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				// Per-worker deterministic zipf pick, mirroring the traffic
				// package's picker (seed + worker stride, the mix file's
				// zipf{s:1.3, v:1} over the hot-first query ranks).
				rng := rand.New(rand.NewSource(19 + int64(w)*7919))
				zipf := rand.NewZipf(rng, 1.3, 1, uint64(len(similar)-1))
				var local []sample
				for time.Since(start) < loadDur {
					ctx, bo := serve.WithBatchOutcome(bg)
					t0 := time.Now()
					_, err := srv.Query(ctx, similar[zipf.Uint64()])
					el := time.Since(t0)
					if err != nil {
						fatal(fmt.Errorf("B19 load: %v", err))
					}
					local = append(local, sample{el, bo.Outcome})
				}
				mu.Lock()
				all = append(all, local...)
				mu.Unlock()
			}(w)
		}
		wg.Wait()
		return all
	}
	qps := func(s []sample) float64 { return float64(len(s)) / loadDur.Seconds() }
	latencies := func(s []sample, want batch.Outcome) []time.Duration {
		var ds []time.Duration
		for _, x := range s {
			if want == "" || x.outcome == want {
				ds = append(ds, x.el)
			}
		}
		return ds
	}

	// ------------------------------------------------------------------
	// Saturated phase: 64 concurrent similar clients.
	unbatchedSat := runLoad(solo, clients)
	batchedSat := runLoad(batched, clients)
	uq, bq := qps(unbatchedSat), qps(batchedSat)
	ratio := bq / uq
	st := batched.BatchStats()
	fmt.Printf("%12s %14s %14s %10s\n", "clients", "unbatched", "batched", "ratio")
	fmt.Printf("%12d %12.0f/s %12.0f/s %9.2fx\n", clients, uq, bq, ratio)
	fmt.Printf("scheduler: %d batches, %d members, %d shared-scan savings\n",
		st.Batches, st.Members, st.ScansSaved)
	benchRows = append(benchRows,
		benchRow{Exp: curExp, Op: fmt.Sprintf("unbatched-throughput-%dc", clients), N: nFacts, Value: uq},
		benchRow{Exp: curExp, Op: fmt.Sprintf("batched-throughput-%dc", clients), N: nFacts, Value: bq},
		benchRow{Exp: curExp, Op: "throughput-ratio-batched-vs-unbatched", N: nFacts, Value: ratio},
		benchRow{Exp: curExp, Op: "shared-scan-savings", N: nFacts, Value: float64(st.ScansSaved)},
	)
	if st.ScansSaved == 0 {
		fatal(fmt.Errorf("B19: saturated phase fused nothing — the batcher never batched"))
	}
	if ratio < 1.5 {
		fatal(fmt.Errorf("B19: batched throughput only %.2fx unbatched at %d similar clients, want >= 1.5x", ratio, clients))
	}

	// ------------------------------------------------------------------
	// 1× phase: the member tax. At light load a member pays at most one
	// gather window plus the shared scan; its tail must stay within 3× of
	// an unbatched server under the same load.
	unbatchedLight := runLoad(solo, lightLoad)
	batchedLight := runLoad(batched, lightLoad)
	soloLat := latencies(unbatchedLight, "")
	memberLat := latencies(batchedLight, batch.OutcomeMember)
	if len(memberLat) == 0 {
		fatal(fmt.Errorf("B19: 1x load produced no member outcomes — nothing fused in the light phase"))
	}
	soloP999 := pctlDur(soloLat, 0.999)
	memberP999 := pctlDur(memberLat, 0.999)
	tax := float64(memberP999) / float64(soloP999)
	fmt.Printf("1x load (%d clients): solo p999 %v, member p999 %v (%.2fx, %d members)\n",
		lightLoad, soloP999, memberP999, tax, len(memberLat))
	benchRows = append(benchRows,
		benchRow{Exp: curExp, Op: "solo-p999-1x", N: nFacts,
			NsPerOp: float64(soloP999.Nanoseconds()), Value: float64(len(soloLat))},
		benchRow{Exp: curExp, Op: "member-p999-1x", N: nFacts,
			NsPerOp: float64(memberP999.Nanoseconds()), Value: float64(len(memberLat))},
		benchRow{Exp: curExp, Op: "member-p999-tax-vs-solo", N: nFacts, Value: tax},
	)
	if tax > 3 {
		fatal(fmt.Errorf("B19: member p999 %v is %.2fx solo p999 %v at 1x load, want <= 3x", memberP999, tax, soloP999))
	}
}
