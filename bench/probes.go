package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"mddm/internal/batch"
	"mddm/internal/dimension"
	"mddm/internal/plan"
	"mddm/internal/segment"
	"mddm/internal/storage"
)

const probeRounds = 11

func probe(f func() error) (float64, error) {
	vals := make([]float64, 0, probeRounds)
	for k := 0; k <= probeRounds; k++ {
		t := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		if k > 0 { // the first round warms
			vals = append(vals, float64(time.Since(t).Nanoseconds())/1e3)
		}
	}
	return median(vals), nil
}

// probeKernels times each storage kernel on a fixed leg: the same probes
// on every workload of one data size, so a kernel change shows here
// whatever the traffic was.
func (s *staged) probeKernels(m map[string]float64) error {
	const diag, low, family, group = "Diagnosis", "Low-level Diagnosis", "Diagnosis Family", "Diagnosis Group"
	p, err := plan.PrepareContext(s.ctx, `SELECT AVG(Age) FROM patients WHERE Age >= 40 GROUP BY Diagnosis."Low-level Diagnosis"`, s.cat, refDate, s.engines)
	if err != nil {
		return err
	}
	sel := p.Selection()
	p.Abort()
	n := s.eng.NumFacts()
	probes := []struct {
		name string
		f    func() error
	}{
		{"count_bitmap", func() error { _, err := s.eng.CountDistinctByContext(s.ctx, diag, group); return err }},
		{"count_column", func() error { _, err := s.eng.CountByColumn(s.ctx, diag, low); return err }},
		{"sum_column", func() error { _, err := s.eng.SumByColumn(s.ctx, diag, low, "Age"); return err }},
		{"aggregate_by", func() error { _, _, _, err := s.eng.AggregateBy(s.ctx, diag, low, "Age", sel); return err }},
		{"aggregate_by_range", func() error {
			_, _, _, err := s.eng.AggregateByRange(s.ctx, diag, low, "Age", nil, n-1, n)
			return err
		}},
		{"shared_scan", func() error {
			_, _, _, _, err := s.eng.SharedAggregateBy(s.ctx, diag, low,
				[]storage.SharedScanMember{{ArgDim: "Age", Sel: sel}, {}}, 1)
			return err
		}},
		{"cross_count", func() error {
			_, err := s.eng.CrossCountByColumn(s.ctx, diag, family, "Residence", "Area")
			return err
		}},
	}
	for _, pr := range probes {
		us, err := probe(pr.f)
		if err != nil {
			return fmt.Errorf("kernel probe %s: %w", pr.name, err)
		}
		m["storage.kernel_us."+pr.name] = us
	}
	m["storage.facts_per_us"] = ratio(float64(n), m["storage.kernel_us.count_column"])
	return nil
}

// unloaded is the batch scheduler's load signal at one client: nothing
// in flight, so the gather window is at its shortest.
type unloaded struct{}

func (unloaded) Load() (inflight, limit int) { return 0, admitCeiling }

// probeBatchTax measures what the batch layer costs a query that finds
// nobody to share with: Scheduler.Do with one member plus FinishShared,
// against Prepared.Execute of the same query.
func (s *staged) probeBatchTax(samples sampleSet) error {
	sched := batch.New(batchConfig(), unloaded{})
	var solo, alone []float64
	for _, l := range allLegs {
		for _, q := range []string{
			fmt.Sprintf("SELECT SETCOUNT(*) FROM patients GROUP BY %s", l),
			fmt.Sprintf("SELECT AVG(Age) FROM patients WHERE Age >= 40 GROUP BY %s", l),
		} {
			for round := 0; round < 3; round++ {
				p, err := plan.PrepareContext(s.ctx, q, s.cat, refDate, s.engines)
				if err != nil {
					return err
				}
				t := time.Now()
				if _, err := p.Execute(); err != nil {
					return err
				}
				solo = append(solo, float64(time.Since(t).Nanoseconds())/1e3)

				if p, err = plan.PrepareContext(s.ctx, q, s.cat, refDate, s.engines); err != nil {
					return err
				}
				dim, cat := p.GroupLeg()
				t = time.Now()
				r := sched.Do(batch.Request{Ctx: s.ctx, Engine: p.Engine(), Dim: dim, Cat: cat,
					ArgDim: p.ArgDim(), Sel: p.Selection(), ListArgs: p.NeedsArgLists()})
				if r.Err != nil {
					p.Abort()
					return r.Err
				}
				if _, err := p.FinishShared(r.Values, r.Counts, r.Args, r.Folds); err != nil {
					return err
				}
				alone = append(alone, float64(time.Since(t).Nanoseconds())/1e3)
			}
		}
	}
	samples.add("batch.solo_tax_us", median(alone)-median(solo))
	return nil
}

// segmentProbeAppends is how many appends the segment probe logs before
// it folds, closes and recovers the store.
const segmentProbeAppends = 256

// probeFactBase keeps the probe's fact ids clear of the replayed list's,
// which number their appends by position in the list.
const probeFactBase = 1 << 30

// probeSegment times the persistence layer on the first stack's store:
// durable appends, the fold into a segment, recovery of the directory by
// a fresh process's worth of state, and AppendFact alone on the recovered
// engine.
func probeSegment(ctx context.Context, s *stack, facts int, seed int64, rec *recorder, samples sampleSet, m map[string]float64) error {
	g := newGenerator(seed, ages(s.mo))
	walPath := filepath.Join(s.dir, "wal.log")
	wal0, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	for k := 0; k < segmentProbeAppends; k++ {
		id := rec.begin("segment.append", -1, -1)
		_, err := s.st.AppendSeq(toFactAppend(g.appendRequest(probeFactBase + k)))
		samples.add("segment.append_us", rec.end(id))
		if err != nil {
			return err
		}
	}
	wal1, err := os.Stat(walPath)
	if err != nil {
		return err
	}
	m["segment.wal_bytes_per_append"] = float64(wal1.Size()-wal0.Size()) / segmentProbeAppends
	t := time.Now()
	if err := s.st.Fold(); err != nil {
		return err
	}
	m["segment.fold_ms"] = float64(time.Since(t).Microseconds()) / 1e3
	disk, err := dirBytes(s.dir)
	if err != nil {
		return err
	}
	m["segment.disk_bytes_per_fact"] = float64(disk) / float64(s.eng.NumFacts())
	if err := s.st.Close(); err != nil {
		return err
	}

	base, err := generateMO(facts)
	if err != nil {
		return err
	}
	t = time.Now()
	st, err := segment.Open(s.dir, base, storeOptions)
	if err != nil {
		return err
	}
	eng, err := st.Recover(ctx, dimension.CurrentContext(refDate))
	if err != nil {
		return err
	}
	m["segment.recover_s"] = time.Since(t).Seconds()
	if err := eng.WarmColumns(ctx, columnMinValues); err != nil {
		return err
	}
	if err := st.Close(); err != nil {
		return err
	}
	// The store is closed: the MO and the engine are this function's alone,
	// so AppendFact can be timed without the log in front of it.
	for k := 0; k < segmentProbeAppends; k++ {
		r := g.appendRequest(2*probeFactBase + k)
		for _, p := range r.pairs {
			if err := base.Relate(p.Dim, r.Fact, p.Value); err != nil {
				return err
			}
		}
		t := time.Now()
		if err := eng.AppendFact(r.Fact); err != nil {
			return err
		}
		samples.add("storage.append_us", float64(time.Since(t).Nanoseconds())/1e3)
	}
	return nil
}
