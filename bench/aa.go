package main

import (
	"context"
	"fmt"
	"path/filepath"
	"time"
)

// aaCell is one (workload, metric) pairing of an A/A comparison.
type aaCell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Bound    float64   `json:"bound"`
	MedianA  float64   `json:"median_a"`
	MedianB  float64   `json:"median_b"`
	Worse    float64   `json:"worse"` // share by which set B's median is worse than set A's (negative: better)
	SpreadA  float64   `json:"spread_a"`
	SpreadB  float64   `json:"spread_b"`
	Holds    bool      `json:"holds"`
	ValuesA  []float64 `json:"values_a"`
	ValuesB  []float64 `json:"values_b"`
}

// aaRuns is the number of runs per workload per set, each with its own
// seed: the acceptance check is defined on two sets of ten.
const aaRuns = 10

// runAA is the benchmark's own acceptance check, the same one a change is
// later judged by: two sets of runs of the same code, every run with its
// own seed, workload order alternated between rounds. A metric holds its
// bound when each set's interquartile spread (as a share of its median)
// stays within the bound and the second set's median is not worse than
// the first's by more than the bound. setup_s is exempt from the spread
// rule, as in the driver.
func (e *env) runAA(ctx context.Context, seed int64, length time.Duration) error {
	values := [2]map[string]map[string][]float64{{}, {}}
	for set := 0; set < 2; set++ {
		for r := 0; r < aaRuns; r++ {
			order := make([]*workload, len(workloads))
			for i := range workloads {
				order[i] = &workloads[i]
				if (set+r)%2 == 1 {
					order[i] = &workloads[len(workloads)-1-i]
				}
			}
			for _, w := range order {
				s := seed + int64(set*aaRuns+r)
				res, err := e.runE2E(ctx, w, s, length)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", w.name, s, err)
				}
				if res.failed > 0 {
					return fmt.Errorf("%s seed %d: %d of %d requests failed or were wrong", w.name, s, res.failed, res.attempted)
				}
				if values[set][w.name] == nil {
					values[set][w.name] = map[string][]float64{}
				}
				for _, m := range e2eMetrics {
					values[set][w.name][m.name] = append(values[set][w.name][m.name], res.metrics[m.name])
				}
				fmt.Printf("set %s run %d/%d %-15s seed %d done\n", string(rune('A'+set)), r+1, aaRuns, w.name, s)
			}
		}
	}
	var cells []aaCell
	allHold := true
	fmt.Printf("\n%-15s %-24s %12s %12s %8s %8s %8s %7s\n", "workload", "metric", "median A", "median B", "worse", "spreadA", "spreadB", "bound")
	for i := range workloads {
		w := &workloads[i]
		for _, m := range e2eMetrics {
			a, b := values[0][w.name][m.name], values[1][w.name][m.name]
			c := aaCell{Workload: w.name, Metric: m.name, Unit: m.unit, Bound: m.bound,
				MedianA: median(a), MedianB: median(b), SpreadA: spread(a), SpreadB: spread(b), ValuesA: a, ValuesB: b}
			c.Worse = (c.MedianB - c.MedianA) / c.MedianA
			if m.better == "higher" {
				c.Worse = -c.Worse
			}
			c.Holds = c.Worse <= m.bound && (m.name == "setup_s" || (c.SpreadA <= m.bound && c.SpreadB <= m.bound))
			allHold = allHold && c.Holds
			mark := ""
			if !c.Holds {
				mark = "  <-- does not hold its bound"
			}
			fmt.Printf("%-15s %-24s %12.4f %12.4f %+8.3f %8.3f %8.3f %7.3f%s\n",
				c.Workload, c.Metric, c.MedianA, c.MedianB, c.Worse, c.SpreadA, c.SpreadB, c.Bound, mark)
			cells = append(cells, c)
		}
	}
	out := struct {
		Environment environment `json:"environment"`
		Runs        int         `json:"runs_per_set"`
		Cells       []aaCell    `json:"cells"`
	}{e.environment(length), aaRuns, cells}
	if err := writeJSON(filepath.Join(e.outDir, "aa.json"), out); err != nil {
		return err
	}
	if !allHold {
		return fmt.Errorf("A/A: at least one metric does not hold its bound; widen the bound or steady the metric")
	}
	return nil
}
