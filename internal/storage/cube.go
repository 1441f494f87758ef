package storage

import (
	"fmt"
	"strings"

	"mddm/internal/dimension"
)

// This file implements cube materialization over one dimension's category
// lattice: the §3.4 payoff of summarizability is that only a subset of the
// possible aggregates needs precomputing — every category whose mapping
// from a materialized lower category passes the reuse guard can be derived
// on the fly, while "unsafe" categories must be computed from base data.
// The advisor classifies each category; Build materializes accordingly.

// CubePlanEntry is the advisor's verdict for one category.
type CubePlanEntry struct {
	Cat string
	// DeriveFrom is the lower materialized category this category can be
	// safely combined from; empty when it must be computed from base.
	DeriveFrom string
	// Reason explains a from-base verdict (guard failure description).
	Reason string
}

// CubePlan is the materialization plan for one dimension and aggregate
// kind: categories in bottom-up order with their derivation verdicts.
type CubePlan struct {
	Dim     string
	Kind    AggKind
	Arg     string
	Entries []CubePlanEntry
}

// PlanCube classifies every category of the dimension (bottom-up,
// excluding ⊤): the bottom is always computed from base; each higher
// category derives from the highest already-planned category below it that
// passes the reuse guard, otherwise from base.
func (c *Cache) PlanCube(dim string, kind AggKind, arg string) (*CubePlan, error) {
	d := c.engine.Dimension(dim)
	if d == nil {
		return nil, fmt.Errorf("storage: unknown dimension %q", dim)
	}
	dt := d.Type()
	plan := &CubePlan{Dim: dim, Kind: kind, Arg: arg}
	cats := dt.CategoryTypes()
	var planned []string
	for _, cat := range cats {
		if cat == dimension.TopName {
			continue
		}
		entry := CubePlanEntry{Cat: cat}
		if cat != dt.Bottom() {
			// Candidates: already planned categories strictly below cat,
			// most specific (closest) first.
			var best string
			var reason string
			for i := len(planned) - 1; i >= 0; i-- {
				lower := planned[i]
				if !dt.LessEq(lower, cat) || lower == cat {
					continue
				}
				if err := c.guardCached(dim, lower, cat, kind); err != nil {
					reason = err.Error()
					continue
				}
				best = lower
				break
			}
			entry.DeriveFrom = best
			if best == "" {
				entry.Reason = reason
				if reason == "" {
					entry.Reason = "no materialized category below"
				}
			}
		}
		plan.Entries = append(plan.Entries, entry)
		planned = append(planned, cat)
	}
	return plan, nil
}

// BuildCube executes a plan: base categories are materialized directly;
// derivable categories are combined from their source materialization. The
// result maps category → value → aggregate.
func (c *Cache) BuildCube(plan *CubePlan) (map[string]map[string]float64, error) {
	out := map[string]map[string]float64{}
	d := c.engine.Dimension(plan.Dim)
	for _, e := range plan.Entries {
		if e.DeriveFrom == "" {
			m, err := c.Materialize(plan.Dim, e.Cat, plan.Kind, plan.Arg)
			if err != nil {
				return nil, err
			}
			out[e.Cat] = m.Rows
			continue
		}
		src, ok := out[e.DeriveFrom]
		if !ok {
			return nil, fmt.Errorf("storage: plan derives %s from unbuilt %s", e.Cat, e.DeriveFrom)
		}
		rows := map[string]float64{}
		for v, x := range src {
			for _, up := range d.AncestorsIn(e.Cat, v, c.engine.ctx) {
				rows[up] += x
			}
		}
		out[e.Cat] = rows
		c.mu.Lock()
		c.mats[key(plan.Dim, e.Cat, plan.Kind, plan.Arg)] = &Materialization{
			Dim: plan.Dim, Cat: e.Cat, Kind: plan.Kind, Arg: plan.Arg, Rows: rows,
		}
		c.Hits++
		c.mu.Unlock()
	}
	return out, nil
}

// String renders the plan.
func (p *CubePlan) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cube plan for %s (%s", p.Dim, p.Kind)
	if p.Arg != "" {
		fmt.Fprintf(&b, " of %s", p.Arg)
	}
	b.WriteString("):\n")
	for _, e := range p.Entries {
		switch {
		case e.DeriveFrom != "":
			fmt.Fprintf(&b, "  %-24s derive from %s\n", e.Cat, e.DeriveFrom)
		case e.Reason != "":
			fmt.Fprintf(&b, "  %-24s from base (%s)\n", e.Cat, e.Reason)
		default:
			fmt.Fprintf(&b, "  %-24s from base\n", e.Cat)
		}
	}
	return b.String()
}
