package dimension

import (
	"sort"

	"mddm/internal/temporal"
)

// This file implements the hierarchy properties of §3.4 (Definitions 2–3):
// strictness and partitioning, and their snapshot variants. Together with a
// distributive aggregate function they characterize summarizability
// (Lenz & Shoshani).

// IsStrict reports whether the hierarchy in the dimension is strict: for
// every pair of categories C1, C2, a value of C2 is contained in at most
// one value of C1 (Definition 2), evaluated over all time (an edge valid at
// any time counts).
func (d *Dimension) IsStrict() bool {
	return d.strictUnder(Context{})
}

// IsStrictBetween reports whether the mapping from category c2 (finer) to
// category c1 (coarser) is strict.
func (d *Dimension) IsStrictBetween(c2, c1 string, ctx Context) bool {
	for id := range d.catVals[c2] {
		if len(d.AncestorsIn(c1, id, ctx)) > 1 {
			return false
		}
	}
	return true
}

func (d *Dimension) strictUnder(ctx Context) bool {
	cats := d.dtype.CategoryTypes()
	for _, c2 := range cats {
		if c2 == TopName {
			continue
		}
		for _, c1 := range cats {
			if c1 == c2 || c1 == TopName || !d.dtype.LessEq(c2, c1) {
				continue
			}
			if !d.IsStrictBetween(c2, c1, ctx) {
				return false
			}
		}
	}
	return true
}

// IsSnapshotStrict reports whether at every time instant the hierarchy is
// strict (Definition 2). Because annotations are piecewise constant, it
// suffices to test at the critical instants where some annotation starts.
func (d *Dimension) IsSnapshotStrict(ref temporal.Chronon) bool {
	for _, t := range d.criticalInstants(ref) {
		if !d.strictUnder(Context{Ref: ref}.AtValid(t)) {
			return false
		}
	}
	return true
}

// IsPartitioning reports whether the hierarchy is partitioning: every value
// outside ⊤ whose category has immediate predecessor categories other than
// ⊤ is contained in some value of one of them (Definition 3; containment in
// the ⊤ value is implicit, so only non-⊤ predecessor categories constrain).
func (d *Dimension) IsPartitioning() bool {
	return d.partitioningUnder(Context{})
}

func (d *Dimension) partitioningUnder(ctx Context) bool {
	for id, cat := range d.valueCat {
		if id == TopValue {
			continue
		}
		if ctx.Valid != nil && !ctx.Admits(d.memberAt[id]) {
			continue // value not a member at this instant
		}
		preds := d.dtype.Pred(cat)
		constraining := false
		satisfied := false
		for _, p := range preds {
			if p == TopName || !d.categoryInhabited(p, ctx) {
				// A predecessor category with no members (at the evaluation
				// instant) cannot partition anything — the case study's
				// 1970s diagnosis families predate the group level entirely.
				continue
			}
			constraining = true
			if len(d.AncestorsIn(p, id, ctx)) > 0 {
				satisfied = true
				break
			}
		}
		if constraining && !satisfied {
			return false
		}
	}
	return true
}

// categoryInhabited reports whether the category has at least one member
// admitted by the context.
func (d *Dimension) categoryInhabited(cat string, ctx Context) bool {
	for id := range d.catVals[cat] {
		if ctx.Valid == nil || ctx.Admits(d.memberAt[id]) {
			return true
		}
	}
	return false
}

// IsSnapshotPartitioning reports whether at every time instant the
// hierarchy is partitioning (Definition 3).
func (d *Dimension) IsSnapshotPartitioning(ref temporal.Chronon) bool {
	for _, t := range d.criticalInstants(ref) {
		if !d.partitioningUnder(Context{Ref: ref}.AtValid(t)) {
			return false
		}
	}
	return true
}

// criticalInstants collects the distinct resolved start chronons of every
// valid-time interval attached to memberships and order edges. Annotations
// are piecewise constant between consecutive critical instants, so checking
// a property at these instants checks it at all instants where data exists.
func (d *Dimension) criticalInstants(ref temporal.Chronon) []temporal.Chronon {
	set := map[temporal.Chronon]bool{}
	add := func(e temporal.Element) {
		for _, iv := range e.Resolve(ref).Intervals() {
			set[iv.Start] = true
		}
	}
	for _, a := range d.memberAt {
		add(a.Time.Valid)
	}
	for _, es := range d.up {
		for _, e := range es {
			add(e.annot.Time.Valid)
		}
	}
	out := make([]temporal.Chronon, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Covering reports whether every value of category c2 rolls up to at least
// one value of the (coarser) category c1 under the context — the
// "no gaps on this path" condition used by the summarizability checker for
// a specific aggregation path.
func (d *Dimension) Covering(c2, c1 string, ctx Context) bool {
	if c1 == TopName {
		return true
	}
	for id := range d.catVals[c2] {
		if ctx.Valid != nil && !ctx.Admits(d.memberAt[id]) {
			continue
		}
		if !d.reachesCategory(id, c1, ctx) {
			return false
		}
	}
	return true
}

// reachesCategory reports whether AncestorsIn(cat, e1, ctx) is non-empty —
// LessEq(e1, a, ctx) holds for some value a of the category — with one
// upward walk that stops at the first such value, where AncestorsIn walks
// once per value of the category. The walk is LessEq's: edges the context
// admits, along the path of maximum probability, pruned below MinProb.
func (d *Dimension) reachesCategory(e1, cat string, ctx Context) bool {
	if d.valueCat[e1] == cat {
		return ctx.Admits(d.memberAt[e1])
	}
	best := map[string]float64{e1: 1}
	stack := []string{e1}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p := best[n]
		for _, e := range d.up[n] {
			if !ctx.Admits(e.annot) {
				continue
			}
			np := p * e.annot.Prob
			if np < ctx.MinProb || np <= 0 {
				continue
			}
			if old, seen := best[e.other]; !seen || np > old {
				if d.valueCat[e.other] == cat {
					return true
				}
				best[e.other] = np
				stack = append(stack, e.other)
			}
		}
	}
	return false
}
