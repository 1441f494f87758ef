package storage

import (
	"cmp"
	"context"
	"fmt"
	"math/bits"
	"slices"

	"mddm/internal/agg"
	"mddm/internal/qos"
)

// This file implements the cross-tab column kernel: one scan of several
// legs' characterization columns accumulating per cell of their cross
// product. A cell is addressed by the mixed-radix number of its per-leg
// value-ids; a fact belongs to every combination of its per-leg value-ids
// (many-to-many facts expand through the overflow tables) and to none when
// any leg characterizes it by no value. CrossCountByColumn reads the cell
// counts; CrossAggregateBy — the planner's `cross` shape — additionally
// folds an argument column per cell and merges cells holding the same
// member set into one set-valued group, the algebra's group identity. In
// probability mode (a context view's scan) a cell folds, in place of
// argument values, each member's probability of being in the cell — the
// product over the legs of P(f ⤳ value) — and cells never merge: a
// probabilistic result depends on the combination, not only on the members.

// maxCrossColumnCells caps the dense cell index of the cross kernel
// (4 bytes per cell of the legs' cross product, 16 MiB at the cap); larger
// cross products index their touched cells through a map instead. A
// variable so tests can force the map index on small data.
var maxCrossColumnCells uint64 = 1 << 22

// CrossLeg names one grouping leg of a cross-tab.
type CrossLeg struct {
	Dim, Cat string
}

// CrossGroup is one group of a cross aggregation: the facts characterized
// by every one of Values' combinations. CrossAggregateBy reuses the struct
// and its slices between emit calls.
type CrossGroup struct {
	// Values holds, per leg, the group's values of that leg: one each,
	// unless several cells with the same member set merged.
	Values [][]string
	// Count is the number of member facts.
	Count int64
	// Acc folds the members' argument values in ascending fact order.
	Acc agg.Acc
	// Args lists those argument values instead; set only in list mode.
	Args []float64
}

// crossLeg is one leg's column snapshot plus its mixed-radix stride and, in
// probability mode, the leg's membership probabilities that are not 1.
type crossLeg struct {
	vals   []string
	codes  []uint32
	over   []OverflowEntry
	stride uint64
	probs  [][]factProb
}

// cellProb is the probability that fact i is in the cell id: the product,
// in leg order, of its membership probabilities in the cell's values.
func cellProb(legs []crossLeg, i int, id uint64) float64 {
	p := 1.0
	for d := range legs {
		if l := &legs[d]; l.probs != nil {
			p *= probAt(l.probs[id/l.stride%uint64(len(l.vals))], i)
		}
	}
	return p
}

// crossCell accumulates one touched cell.
type crossCell struct {
	id    uint64
	count int64
	// fp sums a 64-bit mix of the member fact indices: order-independent,
	// so equal member sets have equal (count, fp) whatever their fold order.
	fp  uint64
	acc agg.Acc
}

// crossCells is the cell store: touched cells live compactly in cells, in
// first-touch order, behind an id → position+1 index that is a flat array
// while the id space fits maxCrossColumnCells and a map above it.
type crossCells struct {
	cells  []crossCell
	dense  []int32
	sparse map[uint64]int32
}

func newCrossCells(space uint64) *crossCells {
	// Small cross products usually fill: sizing cells for them up front
	// spares the scan its append growth.
	s := &crossCells{cells: make([]crossCell, 0, min(space, 4096))}
	if space <= maxCrossColumnCells {
		s.dense = make([]int32, space)
	} else {
		s.sparse = map[uint64]int32{}
	}
	return s
}

// slot returns the cell's position+1 in cells, 0 when it was never touched.
func (s *crossCells) slot(id uint64) int32 {
	if s.dense != nil {
		return s.dense[id]
	}
	return s.sparse[id]
}

// at returns the cell of id, adding it on first touch. The pointer is
// valid until the next at call.
func (s *crossCells) at(id uint64) *crossCell {
	k := s.slot(id)
	if k == 0 {
		s.cells = append(s.cells, crossCell{id: id})
		k = int32(len(s.cells))
		if s.dense != nil {
			s.dense[id] = k
		} else {
			s.sparse[id] = k
		}
	}
	return &s.cells[k-1]
}

// mix64 is the splitmix64 finalizer.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// liveColumn returns the column of (dim, cat), building it on first use
// whatever the category's cardinality (columnFor's threshold steers only
// the one-leg kernel) and rebuilding it when it is no longer fresh. Nil
// means an unknown dimension.
func (e *Engine) liveColumn(ctx context.Context, dim, cat string) (*column, error) {
	if err := e.BuildColumn(ctx, dim, cat); err != nil {
		return nil, err
	}
	return e.builtColumn(dim, cat), nil
}

// crossSnapshot resolves the legs' live columns and snapshots them, and the
// argument column — or, with probs, the legs' membership probabilities —
// under one reader lock, so every leg covers the same n facts. space is the size of the cells' id space. A nil snapshot means
// the schema lacks a leg's dimension: no fact is in any cell then.
func (e *Engine) crossSnapshot(ctx context.Context, legs []CrossLeg, argDim string, probs bool) (snap []crossLeg, av [][]float64, n int, space uint64, err error) {
	cols := make([]*column, len(legs))
	for d, l := range legs {
		if cols[d], err = e.liveColumn(ctx, l.Dim, l.Cat); err != nil {
			return nil, nil, 0, 0, err
		}
		if cols[d] == nil {
			return nil, nil, 0, 0, nil
		}
	}
	if argDim != "" {
		e.ensureArgValues(argDim)
	}
	snap = make([]crossLeg, len(legs))
	e.mu.RLock()
	n = len(e.order)
	for d, col := range cols {
		snap[d] = crossLeg{vals: col.vals, codes: col.codes, over: col.over}
		if len(col.codes) < n {
			n = len(col.codes)
		}
		if probs {
			snap[d].probs = e.legProbs(legs[d].Dim, col.vals)
		}
	}
	if argDim != "" {
		av = e.argCols[argDim]
	}
	e.mu.RUnlock()
	space = 1
	for d := len(snap) - 1; d >= 0; d-- {
		snap[d].stride = space
		hi, lo := bits.Mul64(space, uint64(len(snap[d].vals)))
		if hi != 0 {
			return nil, nil, 0, 0, fmt.Errorf("storage: cross %v: the cell space overflows 64 bits", legs)
		}
		space = lo
	}
	return snap, av, n, space, nil
}

// scanCross is the kernel's one scan loop: it visits, in ascending fact
// order, every selected fact among the first n that is in some cell, with
// the ids of all its cells — the cross product of its per-leg value-ids,
// expanded leg by leg (a single-valued leg shifts every id, a colMulti leg
// multiplies them through its overflow entries). ids is reused between
// visits.
func scanCross(g *qos.Guard, legs []crossLeg, sel *Bitmap, n int, visit func(i int, ids []uint64)) error {
	ocs := make([]int, len(legs))
	var ids, next []uint64
	for lo := 0; lo < n; lo += checkStride {
		if err := g.CheckNow(); err != nil {
			return err
		}
		hi := lo + checkStride
		if hi > n {
			hi = n
		}
	facts:
		for i := lo; i < hi; i++ {
			if sel != nil && !sel.Has(i) {
				continue
			}
			ids = append(ids[:0], 0)
			for d := range legs {
				l := &legs[d]
				switch c := l.codes[i]; c {
				case colNone:
					continue facts
				case colMulti:
					oc := ocs[d]
					for oc < len(l.over) && l.over[oc].Fact < i {
						oc++
					}
					first := oc
					for oc < len(l.over) && l.over[oc].Fact == i {
						oc++
					}
					ocs[d] = oc
					next = next[:0]
					for _, id := range ids {
						for _, o := range l.over[first:oc] {
							next = append(next, id+uint64(o.Vid)*l.stride)
						}
					}
					ids, next = next, ids
				default:
					for j := range ids {
						ids[j] += uint64(c) * l.stride
					}
				}
			}
			visit(i, ids)
		}
	}
	return nil
}

// crossAccumulate is the kernel's first pass: count, member fingerprint
// and argument fold — with prob set, the fold of the reading of each
// member's cell probability — of every touched cell.
func crossAccumulate(g *qos.Guard, legs []crossLeg, sel *Bitmap, av [][]float64, prob agg.ProbArg, n int, space uint64) (*crossCells, error) {
	cs := newCrossCells(space)
	err := scanCross(g, legs, sel, n, func(i int, ids []uint64) {
		h := mix64(uint64(i))
		var xs []float64
		if i < len(av) {
			xs = av[i]
		}
		for _, id := range ids {
			c := cs.at(id)
			c.count++
			c.fp += h
			if prob != agg.ProbNone {
				c.acc.Add(prob.Of(cellProb(legs, i, id)))
			}
			for _, x := range xs {
				c.acc.Add(x)
			}
		}
	})
	return cs, err
}

// CrossCountByColumn answers CrossCount through the column kernel,
// building both columns first if needed: the unselected, count-only call
// of the cross scan. Budget parity with the bitmap cross-tab crossCount:
// per row value in dictionary order, Check always, then Facts(row fact
// count) for non-empty rows only.
func (e *Engine) CrossCountByColumn(ctx context.Context, dim1, cat1, dim2, cat2 string) ([]CrossCell, error) {
	mKernelColumn.Inc()
	g := qos.NewGuard(ctx)
	legs, _, n, space, err := e.crossSnapshot(ctx, []CrossLeg{{dim1, cat1}, {dim2, cat2}}, "", false)
	if err != nil || legs == nil {
		return nil, err
	}
	cs, err := crossAccumulate(g, legs, nil, nil, agg.ProbNone, n, space)
	if err != nil {
		return nil, err
	}
	row := LegMember{Counts: make([]int64, len(legs[0].vals))}
	if err := scanCodes(g, legs[0].codes, legs[0].over, 0, n, &row); err != nil {
		return nil, err
	}
	for _, c := range row.Counts {
		if err := g.Check(); err != nil {
			return nil, err
		}
		if c == 0 {
			continue
		}
		if err := g.Facts(c); err != nil {
			return nil, fmt.Errorf("storage: cross-count %s/%s: %w", dim1, cat1, err)
		}
	}
	out := make([]CrossCell, 0, len(cs.cells))
	for _, c := range cs.cells {
		out = append(out, CrossCell{
			V1:    legs[0].vals[c.id/legs[0].stride],
			V2:    legs[1].vals[c.id%legs[0].stride],
			Count: int(c.count),
		})
	}
	sortCells(out)
	return out, nil
}

// CrossAggregateBy is the planner's cross-tab kernel: it groups the
// selected facts (every fact when sel is nil) by the cross product of the
// legs' categories and calls emit once per group, in a deterministic
// order, with the group's member count, its argument fold (argDim
// non-empty) and, in list mode, the argument values themselves — all in
// ascending fact order, the algebra's extraction order. Groups follow the
// algebra's aggregate formation exactly: a fact belongs to every
// combination of its per-leg values and is dropped when any leg has none;
// combinations holding the same member set are one set-valued group whose
// Values accumulate per leg. Cells whose (count, fingerprint) is unique
// are their own group; only cells that share both are compared member for
// member, from lists a second scan collects for those cells alone. With
// prob set — on a context view, argDim ignored — every cell is its own
// group (the algebra tags a probabilistic group with its combination) and
// Acc, or Args in list mode, takes prob's reading of each member's
// probability of being in the cell. The scan charges no fact budget — the
// caller's emit charges per group. An emit error stops the kernel and is
// returned as is.
func (e *Engine) CrossAggregateBy(ctx context.Context, legs []CrossLeg, argDim string, sel *Bitmap, listArgs bool, prob agg.ProbArg, emit func(*CrossGroup) error) error {
	mKernelColumn.Inc()
	g := qos.NewGuard(ctx)
	probs := prob != agg.ProbNone
	if probs {
		if e.view == nil {
			return fmt.Errorf("storage: cross %v: membership probabilities are indexed by context views only", legs)
		}
		argDim = ""
	}
	snap, av, n, space, err := e.crossSnapshot(ctx, legs, argDim, probs)
	if err != nil || snap == nil {
		return err
	}
	cs, err := crossAccumulate(g, snap, sel, av, prob, n, space)
	if err != nil {
		return err
	}
	cells := cs.cells

	// Order the cells by (count, fingerprint): equal member sets become
	// adjacent, and a cell differing from both neighbours is a group.
	order := make([]int32, len(cells))
	for k := range order {
		order[k] = int32(k)
	}
	slices.SortFunc(order, func(a, b int32) int {
		ca, cb := &cells[a], &cells[b]
		if c := cmp.Compare(ca.count, cb.count); c != 0 {
			return c
		}
		if c := cmp.Compare(ca.fp, cb.fp); c != 0 {
			return c
		}
		return cmp.Compare(ca.id, cb.id)
	})
	same := func(a, b int) bool {
		ca, cb := &cells[order[a]], &cells[order[b]]
		return !probs && ca.count == cb.count && ca.fp == cb.fp
	}

	// Second scan: member lists for the cells that need them — every cell
	// in list mode, otherwise the colliding ones.
	var members [][]int
	for k := range order {
		if listArgs || (k > 0 && same(k-1, k)) || (k+1 < len(order) && same(k, k+1)) {
			if members == nil {
				members = make([][]int, len(cells))
			}
			members[order[k]] = make([]int, 0, cells[order[k]].count)
		}
	}
	if members != nil {
		if err := scanCross(g, snap, sel, n, func(i int, ids []uint64) {
			for _, id := range ids {
				if k := cs.slot(id) - 1; members[k] != nil {
					members[k] = append(members[k], i)
				}
			}
		}); err != nil {
			return err
		}
	}

	grp := &CrossGroup{Values: make([][]string, len(snap))}
	merged := make([]bool, len(order))
	for a := range order {
		if merged[a] {
			continue
		}
		for d := range grp.Values {
			grp.Values[d] = grp.Values[d][:0]
		}
		ca := &cells[order[a]]
		addCellValues(grp.Values, snap, ca.id)
		// Fingerprints narrow, comparison decides: fold in the later cells
		// of this (count, fingerprint) run whose members equal this one's.
		for b := a + 1; b < len(order) && same(a, b); b++ {
			if !merged[b] && slices.Equal(members[order[a]], members[order[b]]) {
				merged[b] = true
				addCellValues(grp.Values, snap, cells[order[b]].id)
			}
		}
		grp.Count, grp.Acc, grp.Args = ca.count, ca.acc, grp.Args[:0]
		if listArgs {
			for _, i := range members[order[a]] {
				if probs {
					grp.Args = append(grp.Args, prob.Of(cellProb(snap, i, ca.id)))
				} else if i < len(av) {
					grp.Args = append(grp.Args, av[i]...)
				}
			}
		}
		if err := emit(grp); err != nil {
			return err
		}
	}
	return nil
}

// addCellValues adds the cell's per-leg values to the group's per-leg
// value sets.
func addCellValues(values [][]string, legs []crossLeg, id uint64) {
	for d := range legs {
		v := legs[d].vals[id/legs[d].stride%uint64(len(legs[d].vals))]
		if !slices.Contains(values[d], v) {
			values[d] = append(values[d], v)
		}
	}
}
