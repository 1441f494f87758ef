package storage

import (
	"context"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"mddm/internal/agg"
	"mddm/internal/faultinject"
	"mddm/internal/obs"
	"mddm/internal/qos"
)

// This file is the engine's one one-leg group-by kernel: every aggregation
// over a single (dimension, category) leg — solo or batched, whole engine
// or an appended range, counts, sums or argument folds — is one call of
// scanLeg. A scan serves a set of members, each a (selection, argument
// dimension, lists-or-Acc) triple, over the dense fact range [lo, hi), and
// fills per member one slot per dictionary value: the number of selected
// facts the value characterizes and, for an argument member, the facts'
// argument values as a list or folded into an agg.Acc. A probability member
// (of a context view's scan) takes, in place of argument values, each
// fact's membership probability P(f ⤳ value); it reads the view's
// per-value probability lists beside the closures, so a scan with one runs
// the bitmap strategy.
//
// The kernel picks one of two strategies from what it can observe:
//
//	column  a built characterization column whose dictionary still matches
//	        the live category and meets the cardinality threshold
//	        (columnFor): scanCodes, per member one ascending per-fact pass
//	        over the codes.
//	bitmap  anything else — no column, a low-cardinality category, or a
//	        category whose values changed since the build: scanClosures, per
//	        live dictionary value and member a popcount or one ascending
//	        iterate of closure ∧ selection. It reads the memoized closures
//	        in place under the engine's read lock; nothing is cloned.
//
// Both strategies visit the facts of a value in ascending dense-index
// order, so they agree element for element: counts are integers, argument
// lists are the values in that order, and an Acc is the left fold over
// that list. Splitting the range composes the same way — scan[0,lo)
// followed by scan[lo,hi) appends to the lists and continues the folds of
// scan[0,hi) — which is what delta maintenance relies on. An Acc is only
// ever continued, never merged: merging two Accs would re-associate the
// float sum.
//
// The scan runs on its caller's goroutine: the query's own or, for a fused
// batch, the batch scheduler's. It charges no fact budget. Callers replay
// the budget from the returned counts with ChargeLeg — per dictionary
// value, Check then Facts(count) — so a query spends the same whichever
// strategy or batch answered it.

// Kernel strategy labels, as reported in LegScan.Kernel, plan.Explain and
// the kind label of mddm_storage_kernel_total.
const (
	KernelColumn = "column"
	KernelBitmap = "bitmap"
)

// mLegScans counts ScanLeg calls: one per query batch, or per solo query.
var mLegScans = obs.NewCounter("mddm_storage_shared_scans_total",
	"One-leg kernel scans run for the planner (one per query batch or solo query).")

// SharedScanMember is one query's slice of a leg scan.
type SharedScanMember struct {
	// ArgDim is the member's argument dimension; "" extracts no arguments.
	ArgDim string
	// Sel is the member's WHERE selection; nil admits every fact.
	Sel *Bitmap
	// ListArgs materializes per-value argument lists for this member
	// instead of Accs — for aggregates that need the values themselves
	// (agg.Func.Fold nil). Ignored when ArgDim is empty and Prob is not set.
	ListArgs bool
	// Prob, when set, makes this a probability member: for every selected
	// fact a value characterizes it folds (or, with ListArgs, lists) the
	// reading Prob.Of(P(f ⤳ value)) of the membership probability, in
	// ascending fact order — what agg.Func.ProbEval is given over the
	// group's sorted members. ArgDim is ignored. Only a context view
	// indexes membership probabilities.
	Prob agg.ProbArg
}

// LegMember is one member's output of a leg scan, full width: one slot per
// dictionary value, zero-count values included.
type LegMember struct {
	// Counts holds the selected facts per value.
	Counts []int64
	// Args holds the per-value argument lists; nil unless ListArgs.
	Args [][]float64
	// Folds holds the per-value argument folds; nil for count-only and
	// list members.
	Folds []agg.Acc

	sel *Bitmap
	av  [][]float64 // the member's measure column; nil extracts nothing
	// A probability member's reading and, per dictionary value, the
	// membership probabilities that are not 1 (nil: all are 1).
	probArg agg.ProbArg
	probs   [][]factProb
}

// LegScan is the output of one leg scan.
type LegScan struct {
	// Values is the value dictionary in CategoryAt order; shared, read-only.
	Values []string
	// Members holds one output per requested member, in request order.
	Members []LegMember
	// Kernel is the strategy that ran: KernelColumn or KernelBitmap.
	Kernel string
}

// topValues is the dictionary of the ⊤ leg: one value, named "".
var topValues = []string{""}

// scanLeg is the kernel: see the file comment. hi is clamped to the fact
// count, so math.MaxInt scans to the end. The empty leg (dim "") is ⊤ —
// the ungrouped aggregate: one value whose closure is every fact, scanned
// by the bitmap strategy like any other closure. An unknown dimension has
// no values and scans nothing.
func (e *Engine) scanLeg(ctx context.Context, dim, cat string, lo, hi int, members []SharedScanMember) (LegScan, error) {
	g := qos.NewGuard(ctx)
	if err := g.CheckNow(); err != nil {
		return LegScan{}, err
	}
	if err := faultinject.Check(faultinject.KernelScan); err != nil {
		return LegScan{}, fmt.Errorf("storage: scan %s/%s: %w", dim, cat, err)
	}
	out := LegScan{Kernel: KernelBitmap, Members: make([]LegMember, len(members))}
	answered := mKernelBitmap
	top, d := dim == "", e.Dimension(dim)
	if !top && d == nil {
		return out, nil
	}
	probs := false
	for _, m := range members {
		if m.Prob != agg.ProbNone {
			probs = true
		} else if m.ArgDim != "" {
			e.ensureArgValues(m.ArgDim)
		}
	}
	if probs && e.view == nil {
		return LegScan{}, fmt.Errorf("storage: scan %s/%s: membership probabilities are indexed by context views only", dim, cat)
	}
	var col *column
	if !top && !probs {
		col = e.columnFor(dim, cat)
	}
	if top {
		out.Values = topValues
	} else if col != nil {
		out.Kernel, out.Values, answered = KernelColumn, col.vals, mKernelColumn
	} else {
		out.Values = e.categoryValues(d, cat)
		if err := e.ensureClosures(g, dim, out.Values); err != nil {
			return LegScan{}, err
		}
	}
	nv := len(out.Values)

	// One consistent snapshot: the fact count, the measure columns and the
	// codes (or, for the bitmap strategy, the whole scan) under one reader
	// lock, so every member sees the same fact universe.
	e.mu.RLock()
	for k, m := range members {
		om := &out.Members[k]
		om.sel, om.Counts = m.Sel, make([]int64, nv)
		if m.Prob != agg.ProbNone {
			om.probArg = m.Prob
			if !top { // every fact is in ⊤ with probability 1
				om.probs = e.legProbs(dim, out.Values)
			}
		} else if m.ArgDim != "" {
			om.av = e.argCols[m.ArgDim]
		}
		if m.Prob != agg.ProbNone || m.ArgDim != "" {
			if m.ListArgs {
				om.Args = make([][]float64, nv)
			} else {
				om.Folds = make([]agg.Acc, nv)
			}
		}
	}
	lo, hi = max(lo, 0), min(hi, len(e.order))
	var err error
	if col != nil {
		// The column's slices are append-only: the headers snapshotted here
		// stay immutable while the scan runs lock-free.
		codes, over := col.codes, col.over
		e.mu.RUnlock()
		for k := range out.Members {
			if err = scanCodes(g, codes, over, lo, hi, &out.Members[k]); err != nil {
				break
			}
		}
	} else {
		var closures []*Bitmap
		if top {
			closures = []*Bitmap{NewBitmap(hi).Fill()}
		} else {
			closures = e.closuresLocked(dim, out.Values)
		}
		err = scanClosures(g, closures, lo, hi, out.Members)
		e.mu.RUnlock()
	}
	if err != nil {
		return LegScan{}, err
	}
	answered.Add(int64(len(members)))
	return out, nil
}

// scanCodes is the column strategy's one loop: it folds codes[lo:hi) into
// the (zeroed) slots of one member, polling g every checkStride facts.
//
// A count-only or list member counts first. Integer tallies are
// order-free, so two flat passes — the dense codes, then the overflow
// entries of the range directly — do without the per-fact cursor the
// argument order needs. Both sentinels sit at the top of the uint32 range,
// so c < colMulti admits exactly the real value-ids. The counts size the
// lists, cut from one slab, so appending does not regrow them (a fact with
// several argument values still may).
//
// An argument member then makes one pass in ascending fact order — the
// order Bitmap.Iterate visits a closure in — that decodes each selected
// fact to its value-id, or to the overflow entries of a many-to-many fact,
// and appends the fact's argument values to those lists, or folds them
// (and counts the fact) into those Accs.
func scanCodes(g *qos.Guard, codes []uint32, over []OverflowEntry, lo, hi int, m *LegMember) error {
	counts, sel, av, lists, folds := m.Counts, m.sel, m.av, m.Args, m.Folds
	if folds == nil {
		for clo := lo; clo < hi; clo += checkStride {
			if err := g.CheckNow(); err != nil {
				return err
			}
			for i, c := range codes[clo:min(clo+checkStride, hi)] {
				if c < colMulti && (sel == nil || sel.Has(clo+i)) {
					counts[c]++
				}
			}
		}
		for k, ke := overStart(over, lo), overStart(over, hi); k < ke; k++ {
			if sel == nil || sel.Has(over[k].Fact) {
				counts[over[k].Vid]++
			}
		}
		if lists == nil {
			return nil
		}
		total := int64(0)
		for _, c := range counts {
			total += c
		}
		slab := make([]float64, total)
		for vid, c := range counts {
			if c > 0 {
				lists[vid] = slab[:0:c]
				slab = slab[c:]
			}
		}
	}
	add := func(vid uint32, i int) {
		if lists != nil {
			if i < len(av) {
				lists[vid] = append(lists[vid], av[i]...)
			}
			return
		}
		counts[vid]++
		if i < len(av) {
			for _, x := range av[i] {
				folds[vid].Add(x)
			}
		}
	}
	oc := overStart(over, lo)
	for i := lo; i < hi; i++ {
		if i&(checkStride-1) == 0 {
			if err := g.CheckNow(); err != nil {
				return err
			}
		}
		c := codes[i]
		if c == colNone || (sel != nil && !sel.Has(i)) {
			continue
		}
		if c != colMulti {
			add(c, i)
			continue
		}
		for oc < len(over) && over[oc].Fact < i {
			oc++
		}
		for ; oc < len(over) && over[oc].Fact == i; oc++ {
			add(over[oc].Vid, i)
		}
	}
	return nil
}

// scanClosures is the bitmap strategy's one loop, per dictionary value and
// member over closure ∧ selection within [lo, hi): a count-only member
// takes its word-parallel popcount; a list member sizes its list by that
// count and a fold member counts on the way, and both walk the marked
// facts once, in ascending order, to collect or fold their argument
// values. The caller holds the engine's read lock — bms are the memoized
// closures themselves.
func scanClosures(g *qos.Guard, bms []*Bitmap, lo, hi int, ms []LegMember) error {
	scanned := int64(0)
	for j, bm := range bms {
		if err := g.Check(); err != nil {
			return err
		}
		if bm == nil {
			continue
		}
		blo, bhi := bm.clamp(lo, hi)
		if blo >= bhi {
			continue
		}
		scanned++
		for k := range ms {
			m := &ms[k]
			if m.probArg != agg.ProbNone {
				m.scanProbs(bm, blo, bhi, j)
				continue
			}
			sel, av := m.sel, m.av
			if m.Folds != nil {
				// The accumulator stays a local of this loop: folding through
				// an iterate callback costs a fifth more per value.
				var acc agg.Acc
				facts := 0
				for wi := blo >> 6; wi <= (bhi-1)>>6; wi++ {
					w := bm.andWord(sel, wi, blo, bhi)
					facts += bits.OnesCount64(w)
					for ; w != 0; w &= w - 1 {
						if i := wi<<6 + bits.TrailingZeros64(w); i < len(av) {
							for _, x := range av[i] {
								acc.Add(x)
							}
						}
					}
				}
				m.Counts[j], m.Folds[j] = int64(facts), acc
				continue
			}
			c := 0
			if sel != nil {
				c = bm.AndCountRange(sel, blo, bhi)
			} else {
				c = bm.CountRange(blo, bhi)
			}
			m.Counts[j] = int64(c)
			if c == 0 || m.Args == nil {
				continue
			}
			list, ahi := make([]float64, 0, c), min(bhi, len(av))
			for wi := blo >> 6; wi <= (ahi-1)>>6; wi++ {
				for w := bm.andWord(sel, wi, blo, ahi); w != 0; w &= w - 1 {
					list = append(list, av[wi<<6+bits.TrailingZeros64(w)]...)
				}
			}
			m.Args[j] = list
		}
	}
	mBitmapScans.Add(scanned)
	return nil
}

// scanProbs is scanClosures' loop body for a probability member: over the
// facts of closure ∧ selection within [blo, bhi), ascending, it counts and
// folds — or lists — the member's reading of each fact's membership
// probability in value j: 1 unless the value's list says otherwise.
func (m *LegMember) scanProbs(bm *Bitmap, blo, bhi, j int) {
	var list []factProb
	if m.probs != nil {
		list = m.probs[j]
	}
	k := sort.Search(len(list), func(k int) bool { return list[k].fact >= blo })
	one := m.probArg.Of(1)
	var acc agg.Acc
	var ps []float64
	facts := 0
	for wi := blo >> 6; wi <= (bhi-1)>>6; wi++ {
		w := bm.andWord(m.sel, wi, blo, bhi)
		facts += bits.OnesCount64(w)
		for ; w != 0; w &= w - 1 {
			i, x := wi<<6+bits.TrailingZeros64(w), one
			for k < len(list) && list[k].fact < i {
				k++
			}
			if k < len(list) && list[k].fact == i {
				x = m.probArg.Of(list[k].p)
			}
			if m.Args != nil {
				ps = append(ps, x)
			} else {
				acc.Add(x)
			}
		}
	}
	m.Counts[j] = int64(facts)
	if m.Args != nil {
		m.Args[j] = ps
	} else {
		m.Folds[j] = acc
	}
}

// closuresLocked returns the memoized closure bitmap of every value, nil
// where none is memoized (ensureClosures materializes them first). The
// bitmaps are the shared instances: the caller holds e.mu for as long as
// it reads them.
func (e *Engine) closuresLocked(dim string, vals []string) []*Bitmap {
	bms := make([]*Bitmap, len(vals))
	if di := e.dims[dim]; di != nil {
		for j, v := range vals {
			bms[j] = di.closure[v]
		}
	}
	return bms
}

// ChargeLeg replays the one-leg budget sequence against g from a scan's
// full-width counts: per dictionary value, Check then Facts(count). op
// names the charging operation in the exhaustion error ("count-distinct",
// "sum", "aggregate").
func ChargeLeg(g *qos.Guard, op, dim, cat string, counts []int64) error {
	for _, c := range counts {
		if err := g.Check(); err != nil {
			return err
		}
		if err := g.Facts(c); err != nil {
			if dim == "" {
				return err // ⊤ has no leg to name
			}
			return fmt.Errorf("storage: %s %s/%s: %w", op, dim, cat, err)
		}
	}
	return nil
}

// scanOne runs a scan of one member over [lo, hi); the exported one-member
// entry points are adapters over it.
func (e *Engine) scanOne(ctx context.Context, dim, cat string, m SharedScanMember, lo, hi int) ([]string, LegMember, error) {
	s, err := e.scanLeg(ctx, dim, cat, lo, hi, []SharedScanMember{m})
	if err != nil {
		return nil, LegMember{}, err
	}
	return s.Values, s.Members[0], nil
}

// compactLeg drops a member's zero-count values: the surviving values in
// dictionary order, their counts and — for a list member — their argument
// lists (never nil for a surviving value).
func compactLeg(vals []string, m LegMember) (values []string, counts []int, args [][]float64) {
	for j, v := range vals {
		if m.Counts[j] == 0 {
			continue
		}
		values = append(values, v)
		counts = append(counts, int(m.Counts[j]))
		var list []float64
		if m.Args != nil {
			if list = m.Args[j]; list == nil {
				list = []float64{}
			}
		}
		args = append(args, list)
	}
	return values, counts, args
}

// ScanLeg runs one scan of the (dim, cat) leg — or of ⊤, the empty leg —
// for every member at once: the planner's entry to the kernel, where a
// solo query is a batch of one and an ungrouped one a leg of one value. It
// returns the value dictionary and, per member, full-width counts plus
// argument lists (ListArgs members) or Accs, and the strategy that ran.
// The scan charges no fact budget; each member replays its own with
// ChargeLeg.
func (e *Engine) ScanLeg(ctx context.Context, dim, cat string, members []SharedScanMember) (LegScan, error) {
	if dim != "" { // the ⊤ leg has neither a dimension nor a column
		if e.Dimension(dim) == nil {
			return LegScan{}, fmt.Errorf("storage: scan %s/%s: unknown dimension", dim, cat)
		}
		// Build the column — or replace a stale one — when the cost heuristic
		// would select it, so a server that never warmed its columns, or whose
		// category gained a value, still gets the single-pass strategy.
		if err := e.EnsureColumn(ctx, dim, cat); err != nil {
			return LegScan{}, err
		}
	}
	mLegScans.Inc()
	return e.scanLeg(ctx, dim, cat, 0, math.MaxInt, members)
}

// SharedAggregateBy is ScanLeg with the outputs split per kind and without
// the strategy label: per member full-width counts, argument lists
// (ListArgs members) and Accs (accumulator members).
//
// The deg argument is deprecated: ignored — queries run sequentially; kept
// only because bench/ sets it (ROADMAP item 1).
func (e *Engine) SharedAggregateBy(ctx context.Context, dim, cat string, members []SharedScanMember, deg int) (values []string, counts [][]int64, args [][][]float64, folds [][]agg.Acc, err error) {
	s, err := e.ScanLeg(ctx, dim, cat, members)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	counts = make([][]int64, len(members))
	args = make([][][]float64, len(members))
	folds = make([][]agg.Acc, len(members))
	for k, m := range s.Members {
		counts[k], args[k], folds[k] = m.Counts, m.Args, m.Folds
	}
	return s.Values, counts, args, folds, nil
}
