package storage

import (
	"context"
	"errors"

	"mddm/internal/exec"
	"mddm/internal/obs"
	"mddm/internal/qos"
)

// This file implements the fused shared-scan kernel behind the batch
// scheduler (internal/batch): one pass that fills the per-group partials
// of several concurrent queries at once. Members split into three classes
// with different cost shapes:
//
//   - Count-only members (no argument dimension) are answered from the
//     closure bitmaps with word-parallel population counts — the exact
//     primitives the solo kernels use (AggregateBy counts |closure ∧ sel|
//     per value). The column build guarantees codes and closures encode
//     the same characterization, so the bitmap counts equal what a decode
//     of the codes array would tally, at a fraction of the work: popcount
//     over n/64 words per value instead of a branch per fact per member.
//
//   - Accumulator members (an argument dimension, ListArgs false) fold
//     their argument values into constant-size per-value FoldAccs with
//     the solo kernel's own iteration: per dictionary value, closure ∧
//     selection, then Bitmap.Iterate in ascending dense-index order. The
//     running sum replays the exact float addition sequence AggregateBy's
//     argument lists would be folded in, so SUM and AVG finalize
//     bit-identically — without materializing a full-width argument list
//     per member per scan, which is what dominated the batched path's
//     profile with allocator and GC work.
//
//   - List members (ListArgs true: delta-capture consumers and aggregates
//     outside the registered accumulator set) still get per-value
//     argument lists in ascending dense-index order, filled by a per-fact
//     pass over the codes array that decodes each fact once and fans it
//     out to the list members only.
//
// Bit-identity with solo execution follows from the shared orders: both
// the accumulator fold and the per-fact pass visit facts in ascending
// dense-index order, so each member's per-value fold or argument list
// matches exactly what Bitmap.Iterate (bitmap kernels) and
// sumColumnRange (column kernels) produce; parallel partitions of the
// list pass merge in ascending partition order, concatenating argument
// sublists so even the float addition order downstream is unchanged.
// Counts and bitmaps are snapshotted under one reader lock, so every
// member of a batch sees one consistent fact universe.
//
// The scan itself charges no fact budget: like closure memoization and
// column builds it is infrastructure work. Every member replays the solo
// budget sequence against its own guard afterwards, so a batched query
// spends exactly what its solo execution would have.

// mSharedScans counts fused shared-scan kernel passes (one per batch).
var mSharedScans = obs.NewCounter("mddm_storage_shared_scans_total",
	"Fused shared-scan kernel passes (one per query batch).")

// ErrSharedScanUnavailable reports that the fused kernel cannot answer
// bit-identically right now — the column is missing or its dictionary is
// stale against the dimension (a value was added after the build). The
// caller runs each member solo instead; this is a bypass, not a failure.
var ErrSharedScanUnavailable = errors.New("storage: shared scan unavailable")

// SharedScanMember is one query's slice of a fused scan.
type SharedScanMember struct {
	// ArgDim is the member's argument dimension; "" extracts no arguments.
	ArgDim string
	// Sel is the member's WHERE selection; nil admits every fact.
	Sel *Bitmap
	// ListArgs materializes per-value argument lists for this member
	// instead of FoldAccs — required by consumers that need the values
	// themselves (delta-capture partials, aggregates outside the
	// accumulator-foldable set). Ignored when ArgDim is empty.
	ListArgs bool
}

// FoldAcc is the constant-size argument fold the shared scan keeps per
// (member, dictionary value): every argument value is folded in the same
// ascending dense-index order the solo kernels' argument lists are built
// in, so Sum replays agg's Eval addition sequence bit-for-bit and
// Min/Max replay its exact comparison ladder (first value seeds, later
// values compare — NaN semantics included).
type FoldAcc struct {
	// N counts argument values folded (len(args) in list terms).
	N int64
	// Sum is the running sum in ascending fold order.
	Sum float64
	// Min and Max are the running extrema; meaningful only when Seen.
	Min, Max float64
	// Seen reports at least one value was folded.
	Seen bool
}

// Add folds one argument value, replaying Eval's arithmetic: the first
// value seeds the extrema (m := vals[0]), later values compare with the
// same strict < / > Eval uses, and the sum accumulates left to right.
func (a *FoldAcc) Add(x float64) {
	a.N++
	a.Sum += x
	if !a.Seen {
		a.Seen, a.Min, a.Max = true, x, x
		return
	}
	if x < a.Min {
		a.Min = x
	}
	if x > a.Max {
		a.Max = x
	}
}

// SharedAggregateBy runs one fused pass for every member at once over the
// characterization of (dim, cat). It returns the value dictionary
// (CategoryAt order, shared — treat as read-only) and, per member,
// full-width per-value fact counts plus either argument lists (ListArgs
// members, indexed by the dictionary) or FoldAccs (accumulator members).
// deg above 1 splits the fact range of the list pass into exec partitions
// merged in ascending order; count and accumulator members are evaluated
// per dictionary value either way, so their outputs are deg-independent
// by construction. The column is built on first use; a column whose
// dictionary went stale (the dimension gained values since the build)
// yields ErrSharedScanUnavailable so members fall back to solo kernels,
// which read the live dictionary.
func (e *Engine) SharedAggregateBy(ctx context.Context, dim, cat string, members []SharedScanMember, deg int) (values []string, counts [][]int64, args [][][]float64, folds [][]FoldAcc, err error) {
	if err := e.BuildColumn(ctx, dim, cat); err != nil {
		return nil, nil, nil, nil, err
	}
	d := e.mo.Dimension(dim)
	if d == nil {
		return nil, nil, nil, nil, ErrSharedScanUnavailable
	}
	catVals := d.CategoryAt(cat, e.ctx)
	g := qos.NewGuard(ctx)
	if err := e.ensureClosures(g, dim, catVals); err != nil {
		return nil, nil, nil, nil, err
	}
	for _, m := range members {
		if m.ArgDim != "" {
			e.ensureArgValues(m.ArgDim)
		}
	}

	// One consistent snapshot: codes, argument columns, and closure bitmap
	// clones all under the same reader lock, so count members (bitmaps) and
	// argument members (codes) tally the same fact universe.
	e.mu.RLock()
	col := e.cols[colKey(dim, cat)]
	if col == nil {
		e.mu.RUnlock()
		return nil, nil, nil, nil, ErrSharedScanUnavailable
	}
	if len(col.vals) != len(catVals) {
		// appendToColumn only admits dictionary values, so a column whose
		// category grew since the build under-codes the newer facts; the
		// solo kernels would see the live value set.
		e.mu.RUnlock()
		return nil, nil, nil, nil, ErrSharedScanUnavailable
	}
	codes, over := col.codes, col.over
	argVals := make([][][]float64, len(members))
	var listMI, accMI []int // argument members by class
	for mi, m := range members {
		if m.ArgDim != "" {
			argVals[mi] = e.argCols[m.ArgDim]
			if m.ListArgs {
				listMI = append(listMI, mi)
			} else {
				accMI = append(accMI, mi)
			}
		}
	}
	di := e.dims[dim]
	bms := make([]*Bitmap, len(col.vals))
	for j, v := range col.vals {
		bm := NewBitmap(len(e.facts))
		if di != nil {
			if c := di.closure[v]; c != nil {
				bm = c.Clone()
			}
		}
		bms[j] = bm
	}
	e.mu.RUnlock()

	n := len(codes)
	nv := len(col.vals)
	counts = make([][]int64, len(members))
	args = make([][][]float64, len(members))
	folds = make([][]FoldAcc, len(members))
	for mi := range members {
		counts[mi] = make([]int64, nv)
	}

	// Count-only members: word-parallel popcounts per dictionary value,
	// bounded to the codes snapshot's universe.
	for mi, m := range members {
		if m.ArgDim != "" {
			continue
		}
		if err := g.Check(); err != nil {
			return nil, nil, nil, nil, err
		}
		for j, bm := range bms {
			if m.Sel != nil {
				counts[mi][j] = int64(bm.AndCountRange(m.Sel, 0, n))
			} else {
				counts[mi][j] = int64(bm.CountRange(0, n))
			}
		}
	}

	// Accumulator members: the solo kernel's own per-value iteration —
	// closure ∧ selection, then an ascending Iterate folding the argument
	// column into the constant-size accumulator. No per-member argument
	// list, no per-fact decode; the fold order is AggregateBy's exactly.
	if len(accMI) > 0 {
		scratch := NewBitmap(n)
		for _, mi := range accMI {
			m := members[mi]
			folds[mi] = make([]FoldAcc, nv)
			av := argVals[mi]
			for j, bm := range bms {
				if err := g.Check(); err != nil {
					return nil, nil, nil, nil, err
				}
				mem := bm
				if m.Sel != nil {
					mem = scratch.AndInto(bm, m.Sel)
				}
				c := mem.CountRange(0, n)
				counts[mi][j] = int64(c)
				if c == 0 {
					continue
				}
				acc := &folds[mi][j]
				mem.IterateRange(0, n, func(i int) bool {
					if i < len(av) {
						for _, x := range av[i] {
							acc.Add(x)
						}
					}
					return true
				})
			}
		}
	}
	// A finished scan counts once, and once per member under the kind of
	// kernel that answered it — the closure bitmaps for count and
	// accumulator members, the codes column for list members — so
	// mddm_storage_kernel_total keeps its meaning when single-leg
	// aggregates arrive batched.
	scanned := func() {
		mSharedScans.Inc()
		mKernelColumn.Add(int64(len(listMI)))
		mKernelBitmap.Add(int64(len(members) - len(listMI)))
	}
	if len(listMI) == 0 {
		scanned()
		return col.vals, counts, args, folds, nil
	}

	// List members: the per-fact pass, restricted to just these members.
	// Filtered views alias the member slots so sharedScanRange writes
	// straight into the right outputs.
	sMembers := make([]SharedScanMember, len(listMI))
	sArgVals := make([][][]float64, len(listMI))
	for k, mi := range listMI {
		sMembers[k] = members[mi]
		sArgVals[k] = argVals[mi]
		args[mi] = make([][]float64, nv)
	}
	// Pre-size every argument list from the bitmap counts so the scan
	// appends without regrowing — append-grown lists thrash the allocator.
	// The count is exact for single-valued argument dimensions and a lower
	// bound otherwise (append still grows past it correctly).
	argCap := func(sel *Bitmap, bm *Bitmap, lo, hi int) int {
		if sel != nil {
			return bm.AndCountRange(sel, lo, hi)
		}
		return bm.CountRange(lo, hi)
	}
	if deg > 1 {
		parts := exec.Partitions(n, deg)
		pCounts := make([][][]int64, len(parts))
		pArgs := make([][][][]float64, len(parts))
		if err := exec.Run(ctx, nil, deg, len(parts), func(p int) error {
			pc := make([][]int64, len(listMI))
			pa := make([][][]float64, len(listMI))
			for k := range listMI {
				pc[k] = make([]int64, nv)
				pa[k] = make([][]float64, nv)
				for j, bm := range bms {
					if c := argCap(sMembers[k].Sel, bm, parts[p].Lo, parts[p].Hi); c > 0 {
						pa[k][j] = make([]float64, 0, c)
					}
				}
			}
			sharedScanRange(codes, over, sMembers, sArgVals, parts[p].Lo, parts[p].Hi, pc, pa)
			pCounts[p], pArgs[p] = pc, pa
			return nil
		}); err != nil {
			return nil, nil, nil, nil, err
		}
		for k, mi := range listMI {
			for j, bm := range bms {
				if c := argCap(sMembers[k].Sel, bm, 0, n); c > 0 {
					args[mi][j] = make([]float64, 0, c)
				}
			}
		}
		for p := range parts {
			for k, mi := range listMI {
				for j := 0; j < nv; j++ {
					counts[mi][j] += pCounts[p][k][j]
					if len(pArgs[p][k][j]) > 0 {
						args[mi][j] = append(args[mi][j], pArgs[p][k][j]...)
					}
				}
			}
		}
	} else {
		sCounts := make([][]int64, len(listMI))
		sArgs := make([][][]float64, len(listMI))
		for k, mi := range listMI {
			sCounts[k] = counts[mi]
			sArgs[k] = args[mi]
			for j, bm := range bms {
				if c := argCap(sMembers[k].Sel, bm, 0, n); c > 0 {
					args[mi][j] = make([]float64, 0, c)
				}
			}
		}
		for lo := 0; lo < n; lo += checkStride {
			if err := g.Check(); err != nil {
				return nil, nil, nil, nil, err
			}
			hi := lo + checkStride
			if hi > n {
				hi = n
			}
			sharedScanRange(codes, over, sMembers, sArgVals, lo, hi, sCounts, sArgs)
		}
	}
	scanned()
	return col.vals, counts, args, folds, nil
}

// sharedScanRange folds codes[lo:hi) into every list member's
// accumulators: one vid decode per fact, then per member a selection test
// and per-vid count/argument appends. Facts run in ascending index order
// so each member's per-value argument list lands in Bitmap.Iterate order.
func sharedScanRange(codes []uint32, over []overPair, members []SharedScanMember,
	argVals [][][]float64, lo, hi int, counts [][]int64, args [][][]float64) {
	oc := overStart(over, lo)
	var buf [8]uint32
	vids := buf[:0]
	for i := lo; i < hi; i++ {
		vids = colVids(codes, over, i, &oc, vids)
		if len(vids) == 0 {
			continue
		}
		for mi := range members {
			if members[mi].Sel != nil && !members[mi].Sel.Has(i) {
				continue
			}
			for _, vid := range vids {
				counts[mi][vid]++
				if av := argVals[mi]; av != nil && i < len(av) {
					for _, x := range av[i] {
						args[mi][vid] = append(args[mi][vid], x)
					}
				}
			}
		}
	}
}
