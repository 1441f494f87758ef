package storage

import (
	"context"
	"fmt"
	"sort"

	"mddm/internal/exec"
	"mddm/internal/obs"
	"mddm/internal/qos"
)

// This file implements characterization columns: a dictionary-encoded
// columnar layout of the characterization relation, built per (dimension,
// category) on top of the memoized closure bitmaps, and single-pass
// group-by kernels over it. The bitmap paths cost
// O(|values(category)| × facts/64) — one closure scan per category value —
// while a column kernel reads the dense fact→value-id codes once and
// accumulates into flat arrays indexed by value-id: O(facts) regardless of
// category cardinality, and cache-friendly. The paper's hard cases map to
// two sentinels: a fact attached above the category (mixed granularity)
// characterizes no value of it and encodes colNone; a many-to-many fact
// carrying several values of the category encodes colMulti and stores its
// value-ids in a compact overflow side-table sorted by (fact, value-id).
//
// Every kernel is bit-identical to the bitmap path it replaces, at every
// parallelism degree, and charges the same qos fact budget: per category
// value, in CategoryAt order, Check then Facts(|facts of value|) — exactly
// the bitmap paths' accounting. Sequential float sums fold per value in
// ascending fact order (the same order Bitmap.Iterate visits); parallel
// sums split on the same exec.Partitions ranges as the bitmap parallel
// path and merge per-partition partials in ascending partition order, so
// the float association is identical too.
//
// Concurrency: columns live behind the engine's RWMutex. Builds take the
// write lock; kernels snapshot the codes and overflow slice headers under
// the read lock and then run lock-free — AppendFact only ever appends to
// these slices (never mutates existing elements), so a snapshot of the
// first n facts stays immutable.

// Kernel-selection and column-maintenance metrics. The kernel counters
// count aggregation calls by the kind of kernel that answered (one per
// CountDistinctByContext / SumByContext / CrossCountContext /
// CrossAggregateBy call, one per member of a SharedAggregateBy scan), so
// the ratio is the share of aggregations the columns carry.
var (
	mKernelColumn = obs.NewCounter("mddm_storage_kernel_total",
		"Aggregation calls answered by kernel kind.", obs.Label{Key: "kind", Value: "column"})
	mKernelBitmap = obs.NewCounter("mddm_storage_kernel_total",
		"Aggregation calls answered by kernel kind.", obs.Label{Key: "kind", Value: "bitmap"})
	mColumnBuilds = obs.NewCounter("mddm_storage_column_builds_total",
		"Characterization columns built (one per dimension-category pair).")
)

const (
	// colNone marks a fact characterized by no value of the column's
	// category — including the mixed-granularity facts attached above it.
	colNone = ^uint32(0)
	// colMulti marks a many-to-many fact whose several value-ids live in
	// the overflow side-table.
	colMulti = ^uint32(0) - 1
)

// DefaultColumnMinValues is the kernel-selection threshold: a built column
// is preferred over per-value bitmap scans when its category has at least
// this many values. Below it, the bitmap path's few popcount scans beat
// the full-column read.
const DefaultColumnMinValues = 16

// overPair is one overflow entry: fact (dense index) carries value-id vid.
// The side-table is sorted by (fact, vid); appends keep the order because
// new facts get the largest dense index.
type overPair struct {
	fact int
	vid  uint32
}

// column is one characterization column for a (dimension, category) pair.
type column struct {
	dim, cat string
	vals     []string          // dictionary: value-id → value, in CategoryAt order
	vid      map[string]uint32 // reverse dictionary
	codes    []uint32          // fact index → value-id, colNone, or colMulti
	over     []overPair        // overflow side-table, sorted by (fact, vid)
}

func colKey(dim, cat string) string { return dim + "\x00" + cat }

// SetColumnMinValues overrides the kernel-selection threshold (0 restores
// DefaultColumnMinValues). It applies to selection and to EnsureColumn's
// build decision.
func (e *Engine) SetColumnMinValues(n int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.colMin = n
}

func (e *Engine) columnMinValuesLocked() int {
	if e.colMin > 0 {
		return e.colMin
	}
	return DefaultColumnMinValues
}

// columnFor returns the built column for (dim, cat) when the cost
// heuristic prefers it: the column exists and its category cardinality
// meets the threshold. Nil means the bitmap path answers.
func (e *Engine) columnFor(dim, cat string) *column {
	e.mu.RLock()
	defer e.mu.RUnlock()
	col := e.cols[colKey(dim, cat)]
	if col == nil || len(col.vals) < e.columnMinValuesLocked() {
		return nil
	}
	return col
}

// PrefersColumn reports whether the one-leg kernels answer (dim, cat) from
// its characterization column: it is built and meets the cardinality
// threshold. The cross kernel builds columns below the threshold too; those
// leave the one-leg calls on the bitmap path.
func (e *Engine) PrefersColumn(dim, cat string) bool {
	return e.columnFor(dim, cat) != nil
}

// HasColumn reports whether a characterization column is built for
// (dim, cat).
func (e *Engine) HasColumn(dim, cat string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.cols[colKey(dim, cat)] != nil
}

// BuildColumn materializes the characterization column of (dim, cat) from
// the closure bitmaps (building any missing ones first). It is idempotent
// and charges no fact budget — like closure memoization, it is
// infrastructure work, so queries cost the same whether they build or
// reuse. Unknown dimensions or categories build an empty column.
func (e *Engine) BuildColumn(ctx context.Context, dim, cat string) error {
	e.mu.RLock()
	built := e.cols[colKey(dim, cat)] != nil
	e.mu.RUnlock()
	if built {
		return nil
	}
	d := e.mo.Dimension(dim)
	if d == nil {
		return nil
	}
	vals := d.CategoryAt(cat, e.ctx)
	if uint64(len(vals)) >= uint64(colMulti) {
		return fmt.Errorf("storage: column %s/%s: %d values exceed the uint32 dictionary", dim, cat, len(vals))
	}
	g := qos.NewGuard(ctx)
	if err := e.ensureClosures(g, dim, vals); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.cols == nil {
		e.cols = map[string]*column{}
	}
	if e.cols[colKey(dim, cat)] != nil {
		return nil
	}
	col := &column{
		dim:   dim,
		cat:   cat,
		vals:  vals,
		vid:   make(map[string]uint32, len(vals)),
		codes: make([]uint32, len(e.facts)),
	}
	for j, v := range vals {
		col.vid[v] = uint32(j)
	}
	for i := range col.codes {
		col.codes[i] = colNone
	}
	di := e.dims[dim]
	for j, v := range vals {
		if err := g.Check(); err != nil {
			return fmt.Errorf("storage: column %s/%s: %w", dim, cat, err)
		}
		var bm *Bitmap
		if di != nil {
			bm = di.closure[v]
		}
		if bm == nil {
			continue
		}
		vid := uint32(j)
		bm.Iterate(func(i int) bool {
			switch col.codes[i] {
			case colNone:
				col.codes[i] = vid
			case colMulti:
				col.over = append(col.over, overPair{fact: i, vid: vid})
			default:
				col.over = append(col.over,
					overPair{fact: i, vid: col.codes[i]},
					overPair{fact: i, vid: vid})
				col.codes[i] = colMulti
			}
			return true
		})
	}
	sort.Slice(col.over, func(a, b int) bool {
		if col.over[a].fact != col.over[b].fact {
			return col.over[a].fact < col.over[b].fact
		}
		return col.over[a].vid < col.over[b].vid
	})
	e.cols[colKey(dim, cat)] = col
	mColumnBuilds.Inc()
	return nil
}

// EnsureColumn builds the column of (dim, cat) when the cost heuristic
// would select it — the category has at least ColumnMinValues values — and
// is a no-op otherwise. Pre-aggregation and the serving layer call it
// before aggregating, so the threshold decides both build and use.
func (e *Engine) EnsureColumn(ctx context.Context, dim, cat string) error {
	d := e.mo.Dimension(dim)
	if d == nil {
		return nil
	}
	e.mu.RLock()
	built := e.cols[colKey(dim, cat)] != nil
	min := e.columnMinValuesLocked()
	e.mu.RUnlock()
	if built || len(d.CategoryAt(cat, e.ctx)) < min {
		return nil
	}
	return e.BuildColumn(ctx, dim, cat)
}

// WarmColumns builds every column the heuristic would select, across all
// dimensions and categories of the schema (threshold override via
// minValues when positive). The serving layer calls it at engine-build
// time so the first query already runs the column kernels.
func (e *Engine) WarmColumns(ctx context.Context, minValues int) error {
	if minValues > 0 {
		e.SetColumnMinValues(minValues)
	}
	for _, dim := range e.mo.Schema().DimensionNames() {
		d := e.mo.Dimension(dim)
		if d == nil {
			continue
		}
		for _, cat := range d.Type().CategoryTypes() {
			if err := e.EnsureColumn(ctx, dim, cat); err != nil {
				return err
			}
		}
	}
	return nil
}

// snapshot captures the column's slice headers under the read lock; the
// slices are append-only, so the first len(codes) facts stay immutable
// while a kernel runs lock-free against them.
func (e *Engine) snapshotColumn(col *column) (codes []uint32, over []overPair) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return col.codes, col.over
}

// overStart positions an overflow cursor at the first entry with
// fact ≥ lo.
func overStart(over []overPair, lo int) int {
	return sort.Search(len(over), func(k int) bool { return over[k].fact >= lo })
}

// checkStride is how often the sequential single-pass kernels poll the
// guard: cancellation granularity of a few µs without per-fact overhead.
const checkStride = 1 << 14

// countColumnRange tallies facts-per-value over codes[lo:hi) into counts.
// Integer tallies are order-free, so it runs two tight passes — the dense
// codes, then the overflow entries of the range directly — instead of the
// per-fact cursor synchronization the float-sum kernel needs for its
// addition order. Both sentinels sit at the top of the uint32 range, so
// `c < colMulti` admits exactly the real value-ids.
func countColumnRange(codes []uint32, over []overPair, lo, hi int, counts []int64) {
	for _, c := range codes[lo:hi] {
		if c < colMulti {
			counts[c]++
		}
	}
	for k, ke := overStart(over, lo), overStart(over, hi); k < ke; k++ {
		counts[over[k].vid]++
	}
}

// countByColumn is the single-pass CountDistinctBy kernel: one read of the
// codes column accumulating into a flat []int64 indexed by value-id. A
// context-carried degree above 1 gives each exec partition its own
// accumulator array, merged by integer addition in ascending partition
// order — the same partition ranges as the bitmap parallel path, and
// integer merges are always exact. The budget loop then mirrors the
// bitmap paths: per value in dictionary (CategoryAt) order, Check then
// Facts(count).
func (e *Engine) countByColumn(ctx context.Context, g *qos.Guard, col *column) (map[string]int, error) {
	codes, over := e.snapshotColumn(col)
	n := len(codes)
	counts := make([]int64, len(col.vals))
	if deg := exec.DegreeFrom(ctx); deg > 1 {
		parts := exec.Partitions(n, deg)
		partial := make([][]int64, len(parts))
		if err := exec.Run(ctx, nil, deg, len(parts), func(p int) error {
			pc := make([]int64, len(col.vals))
			countColumnRange(codes, over, parts[p].Lo, parts[p].Hi, pc)
			partial[p] = pc
			return nil
		}); err != nil {
			return nil, err
		}
		for p := range parts {
			for j, c := range partial[p] {
				counts[j] += c
			}
		}
	} else {
		for lo := 0; lo < n; lo += checkStride {
			if err := g.Check(); err != nil {
				return nil, err
			}
			hi := lo + checkStride
			if hi > n {
				hi = n
			}
			countColumnRange(codes, over, lo, hi, counts)
		}
	}
	out := make(map[string]int, len(col.vals))
	for j, v := range col.vals {
		if err := g.Check(); err != nil {
			return nil, err
		}
		if err := g.Facts(counts[j]); err != nil {
			return nil, fmt.Errorf("storage: count-distinct %s/%s: %w", col.dim, col.cat, err)
		}
		if counts[j] > 0 {
			out[v] = int(counts[j])
		}
	}
	return out, nil
}

// sumColumnRange folds codes[lo:hi) into per-value sums: sums[vid]
// accumulates the argument values of every fact carrying vid, counts[vid]
// the facts (for budget parity with Facts(bitmap count)), adds[vid] the
// argument contributions (a value appears in the result only when a fact
// contributed an argument value — the bitmap path's `any` flag /
// SUM-state n). Facts are visited in ascending index order, so per-value
// float addition order equals Bitmap.Iterate's.
func sumColumnRange(codes []uint32, over []overPair, argVals [][]float64, lo, hi int,
	sums []float64, counts, adds []int64) {
	addFact := func(vid uint32, i int) {
		counts[vid]++
		for _, x := range argVals[i] {
			sums[vid] += x
			adds[vid]++
		}
	}
	oc := overStart(over, lo)
	for i := lo; i < hi; i++ {
		switch c := codes[i]; c {
		case colNone:
		case colMulti:
			for oc < len(over) && over[oc].fact < i {
				oc++
			}
			for oc < len(over) && over[oc].fact == i {
				addFact(over[oc].vid, i)
				oc++
			}
		default:
			addFact(c, i)
		}
	}
}

// sumByColumn is the single-pass SumBy kernel. Sequentially it folds every
// fact in ascending order, which for any one value is the exact addition
// order of the bitmap path's Iterate — bit-identical floats. At degree
// above 1 it uses the same exec.Partitions ranges as sumByParallel and
// merges per-partition (sum, adds) partials in ascending partition order,
// the same association as the agg.State merge of the bitmap parallel path.
func (e *Engine) sumByColumn(ctx context.Context, g *qos.Guard, col *column, argDim string) (map[string]float64, error) {
	e.ensureArgValues(argDim)
	e.mu.RLock()
	codes, over := col.codes, col.over
	argVals := e.argCols[argDim]
	e.mu.RUnlock()
	n := len(codes)
	nv := len(col.vals)
	sums := make([]float64, nv)
	counts := make([]int64, nv)
	adds := make([]int64, nv)
	if deg := exec.DegreeFrom(ctx); deg > 1 {
		parts := exec.Partitions(n, deg)
		pSums := make([][]float64, len(parts))
		pCounts := make([][]int64, len(parts))
		pAdds := make([][]int64, len(parts))
		if err := exec.Run(ctx, nil, deg, len(parts), func(p int) error {
			s := make([]float64, nv)
			c := make([]int64, nv)
			a := make([]int64, nv)
			sumColumnRange(codes, over, argVals, parts[p].Lo, parts[p].Hi, s, c, a)
			pSums[p], pCounts[p], pAdds[p] = s, c, a
			return nil
		}); err != nil {
			return nil, err
		}
		for p := range parts {
			for j := 0; j < nv; j++ {
				sums[j] += pSums[p][j]
				counts[j] += pCounts[p][j]
				adds[j] += pAdds[p][j]
			}
		}
	} else {
		for lo := 0; lo < n; lo += checkStride {
			if err := g.Check(); err != nil {
				return nil, err
			}
			hi := lo + checkStride
			if hi > n {
				hi = n
			}
			sumColumnRange(codes, over, argVals, lo, hi, sums, counts, adds)
		}
	}
	out := make(map[string]float64, len(col.vals))
	for j, v := range col.vals {
		if err := g.Check(); err != nil {
			return nil, err
		}
		if err := g.Facts(counts[j]); err != nil {
			return nil, fmt.Errorf("storage: sum %s/%s: %w", col.dim, col.cat, err)
		}
		if adds[j] > 0 {
			out[v] = sums[j]
		}
	}
	return out, nil
}

// colVids appends the value-ids of fact i to dst (reusing its backing
// array) given its code and an overflow cursor, advancing the cursor.
func colVids(codes []uint32, over []overPair, i int, oc *int, dst []uint32) []uint32 {
	dst = dst[:0]
	switch c := codes[i]; c {
	case colNone:
	case colMulti:
		for *oc < len(over) && over[*oc].fact < i {
			*oc++
		}
		for *oc < len(over) && over[*oc].fact == i {
			dst = append(dst, over[*oc].vid)
			*oc++
		}
	default:
		dst = append(dst, c)
	}
	return dst
}

// CountByColumn answers CountDistinctBy through the column kernel,
// building the column first if needed — the exported entry point for
// callers that want the columnar path regardless of the heuristic.
func (e *Engine) CountByColumn(ctx context.Context, dim, cat string) (map[string]int, error) {
	if err := e.BuildColumn(ctx, dim, cat); err != nil {
		return nil, err
	}
	e.mu.RLock()
	col := e.cols[colKey(dim, cat)]
	e.mu.RUnlock()
	if col == nil {
		return map[string]int{}, nil
	}
	mKernelColumn.Inc()
	return e.countByColumn(ctx, qos.NewGuard(ctx), col)
}

// SumByColumn answers SumBy through the column kernel, building the
// column first if needed.
func (e *Engine) SumByColumn(ctx context.Context, dim, cat, argDim string) (map[string]float64, error) {
	if err := e.BuildColumn(ctx, dim, cat); err != nil {
		return nil, err
	}
	e.mu.RLock()
	col := e.cols[colKey(dim, cat)]
	e.mu.RUnlock()
	if col == nil {
		return map[string]float64{}, nil
	}
	mKernelColumn.Inc()
	return e.sumByColumn(ctx, qos.NewGuard(ctx), col, argDim)
}

// appendToColumn maintains one built column for a newly appended fact i:
// the fact's admitted value-ids in the column's category are the direct
// values that are in the dictionary plus the dictionary ancestors of every
// admitted direct value — mirroring the closure propagation AppendFact
// does for the bitmaps. The caller holds the write lock.
func (e *Engine) appendToColumn(col *column, factID string, i int) {
	for len(col.codes) < i {
		col.codes = append(col.codes, colNone)
	}
	d := e.mo.Dimension(col.dim)
	r := e.mo.Relation(col.dim)
	var vids []uint32
	seen := map[uint32]bool{}
	add := func(v string) {
		if id, ok := col.vid[v]; ok && !seen[id] {
			seen[id] = true
			vids = append(vids, id)
		}
	}
	for _, v := range r.ValuesOf(factID) {
		a, _ := r.Annot(factID, v)
		if !e.ctx.Admits(a) {
			continue
		}
		add(v)
		for _, anc := range d.Ancestors(v, e.ctx) {
			add(anc)
		}
		add(dimTopValue)
	}
	switch len(vids) {
	case 0:
		col.codes = append(col.codes, colNone)
	case 1:
		col.codes = append(col.codes, vids[0])
	default:
		sort.Slice(vids, func(a, b int) bool { return vids[a] < vids[b] })
		col.codes = append(col.codes, colMulti)
		for _, id := range vids {
			col.over = append(col.over, overPair{fact: i, vid: id})
		}
	}
}
