package storage

import (
	"context"
	"fmt"
	"sort"

	"mddm/internal/obs"
	"mddm/internal/qos"
)

// This file implements characterization columns: a dictionary-encoded
// columnar layout of the characterization relation, built per (dimension,
// category) on top of the memoized closure bitmaps. The one-leg kernel
// (kernel.go) reads the dense fact→value-id codes once and accumulates
// into flat arrays indexed by value-id — O(facts) regardless of category
// cardinality, and cache-friendly — where the bitmap strategy costs
// O(|values(category)| × facts/64). The paper's hard cases map to two
// sentinels: a fact attached above the category (mixed granularity)
// characterizes no value of it and encodes colNone; a many-to-many fact
// carrying several values of the category encodes colMulti and stores its
// value-ids in a compact overflow side-table sorted by (fact, value-id).
// A bitmap of the colMulti facts answers the summarizability check's
// strictness question (MultiValuedRange) in one word-wise pass.
//
// Concurrency: columns live behind the engine's RWMutex. Builds take the
// write lock; scans snapshot the codes and overflow slice headers under
// the read lock and then run lock-free — AppendFact only ever appends to
// these slices (never mutates existing elements), so a snapshot of the
// first n facts stays immutable. The multi-valued bitmap is the exception:
// AppendFact grows it in place, so it is read under the read lock only.

// Kernel-selection and column-maintenance metrics. The kernel counters
// count aggregations by the strategy that answered — one per member of a
// one-leg kernel scan (set in scanLeg from the strategy it ran), one per
// cross-tab call — so the ratio is the share of aggregations the columns
// carry.
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

// OverflowEntry is one entry of a column's overflow side-table: the
// many-to-many fact at dense index Fact carries dictionary value-id Vid.
// The side-table is sorted by (Fact, Vid); appends keep the order because
// new facts get the largest dense index. It is also the persisted form
// (ColumnData.Over), so export and install share the column's own table.
type OverflowEntry struct {
	Fact int
	Vid  uint32
}

// column is one characterization column for a (dimension, category) pair.
type column struct {
	dim, cat string
	vals     []string          // dictionary: value-id → value, in CategoryAt order
	vid      map[string]uint32 // reverse dictionary
	codes    []uint32          // fact index → value-id, colNone, or colMulti
	over     []OverflowEntry   // overflow side-table, sorted by (Fact, Vid)
	multi    *Bitmap           // the facts whose code is colMulti
	// catVer is the category's Dimension.CategoryVersion when the
	// dictionary was taken; see fresh.
	catVer int
}

// fresh reports whether the column's dictionary still matches the live
// category: no value was added to or removed from it since the dictionary
// was taken. appendToColumn admits dictionary values only, so a stale
// column under-codes the newer facts and must not be scanned.
func (e *Engine) fresh(col *column) bool {
	return col.catVer == e.Dimension(col.dim).CategoryVersion(col.cat)
}

// builtColumn returns the column of (dim, cat) if one is built and fresh.
func (e *Engine) builtColumn(dim, cat string) *column {
	e.mu.RLock()
	col := e.cols[colKey(dim, cat)]
	e.mu.RUnlock()
	if col == nil || !e.fresh(col) {
		return nil
	}
	return col
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

// columnFor returns the built column for (dim, cat) when the one-leg
// kernel should scan it: the column exists, its dictionary is fresh, and
// its category cardinality meets the threshold. Nil means the bitmap
// strategy answers, over the live dictionary.
func (e *Engine) columnFor(dim, cat string) *column {
	e.mu.RLock()
	minValues := e.columnMinValuesLocked()
	e.mu.RUnlock()
	col := e.builtColumn(dim, cat)
	if col == nil || len(col.vals) < minValues {
		return nil
	}
	return col
}

// BuildColumn materializes the characterization column of (dim, cat) from
// the closure bitmaps (building any missing ones first), replacing a stale
// one — the engine's one staleness rule: whoever asks for a column gets it
// over the live dictionary. It is idempotent and charges no fact budget —
// like closure memoization, it is infrastructure work, so queries cost the
// same whether they build or reuse. Unknown dimensions or categories build
// an empty column.
func (e *Engine) BuildColumn(ctx context.Context, dim, cat string) error {
	d := e.Dimension(dim)
	if d == nil || e.builtColumn(dim, cat) != nil {
		return nil
	}
	vals, catVer := e.categoryValues(d, cat), d.CategoryVersion(cat)
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
	if old := e.cols[colKey(dim, cat)]; old != nil && e.fresh(old) {
		return nil
	}
	col := &column{
		dim:    dim,
		cat:    cat,
		vals:   vals,
		vid:    make(map[string]uint32, len(vals)),
		codes:  make([]uint32, len(e.order)),
		multi:  NewBitmap(len(e.order)),
		catVer: catVer,
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
				col.over = append(col.over, OverflowEntry{Fact: i, Vid: vid})
			default:
				col.over = append(col.over,
					OverflowEntry{Fact: i, Vid: col.codes[i]},
					OverflowEntry{Fact: i, Vid: vid})
				col.codes[i] = colMulti
				col.multi.Set(i)
			}
			return true
		})
	}
	col.over = placeByFact(col.over, len(e.order))
	e.cols[colKey(dim, cat)] = col
	mColumnBuilds.Inc()
	return nil
}

// placeByFact returns over's entries in (Fact, Vid) order. BuildColumn
// appends them value by value, in value-id order, so one fact's entries
// already follow Vid order and a stable placement by fact — count per
// fact, prefix sums, place — orders them in O(entries + facts).
func placeByFact(over []OverflowEntry, nFacts int) []OverflowEntry {
	if len(over) == 0 {
		return over
	}
	next := make([]uint32, nFacts+1) // next[f]: the slot of fact f's next entry
	for _, o := range over {
		next[o.Fact+1]++
	}
	for f := 1; f <= nFacts; f++ {
		next[f] += next[f-1]
	}
	// The table keeps over's spare capacity: AppendFact appends to it.
	out := make([]OverflowEntry, len(over), cap(over))
	for _, o := range over {
		out[next[o.Fact]] = o
		next[o.Fact]++
	}
	return out
}

// EnsureColumn builds the column of (dim, cat) — or rebuilds a stale one —
// when the cost heuristic would select it — the category has at least
// ColumnMinValues values — and is a no-op otherwise. Pre-aggregation, the
// serving layer and ScanLeg call it before aggregating, so the threshold
// decides both build and use.
func (e *Engine) EnsureColumn(ctx context.Context, dim, cat string) error {
	d := e.Dimension(dim)
	if d == nil || e.builtColumn(dim, cat) != nil {
		return nil
	}
	e.mu.RLock()
	min := e.columnMinValuesLocked()
	e.mu.RUnlock()
	if len(e.categoryValues(d, cat)) < min {
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
		d := e.Dimension(dim)
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

// overStart positions an overflow cursor at the first entry with
// fact ≥ lo.
func overStart(over []OverflowEntry, lo int) int {
	return sort.Search(len(over), func(k int) bool { return over[k].Fact >= lo })
}

// checkStride is how often the sequential per-fact scans poll the guard:
// cancellation granularity of a few µs without per-fact overhead.
const checkStride = 1 << 14

// CountByColumn builds the column of (dim, cat) if needed — whatever the
// category's cardinality — and answers CountDistinctByContext. The kernel
// scans the column when it meets the selection threshold.
func (e *Engine) CountByColumn(ctx context.Context, dim, cat string) (map[string]int, error) {
	if err := e.BuildColumn(ctx, dim, cat); err != nil {
		return nil, err
	}
	return e.CountDistinctByContext(ctx, dim, cat)
}

// SumByColumn builds the column of (dim, cat) if needed and answers
// SumByContext.
func (e *Engine) SumByColumn(ctx context.Context, dim, cat, argDim string) (map[string]float64, error) {
	if err := e.BuildColumn(ctx, dim, cat); err != nil {
		return nil, err
	}
	return e.SumByContext(ctx, dim, cat, argDim)
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
	col.multi.grow(i + 1)
	d := e.Dimension(col.dim)
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
		col.multi.Set(i)
		for _, id := range vids {
			col.over = append(col.over, OverflowEntry{Fact: i, Vid: id})
		}
	}
}
