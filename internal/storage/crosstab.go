package storage

import (
	"context"
	"fmt"
	"sort"

	"mddm/internal/exec"
	"mddm/internal/qos"
)

// CrossCell is one cell of a two-dimensional cross tabulation.
type CrossCell struct {
	V1, V2 string
	Count  int
}

// CrossCount computes the distinct-fact count for every pair of values of
// (dim1 at cat1) × (dim2 at cat2) by intersecting closure bitmaps — the
// bitmap-index acceleration of the star-join/cross-tab query ("diagnosis
// group × area") the case study motivates. Cells with zero facts are
// omitted; the result is sorted by (V1, V2).
func (e *Engine) CrossCount(dim1, cat1, dim2, cat2 string) []CrossCell {
	out, _ := e.crossCount(context.Background(), nil, dim1, cat1, dim2, cat2, 1) // nil guard: cannot fail
	return out
}

// CrossCountContext is CrossCount with cooperative cancellation and
// fact-budget accounting (every non-empty row charges its fact count).
// When the cost heuristic prefers both axes' characterization columns, the
// single-pass column kernel answers (CrossCountByColumn, sequential at any
// degree); otherwise closure bitmaps are intersected, and a context-carried
// parallelism degree above 1 evaluates per partition and merges the
// integer counts — identical cells either way.
func (e *Engine) CrossCountContext(ctx context.Context, dim1, cat1, dim2, cat2 string) ([]CrossCell, error) {
	if e.columnFor(dim1, cat1) != nil && e.columnFor(dim2, cat2) != nil {
		return e.CrossCountByColumn(ctx, dim1, cat1, dim2, cat2)
	}
	mKernelBitmap.Inc()
	return e.crossCount(ctx, qos.NewGuard(ctx), dim1, cat1, dim2, cat2, exec.DegreeFrom(ctx))
}

// crossCount is the bitmap cross-tab. It reads both axes' memoized closures
// in place under the read lock (held across the partition run, so
// concurrent cross-tabs proceed in parallel and an AppendFact waits): each
// exec partition computes AndCountRange for every cell pair of the
// non-empty rows — no intersection is materialized — and the per-partition
// counts merge by integer addition. Degree 1 runs the partitions inline.
// Budget: per row value Check, then Facts(row fact count) for non-empty
// rows only.
func (e *Engine) crossCount(ctx context.Context, g *qos.Guard, dim1, cat1, dim2, cat2 string, degree int) ([]CrossCell, error) {
	d1 := e.Dimension(dim1)
	d2 := e.Dimension(dim2)
	if d1 == nil || d2 == nil {
		return nil, nil
	}
	vals1 := e.categoryValues(d1, cat1)
	vals2 := e.categoryValues(d2, cat2)
	if err := e.ensureClosures(g, dim1, vals1); err != nil {
		return nil, err
	}
	if err := e.ensureClosures(g, dim2, vals2); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	bms1 := e.closuresLocked(dim1, vals1)
	bms2 := e.closuresLocked(dim2, vals2)
	keptVals := vals1[:0]
	keptBms := bms1[:0]
	for i, bm := range bms1 {
		if err := g.Check(); err != nil {
			return nil, err
		}
		if bm == nil || bm.IsEmpty() {
			continue
		}
		if err := g.Facts(int64(bm.Count())); err != nil {
			return nil, fmt.Errorf("storage: cross-count %s/%s: %w", dim1, cat1, err)
		}
		keptVals = append(keptVals, vals1[i])
		keptBms = append(keptBms, bm)
	}
	cols := len(vals2)
	parts := exec.Partitions(len(e.facts), degree)
	partial := make([][]int, len(parts))
	if err := exec.Run(ctx, nil, degree, len(parts), func(p int) error {
		counts := make([]int, len(keptBms)*cols)
		r := parts[p]
		for i, bm1 := range keptBms {
			for j, bm2 := range bms2 {
				if bm2 != nil {
					counts[i*cols+j] = bm1.AndCountRange(bm2, r.Lo, r.Hi)
				}
			}
		}
		partial[p] = counts
		return nil
	}); err != nil {
		return nil, err
	}
	var out []CrossCell
	for i, v1 := range keptVals {
		for j, v2 := range vals2 {
			c := 0
			for p := range parts {
				c += partial[p][i*cols+j]
			}
			if c > 0 {
				out = append(out, CrossCell{V1: v1, V2: v2, Count: c})
			}
		}
	}
	sortCells(out)
	return out, nil
}

func sortCells(out []CrossCell) {
	sort.Slice(out, func(i, j int) bool {
		if out[i].V1 != out[j].V1 {
			return out[i].V1 < out[j].V1
		}
		return out[i].V2 < out[j].V2
	})
}

// CrossCountScan answers the same query through the model layer, for
// cross-checking and benchmarking.
func (e *Engine) CrossCountScan(dim1, cat1, dim2, cat2 string) []CrossCell {
	d1 := e.Dimension(dim1)
	d2 := e.Dimension(dim2)
	if d1 == nil || d2 == nil {
		return nil
	}
	var out []CrossCell
	for _, v1 := range d1.CategoryAt(cat1, e.ctx) {
		for _, v2 := range d2.CategoryAt(cat2, e.ctx) {
			n := 0
			for _, f := range e.facts {
				ok1, _ := e.mo.CharacterizedBy(dim1, f, v1, e.ctx)
				if !ok1 {
					continue
				}
				ok2, _ := e.mo.CharacterizedBy(dim2, f, v2, e.ctx)
				if ok2 {
					n++
				}
			}
			if n > 0 {
				out = append(out, CrossCell{V1: v1, V2: v2, Count: n})
			}
		}
	}
	sortCells(out)
	return out
}
