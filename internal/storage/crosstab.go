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
	out, _ := e.crossCountSeq(nil, dim1, cat1, dim2, cat2) // nil guard: cannot fail
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
	if deg := exec.DegreeFrom(ctx); deg > 1 {
		return e.crossCountParallel(ctx, dim1, cat1, dim2, cat2, deg)
	}
	return e.crossCountSeq(qos.NewGuard(ctx), dim1, cat1, dim2, cat2)
}

// crossCountSeq is the sequential cross-tab: one scratch bitmap reused via
// AndInto across every cell pair instead of a Clone allocation per cell.
// The whole pass runs under the read lock over the shared memoized
// closures, so concurrent cross-tabs proceed in parallel.
func (e *Engine) crossCountSeq(g *qos.Guard, dim1, cat1, dim2, cat2 string) ([]CrossCell, error) {
	d1 := e.mo.Dimension(dim1)
	d2 := e.mo.Dimension(dim2)
	if d1 == nil || d2 == nil {
		return nil, nil
	}
	vals1 := d1.CategoryAt(cat1, e.ctx)
	vals2 := d2.CategoryAt(cat2, e.ctx)
	if err := e.ensureClosures(g, dim1, vals1); err != nil {
		return nil, err
	}
	if err := e.ensureClosures(g, dim2, vals2); err != nil {
		return nil, err
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	empty := NewBitmap(0)
	closureOf := func(dim, v string) *Bitmap {
		if di := e.dims[dim]; di != nil {
			if bm := di.closure[v]; bm != nil {
				return bm
			}
		}
		return empty
	}
	bms2 := make([]*Bitmap, len(vals2))
	for j, v2 := range vals2 {
		bms2[j] = closureOf(dim2, v2)
	}
	var out []CrossCell
	scratch := NewBitmap(0)
	for _, v1 := range vals1 {
		if err := g.Check(); err != nil {
			return nil, err
		}
		bm1 := closureOf(dim1, v1)
		if bm1.IsEmpty() {
			continue
		}
		if err := g.Facts(int64(bm1.Count())); err != nil {
			return nil, fmt.Errorf("storage: cross-count %s/%s: %w", dim1, cat1, err)
		}
		for j, v2 := range vals2 {
			if n := scratch.AndInto(bm1, bms2[j]).Count(); n > 0 {
				out = append(out, CrossCell{V1: v1, V2: v2, Count: n})
			}
		}
	}
	sortCells(out)
	return out, nil
}

// crossCountParallel freezes both axes' bitmaps, then each partition
// computes AndCountRange for every cell pair of the non-empty rows; the
// per-partition counts merge by integer addition. Budget accounting
// matches the sequential path: each non-empty row charges its fact count.
func (e *Engine) crossCountParallel(ctx context.Context, dim1, cat1, dim2, cat2 string, degree int) ([]CrossCell, error) {
	if e.mo.Dimension(dim1) == nil || e.mo.Dimension(dim2) == nil {
		return nil, nil
	}
	g := qos.NewGuard(ctx)
	vals1, bms1, n, err := e.frozenValueBitmaps(g, dim1, cat1)
	if err != nil {
		return nil, err
	}
	vals2, bms2, _, err := e.frozenValueBitmaps(g, dim2, cat2)
	if err != nil {
		return nil, err
	}
	// Drop empty rows up front (the sequential path skips them before
	// charging the budget).
	keptVals := vals1[:0]
	keptBms := bms1[:0]
	for i, bm := range bms1 {
		if bm.IsEmpty() {
			continue
		}
		if err := g.Facts(int64(bm.Count())); err != nil {
			return nil, fmt.Errorf("storage: cross-count %s/%s: %w", dim1, cat1, err)
		}
		keptVals = append(keptVals, vals1[i])
		keptBms = append(keptBms, bm)
	}
	cols := len(vals2)
	parts := exec.Partitions(n, degree)
	partial := make([][]int, len(parts))
	if err := exec.Run(ctx, nil, degree, len(parts), func(p int) error {
		counts := make([]int, len(keptBms)*cols)
		r := parts[p]
		for i, bm1 := range keptBms {
			for j, bm2 := range bms2 {
				counts[i*cols+j] = bm1.AndCountRange(bm2, r.Lo, r.Hi)
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
	d1 := e.mo.Dimension(dim1)
	d2 := e.mo.Dimension(dim2)
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
