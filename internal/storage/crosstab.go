package storage

import (
	"fmt"
	"sort"

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
	out, _ := e.crossCount(nil, dim1, cat1, dim2, cat2) // nil guard: cannot fail
	return out
}

// crossCount is the bitmap cross-tab. It reads both axes' memoized closures
// in place under the read lock (held across the pass, so concurrent
// cross-tabs proceed together and an AppendFact waits) and takes
// AndCountRange over every fact for each cell pair of the non-empty rows —
// no intersection is materialized. Budget: per row value Check, then
// Facts(row fact count) for non-empty rows only.
func (e *Engine) crossCount(g *qos.Guard, dim1, cat1, dim2, cat2 string) ([]CrossCell, error) {
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
	if err := g.CheckNow(); err != nil {
		return nil, err
	}
	var out []CrossCell
	for i, bm1 := range keptBms {
		for j, bm2 := range bms2 {
			if bm2 == nil {
				continue
			}
			if c := bm1.AndCountRange(bm2, 0, len(e.order)); c > 0 {
				out = append(out, CrossCell{V1: keptVals[i], V2: vals2[j], Count: c})
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
	facts := e.ExportFacts()
	var out []CrossCell
	for _, v1 := range d1.CategoryAt(cat1, e.ctx) {
		for _, v2 := range d2.CategoryAt(cat2, e.ctx) {
			n := 0
			for _, f := range facts {
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
