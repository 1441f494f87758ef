package plan

import (
	"fmt"

	"mddm/internal/agg"
	"mddm/internal/dimension"
	"mddm/internal/storage"
)

// checkSummarizable reproduces agg.CheckSummarizable over the engine
// instead of per-fact model walks. Strictness of a selected path is one
// read of the category column's multi-valued bitmap (MultiValued): a
// fact coded colMulti there is exactly a fact with two admitted ancestors
// in the category. The covering check still walks the hierarchy
// — it is value-count bound, not fact-count bound. Reason texts and
// ordering match agg.CheckSummarizable verbatim. The hierarchy is the
// engine's (a context view's is sliced), walked under the engine's context.
func checkSummarizable(eng *storage.Engine, fn *agg.Func, groupBy map[string]string, sel *storage.Bitmap) agg.Report {
	m, ectx := eng.MO(), eng.Context()
	rep := agg.Report{Summarizable: true}
	fail := func(format string, args ...any) {
		rep.Summarizable = false
		rep.Reasons = append(rep.Reasons, fmt.Sprintf(format, args...))
	}
	if !fn.Distributive {
		fail("function %s is not distributive", fn.Name)
	}
	for _, dimName := range m.Schema().DimensionNames() {
		cat, ok := groupBy[dimName]
		if !ok || cat == dimension.TopName {
			continue
		}
		d := eng.Dimension(dimName)
		if eng.MultiValued(dimName, cat, sel) {
			fail("path from %s facts to %s/%s is non-strict",
				m.Schema().FactType(), dimName, cat)
		}
		for _, below := range d.Type().CategoryTypes() {
			if below == cat || !d.Type().LessEq(below, cat) {
				continue
			}
			if len(d.Category(below)) == 0 {
				continue
			}
			if !d.Covering(below, cat, ectx) {
				fail("hierarchy %s: category %s does not fully roll up into %s",
					dimName, below, cat)
			}
		}
	}
	return rep
}
