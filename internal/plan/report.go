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
// in the category. Covering does not depend on the selection, so it is
// the engine's memoized verdict (Engine.Covering), asked of the engine's
// hierarchy (a context view's is sliced) under the engine's context. A
// category with no values covers, which is agg.CheckSummarizable's skip
// of an empty one. Reason texts and ordering match agg.CheckSummarizable
// verbatim.
func checkSummarizable(eng *storage.Engine, fn *agg.Func, groupBy map[string]string, sel *storage.Bitmap) agg.Report {
	m := eng.MO()
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
		if eng.MultiValued(dimName, cat, sel) {
			fail("path from %s facts to %s/%s is non-strict",
				m.Schema().FactType(), dimName, cat)
		}
		dt := eng.Dimension(dimName).Type()
		for _, below := range dt.CategoryTypes() {
			if below == cat || !dt.LessEq(below, cat) {
				continue
			}
			if !eng.Covering(dimName, below, cat) {
				fail("hierarchy %s: category %s does not fully roll up into %s",
					dimName, below, cat)
			}
		}
	}
	return rep
}
