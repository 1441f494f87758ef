package plan

import (
	"fmt"
	"sort"

	"mddm/internal/core"
	"mddm/internal/qos"
	"mddm/internal/query"
	"mddm/internal/storage"
)

// execFacts answers SELECT FACTS from the engine's fact dictionary: the
// selected dense indices map straight to fact identities, sorted to match
// the algebra's sorted fact-set iteration, cut to LIMIT. One Facts(1)
// charge per emitted row, like the row loop on the algebra path.
func execFacts(guard *qos.Guard, eng *storage.Engine, m *core.MO, sel *storage.Bitmap, limit int, ex *Explain) (*query.Result, error) {
	if ex != nil {
		ex.Shape = ShapeFacts
	}
	ids := eng.SelectedFactIDs(sel)
	sort.Strings(ids)
	if limit > 0 && len(ids) > limit {
		ids = ids[:limit]
	}
	res := &query.Result{Columns: []string{m.Schema().FactType()}, Summarizable: true}
	for _, f := range ids {
		if err := guard.Facts(1); err != nil {
			return nil, fmt.Errorf("query: %w", err)
		}
		res.Rows = append(res.Rows, []string{f})
	}
	if ex != nil {
		ex.Groups = len(res.Rows)
	}
	return res, nil
}

// execCross evaluates an aggregate grouped on several dimensions through
// the storage cross kernel, which replicates the algebra's grouping
// semantics exactly: a fact belongs to every combination of its
// per-dimension ancestor values and is dropped entirely when any grouping
// dimension yields none; combinations with identical member sets collapse
// into one set-valued group whose per-dimension values accumulate
// (fact.NewGroup identity). Each group is charged Check plus
// Facts(|members|), evaluated once, and flattened to the cross product of
// its per-dimension value sets — including the cross-product rows that
// merging introduces. A probabilistic function's groups are the cells
// themselves, each evaluated over its members' cell probabilities.
func (p *Prepared) execCross() ([]row, error) {
	guard, fn, grouped := p.guard, p.fn, p.grouped
	k := len(grouped)
	legs := make([]storage.CrossLeg, k)
	for d, gd := range grouped {
		legs[d] = storage.CrossLeg{Dim: gd.dim, Cat: gd.cat}
	}
	var rows []row
	pos := make([]int, k)
	err := p.eng.CrossAggregateBy(p.cctx, legs, p.argDim, p.sel, p.NeedsArgLists(), p.ProbArg(), func(g *storage.CrossGroup) error {
		if err := guard.Check(); err != nil {
			return err
		}
		if err := guard.Facts(g.Count); err != nil {
			return err
		}
		v, ok := groupValue(fn, g.Count, g.Acc, g.Args)
		if !ok {
			return nil
		}
		for { // pos is all zeros here: a finished walk leaves it so
			keys := make([]string, k)
			for d, vals := range g.Values {
				keys[d] = vals[pos[d]]
			}
			rows = append(rows, row{keys: keys, v: v})
			d := k - 1
			for ; d >= 0; d-- {
				if pos[d]++; pos[d] < len(g.Values[d]) {
					break
				}
				pos[d] = 0
			}
			if d < 0 {
				return nil
			}
		}
	})
	if err != nil {
		return nil, fmt.Errorf("query: %w", err)
	}
	return rows, nil
}
