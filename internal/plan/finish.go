package plan

import (
	"math"
	"slices"
	"sort"
	"strings"

	"mddm/internal/agg"
	"mddm/internal/query"
)

// This file is the planned shapes' result tail — canonical order, HAVING,
// ORDER BY, LIMIT — run on typed groups, for a computed query and a
// delta-upgraded one alike. It reproduces the algebra's string finish
// (query.ApplyHaving then query.OrderAndLimit over rows in canonical
// order) bit for bit, formatting only the rows that survive. The
// equivalence rests on ParseFloat(FormatResult(v)) == v for every v but
// NaN (−0 formats as 0, which compares equal): HAVING's comparison of the
// parsed cell is the comparison of v, and ordering by the parsed cells is
// ordering by v, which without NaN is a strict weak order — so the stable
// sort's permutation is the unique one that breaks ties by canonical
// position, which is what a stable top-k keyed by (v, canonical index)
// keeps. Orders that are not strict weak — a group column, where numeric
// and non-numeric cells mix, or a NaN aggregate — go through the string
// finish itself.

// row is one result group before formatting: its shown group values in
// schema order (none for ⊤) and its aggregate value. keys may alias a
// shared dictionary; it is read, never written.
type row struct {
	keys []string
	v    float64
}

// compareRows is the canonical row order of the algebra's SQL flattening:
// group values then the formatted aggregate, cell by cell. Group values
// are unique within a global or one-leg result; the cross shape can repeat
// them (a merged group's cross product may name a combination another
// group holds), and only such a tie formats.
func compareRows(a, b row) int {
	if c := slices.Compare(a.keys, b.keys); c != 0 {
		return c
	}
	return strings.Compare(agg.FormatResult(a.v), agg.FormatResult(b.v))
}

// assemble turns a shape's pre-HAVING groups into the result: canonical
// order (sorted says the groups are in it already), nil rows for no
// groups and [] for groups HAVING removed — as the algebra path leaves
// them — the summarizability verdict, then HAVING, ORDER BY and LIMIT.
// It owns groups and reorders them.
func assemble(q *query.Query, columns []string, groups []row, sorted bool, report agg.Report) (*query.Result, error) {
	if !sorted {
		slices.SortFunc(groups, compareRows)
	}
	if len(groups) == 0 {
		groups = nil
	}
	res := &query.Result{
		Columns:      columns,
		Summarizable: report.Summarizable,
		Reasons:      report.Reasons,
	}
	if !typedFinish(q, columns, groups) {
		res.Rows = formatRows(groups)
		if err := query.ApplyHaving(q, res); err != nil {
			return nil, err
		}
		if err := query.OrderAndLimit(q, res); err != nil {
			return nil, err
		}
		return res, nil
	}
	if q.Having {
		op, err := query.CmpOp(q.HavingOp)
		if err != nil {
			return nil, err
		}
		kept := groups[:0]
		for _, g := range groups {
			if op.Holds(g.v, q.HavingVal) {
				kept = append(kept, g)
			}
		}
		groups = kept
	}
	if q.OrderBy != "" {
		groups = topK(groups, q.Limit, q.OrderDesc)
	} else if q.Limit > 0 && len(groups) > q.Limit {
		groups = groups[:q.Limit]
	}
	res.Rows = formatRows(groups)
	return res, nil
}

// typedFinish reports whether the typed tail reproduces the string finish
// on these groups: an ORDER BY, if any, names the aggregate column over
// values without NaN. Everything else — an ORDER BY of a group column or
// of no output column included — takes the string finish, errors and all.
func typedFinish(q *query.Query, columns []string, groups []row) bool {
	if q.OrderBy == "" {
		return true
	}
	if slices.Index(columns, q.OrderBy) != len(columns)-1 {
		return false
	}
	return !slices.ContainsFunc(groups, func(g row) bool { return math.IsNaN(g.v) })
}

// topK returns the first k groups (all of them for k <= 0) of a stable
// sort by value, ascending or descending: ties keep the canonical order the
// groups arrive in. Without a cut it sorts groups in place; with one it
// keeps a sorted buffer of the best k, which a group enters only ahead of
// every strictly worse one — after its equals, which came before it.
func topK(groups []row, k int, desc bool) []row {
	better := func(a, b float64) bool { return a < b }
	if desc {
		better = func(a, b float64) bool { return a > b }
	}
	if k <= 0 || k >= len(groups) {
		slices.SortStableFunc(groups, func(a, b row) int {
			switch {
			case better(a.v, b.v):
				return -1
			case better(b.v, a.v):
				return 1
			}
			return 0
		})
		return groups
	}
	top := make([]row, 0, k)
	for _, g := range groups {
		if len(top) == k && !better(g.v, top[k-1].v) {
			continue
		}
		at := sort.Search(len(top), func(i int) bool { return better(g.v, top[i].v) })
		if len(top) < k {
			top = append(top, row{})
		}
		copy(top[at+1:], top[at:])
		top[at] = g
	}
	return top
}

// formatRows renders the surviving groups as result rows — group values,
// then the formatted aggregate — in one backing array, each row capped so
// an append to it cannot reach its neighbour. nil stays nil.
func formatRows(groups []row) [][]string {
	if groups == nil {
		return nil
	}
	rows := make([][]string, len(groups))
	if len(groups) == 0 {
		return rows
	}
	w := len(groups[0].keys) + 1
	cells := make([]string, w*len(groups))
	for i, g := range groups {
		r := cells[i*w : (i+1)*w : (i+1)*w]
		copy(r, g.keys)
		r[w-1] = agg.FormatResult(g.v)
		rows[i] = r
	}
	return rows
}
