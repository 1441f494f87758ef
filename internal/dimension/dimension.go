package dimension

import (
	"fmt"
	"sort"
	"strconv"

	"mddm/internal/temporal"
)

// Annot annotates a model statement (value membership, partial-order
// relation, representation mapping, fact–dimension pair) with the bitemporal
// element during which it holds and the probability with which it holds
// (§3.2–3.3 of the paper).
type Annot struct {
	Time temporal.Bitemporal
	Prob float64
}

// Always is the annotation of data without explicit time or uncertainty:
// valid at all times, current at all times, with probability 1.
func Always() Annot {
	return Annot{Time: temporal.AlwaysBitemporal(), Prob: 1}
}

// ValidDuring annotates a statement with a valid-time element (probability
// 1, transaction time unconstrained).
func ValidDuring(v temporal.Element) Annot {
	return Annot{Time: temporal.ValidOnly(v), Prob: 1}
}

// WithProb returns a copy of the annotation with the given probability.
func (a Annot) WithProb(p float64) Annot {
	a.Prob = p
	return a
}

// IsEmpty reports whether the annotation denotes no bitemporal chronons or
// zero probability.
func (a Annot) IsEmpty() bool { return a.Time.IsEmpty() || a.Prob <= 0 }

// Context parameterizes temporal and probabilistic evaluation: an optional
// valid-time instant, an optional transaction-time instant, the reference
// chronon that resolves NOW, and a minimum probability threshold.
type Context struct {
	Valid   *temporal.Chronon // nil: any valid time
	Trans   *temporal.Chronon // nil: any transaction time
	Ref     temporal.Chronon  // resolves NOW; zero value is the epoch
	MinProb float64           // statements with lower probability are ignored
}

// CurrentContext returns a context evaluating at reference time ref with no
// instant filters.
func CurrentContext(ref temporal.Chronon) Context { return Context{Ref: ref} }

// AtValid returns a copy of the context that filters to the given
// valid-time instant.
func (c Context) AtValid(t temporal.Chronon) Context {
	c.Valid = &t
	return c
}

// AtTrans returns a copy of the context that filters to the given
// transaction-time instant.
func (c Context) AtTrans(t temporal.Chronon) Context {
	c.Trans = &t
	return c
}

// WithMinProb returns a copy of the context with a probability threshold.
func (c Context) WithMinProb(p float64) Context {
	c.MinProb = p
	return c
}

// Admits reports whether an annotation satisfies the context's filters.
func (c Context) Admits(a Annot) bool {
	if a.Prob < c.MinProb || a.Prob <= 0 {
		return false
	}
	if c.Valid != nil && !a.Time.Valid.Contains(*c.Valid, c.Ref) {
		return false
	}
	if c.Trans != nil && !a.Time.Trans.Contains(*c.Trans, c.Ref) {
		return false
	}
	return !a.Time.Valid.IsEmpty() && !a.Time.Trans.IsEmpty()
}

// edge is an annotated partial-order relation between two dimension values.
type edge struct {
	other string
	annot Annot
}

// Dimension is a dimension instance D = (C, ⊑) of a dimension type: a set
// of categories (one per category type, possibly empty) and an annotated
// partial order on the union of all dimension values. The top category
// always contains exactly the ⊤ value, which logically contains every other
// value.
type Dimension struct {
	dtype *DimensionType

	valueCat map[string]string // value id -> category type name
	memberAt map[string]Annot  // value id -> membership annotation (e ∈Tv C)
	catVals  map[string]map[string]bool
	catVer   map[string]int // category type name -> values added or removed so far

	up   map[string][]edge // child -> annotated parents
	down map[string][]edge // parent -> annotated children

	reps map[string]*Representation // representation name -> representation
}

// New creates an empty dimension of the given finalized type, containing
// only the ⊤ value.
func New(t *DimensionType) *Dimension {
	t.mustFinal()
	d := &Dimension{
		dtype:    t,
		valueCat: map[string]string{},
		memberAt: map[string]Annot{},
		catVals:  map[string]map[string]bool{},
		catVer:   map[string]int{},
		up:       map[string][]edge{},
		down:     map[string][]edge{},
		reps:     map[string]*Representation{},
	}
	d.valueCat[TopValue] = TopName
	d.memberAt[TopValue] = Always()
	d.catVals[TopName] = map[string]bool{TopValue: true}
	return d
}

// Type returns the dimension's type.
func (d *Dimension) Type() *DimensionType { return d.dtype }

// AddValue adds a dimension value to the category of the given type with an
// Always annotation.
func (d *Dimension) AddValue(cat, id string) error {
	return d.AddValueAnnot(cat, id, Always())
}

// AddValueAnnot adds a dimension value with an explicit membership
// annotation (e ∈Tv C).
func (d *Dimension) AddValueAnnot(cat, id string, a Annot) error {
	if !d.dtype.Has(cat) {
		return fmt.Errorf("dimension %s: unknown category type %q", d.dtype.Name(), cat)
	}
	if cat == TopName {
		return fmt.Errorf("dimension %s: the ⊤ category holds only the ⊤ value", d.dtype.Name())
	}
	if id == "" {
		return fmt.Errorf("dimension %s: empty value id", d.dtype.Name())
	}
	if prev, ok := d.valueCat[id]; ok {
		return fmt.Errorf("dimension %s: value %q already in category %q", d.dtype.Name(), id, prev)
	}
	d.valueCat[id] = cat
	d.memberAt[id] = a
	if d.catVals[cat] == nil {
		d.catVals[cat] = map[string]bool{}
	}
	d.catVals[cat][id] = true
	d.catVer[cat]++
	return nil
}

// RemoveValue removes a value and all partial-order edges incident to it.
// The ⊤ value cannot be removed.
func (d *Dimension) RemoveValue(id string) error {
	if id == TopValue {
		return fmt.Errorf("dimension %s: cannot remove ⊤", d.dtype.Name())
	}
	cat, ok := d.valueCat[id]
	if !ok {
		return fmt.Errorf("dimension %s: unknown value %q", d.dtype.Name(), id)
	}
	delete(d.valueCat, id)
	delete(d.memberAt, id)
	delete(d.catVals[cat], id)
	d.catVer[cat]++
	drop := func(m map[string][]edge, from, to string) {
		es := m[from]
		out := es[:0]
		for _, e := range es {
			if e.other != to {
				out = append(out, e)
			}
		}
		if len(out) == 0 {
			delete(m, from)
		} else {
			m[from] = out
		}
	}
	for _, e := range d.up[id] {
		drop(d.down, e.other, id)
	}
	for _, e := range d.down[id] {
		drop(d.up, e.other, id)
	}
	delete(d.up, id)
	delete(d.down, id)
	return nil
}

// Has reports whether the value id belongs to the dimension (e ∈ D).
func (d *Dimension) Has(id string) bool {
	_, ok := d.valueCat[id]
	return ok
}

// CategoryOf returns the category type name of a value.
func (d *Dimension) CategoryOf(id string) (string, bool) {
	c, ok := d.valueCat[id]
	return c, ok
}

// Membership returns the membership annotation of a value.
func (d *Dimension) Membership(id string) (Annot, bool) {
	a, ok := d.memberAt[id]
	return a, ok
}

// Category returns the sorted value ids of the category of the given type.
func (d *Dimension) Category(cat string) []string {
	ids := make([]string, 0, len(d.catVals[cat]))
	for id := range d.catVals[cat] {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// CategoryAt returns the sorted value ids whose membership annotation is
// admitted by the context (e ∈Tv C evaluated under ctx).
func (d *Dimension) CategoryAt(cat string, ctx Context) []string {
	var ids []string
	for id := range d.catVals[cat] {
		if ctx.Admits(d.memberAt[id]) {
			ids = append(ids, id)
		}
	}
	sort.Strings(ids)
	return ids
}

// CategoryVersion counts the values added to and removed from the category
// on this dimension object so far: a constant-time probe for "did the
// category's value set change since I looked".
func (d *Dimension) CategoryVersion(cat string) int { return d.catVer[cat] }

// Values returns all value ids of the dimension (including ⊤), sorted.
func (d *Dimension) Values() []string {
	ids := make([]string, 0, len(d.valueCat))
	for id := range d.valueCat {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// NumValues returns the number of values including ⊤.
func (d *Dimension) NumValues() int { return len(d.valueCat) }

// AddEdge records child ⊑ parent with an Always annotation.
func (d *Dimension) AddEdge(child, parent string) error {
	return d.AddEdgeAnnot(child, parent, Always())
}

// AddEdgeAnnot records child ⊑Tv parent with the given annotation. The
// parent's category type must be strictly greater than the child's in the
// dimension type, keeping the value order consistent with the category
// lattice. Multiple edges between the same pair are coalesced by bitemporal
// union (keeping data coalesced, §3.2); probability is combined by max.
func (d *Dimension) AddEdgeAnnot(child, parent string, a Annot) error {
	cc, ok := d.valueCat[child]
	if !ok {
		return fmt.Errorf("dimension %s: unknown child value %q", d.dtype.Name(), child)
	}
	pc, ok := d.valueCat[parent]
	if !ok {
		return fmt.Errorf("dimension %s: unknown parent value %q", d.dtype.Name(), parent)
	}
	if parent == TopValue {
		return nil // e ⊑ ⊤ holds implicitly
	}
	if child == parent {
		return fmt.Errorf("dimension %s: self-edge on %q", d.dtype.Name(), child)
	}
	if cc == pc || !d.dtype.LessEq(cc, pc) {
		return fmt.Errorf("dimension %s: edge %q(%s) ⊑ %q(%s) violates the category order", d.dtype.Name(), child, cc, parent, pc)
	}
	for i, e := range d.up[child] {
		if e.other == parent {
			merged := Annot{Time: e.annot.Time.Union(a.Time), Prob: maxf(e.annot.Prob, a.Prob)}
			d.up[child][i].annot = merged
			for j, de := range d.down[parent] {
				if de.other == child {
					d.down[parent][j].annot = merged
				}
			}
			return nil
		}
	}
	d.up[child] = append(d.up[child], edge{other: parent, annot: a})
	d.down[parent] = append(d.down[parent], edge{other: child, annot: a})
	return nil
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// Parents returns the sorted direct parents of a value (not including ⊤).
func (d *Dimension) Parents(id string) []string {
	out := make([]string, 0, len(d.up[id]))
	for _, e := range d.up[id] {
		out = append(out, e.other)
	}
	sort.Strings(out)
	return out
}

// Children returns the sorted direct children of a value.
func (d *Dimension) Children(id string) []string {
	out := make([]string, 0, len(d.down[id]))
	for _, e := range d.down[id] {
		out = append(out, e.other)
	}
	sort.Strings(out)
	return out
}

// EdgeAnnot returns the annotation of the direct edge child ⊑ parent.
func (d *Dimension) EdgeAnnot(child, parent string) (Annot, bool) {
	for _, e := range d.up[child] {
		if e.other == parent {
			return e.annot, true
		}
	}
	return Annot{}, false
}

// LessEq reports whether e1 ⊑ e2 holds under the context: e2 is reachable
// from e1 through edges admitted by the context (reflexively; everything is
// below ⊤). The returned probability is the maximum over admitted paths of
// the product of edge probabilities.
func (d *Dimension) LessEq(e1, e2 string, ctx Context) (bool, float64) {
	if !d.Has(e1) || !d.Has(e2) {
		return false, 0
	}
	if e1 == e2 || e2 == TopValue {
		if ctx.Admits(d.memberAt[e1]) {
			return true, d.memberAt[e1].Prob
		}
		return false, 0
	}
	p, ok := d.UpReach(e1, ctx)[e2]
	return ok, p
}

// UpReach walks upward from e1 through the edges the context admits and
// returns every value it reaches — e1 itself included, at probability 1 —
// with the maximum over admitted paths of the product of edge
// probabilities; a path is abandoned where its product falls below
// ctx.MinProb. It is LessEq's walk: LessEq(e1, e2) holds, for e2 above e1,
// exactly when e2 is in the map, with that probability. Indexes that need
// e1's every ancestor (storage's context views) take them from one walk
// where LessEq would walk once per candidate.
func (d *Dimension) UpReach(e1 string, ctx Context) map[string]float64 {
	best := map[string]float64{e1: 1}
	stack := []string{e1}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		p := best[n]
		for _, e := range d.up[n] {
			if !ctx.Admits(e.annot) {
				continue
			}
			np := p * e.annot.Prob
			if np < ctx.MinProb || np <= 0 {
				continue
			}
			if old, seen := best[e.other]; !seen || np > old {
				best[e.other] = np
				stack = append(stack, e.other)
			}
		}
	}
	return best
}

// LessEqTime returns the valid-time element during which e1 ⊑ e2 holds
// (under the context's transaction-time and probability filters) together
// with the maximum path probability. For e1 = e2 and e2 = ⊤ the membership
// valid time of e1 is returned.
func (d *Dimension) LessEqTime(e1, e2 string, ctx Context) (temporal.Element, float64) {
	if !d.Has(e1) || !d.Has(e2) {
		return temporal.Empty(), 0
	}
	if e1 == e2 || e2 == TopValue {
		a := d.memberAt[e1]
		if a.Prob < ctx.MinProb {
			return temporal.Empty(), 0
		}
		return a.Time.Valid, a.Prob
	}
	// Accumulate, per node, the valid time over which it is reachable and
	// the best path probability. Iterate to a fixed point (the graph is a
	// DAG, so a DFS with re-relaxation terminates).
	reach := map[string]temporal.Element{e1: temporal.AlwaysElement()}
	prob := map[string]float64{e1: 1}
	var visit func(n string)
	visit = func(n string) {
		for _, e := range d.up[n] {
			if ctx.Trans != nil && !e.annot.Time.Trans.Contains(*ctx.Trans, ctx.Ref) {
				continue
			}
			np := prob[n] * e.annot.Prob
			if np < ctx.MinProb || np <= 0 {
				continue
			}
			t := reach[n].Intersect(e.annot.Time.Valid)
			if t.IsEmpty() {
				continue
			}
			old, seen := reach[e.other]
			merged := old.Union(t)
			better := !seen || !merged.Equal(old) || np > prob[e.other]
			if !seen || !merged.Equal(old) {
				reach[e.other] = merged
			}
			if np > prob[e.other] {
				prob[e.other] = np
			}
			if better {
				visit(e.other)
			}
		}
	}
	visit(e1)
	t, ok := reach[e2]
	if !ok {
		return temporal.Empty(), 0
	}
	return t, prob[e2]
}

// Ancestors returns every value reachable upward from id through edges
// admitted by the context (excluding id itself and ⊤), unsorted.
func (d *Dimension) Ancestors(id string, ctx Context) []string {
	seen := map[string]bool{}
	stack := []string{id}
	var out []string
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, e := range d.up[n] {
			if seen[e.other] || !ctx.Admits(e.annot) {
				continue
			}
			seen[e.other] = true
			out = append(out, e.other)
			stack = append(stack, e.other)
		}
	}
	return out
}

// AncestorsIn returns the sorted values a of the given category with
// e ⊑ a under the context. For the category of e itself, the result is {e}.
func (d *Dimension) AncestorsIn(cat, id string, ctx Context) []string {
	var out []string
	for cand := range d.catVals[cat] {
		if ok, _ := d.LessEq(id, cand, ctx); ok {
			out = append(out, cand)
		}
	}
	sort.Strings(out)
	return out
}

// DescendantsIn returns the sorted values c of the given category with
// c ⊑ id under the context.
func (d *Dimension) DescendantsIn(cat, id string, ctx Context) []string {
	var out []string
	for cand := range d.catVals[cat] {
		if ok, _ := d.LessEq(cand, id, ctx); ok {
			out = append(out, cand)
		}
	}
	sort.Strings(out)
	return out
}

// Numeric interprets a value for use as an aggregate-function argument: the
// "Value" representation if present, otherwise the id itself, parsed
// according to the category's kind. Date values are returned as chronon
// numbers. ok is false for the ⊤ value, string categories, and unparsable
// data.
func (d *Dimension) Numeric(id string, ctx Context) (float64, bool) {
	cat, okc := d.valueCat[id]
	if !okc || id == TopValue {
		return 0, false
	}
	text := id
	if rep, ok := d.reps["Value"]; ok {
		if v, okr := rep.RepOf(id, ctx); okr {
			text = v
		}
	}
	switch d.dtype.CategoryType(cat).Kind {
	case KindInt:
		n, err := strconv.ParseInt(text, 10, 64)
		if err != nil {
			return 0, false
		}
		return float64(n), true
	case KindFloat:
		f, err := strconv.ParseFloat(text, 64)
		if err != nil {
			return 0, false
		}
		return f, true
	case KindDate:
		c, err := temporal.ParseDate(text)
		if err != nil {
			return 0, false
		}
		return float64(c.Resolve(ctx.Ref)), true
	default:
		return 0, false
	}
}

// Clone returns a deep copy of the dimension (sharing the immutable type).
func (d *Dimension) Clone() *Dimension {
	nd := New(d.dtype)
	for id, cat := range d.valueCat {
		if id == TopValue {
			continue
		}
		nd.valueCat[id] = cat
		nd.memberAt[id] = d.memberAt[id]
		if nd.catVals[cat] == nil {
			nd.catVals[cat] = map[string]bool{}
		}
		nd.catVals[cat][id] = true
	}
	for child, es := range d.up {
		cp := make([]edge, len(es))
		copy(cp, es)
		nd.up[child] = cp
	}
	for parent, es := range d.down {
		cp := make([]edge, len(es))
		copy(cp, es)
		nd.down[parent] = cp
	}
	for name, r := range d.reps {
		nd.reps[name] = r.clone()
	}
	return nd
}
