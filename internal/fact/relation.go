package fact

import (
	"slices"
	"sort"

	"mddm/internal/dimension"
)

// Pair is one annotated element (f, e) ∈Tv,p R of a fact–dimension
// relation.
type Pair struct {
	FactID  string
	ValueID string
	Annot   dimension.Annot
}

// Entry is one (value, annotation) of a fact's slice in a relation: the
// fact-less half of a Pair.
type Entry struct {
	ValueID string
	Annot   dimension.Annot
}

// Relation is a fact–dimension relation R between a fact set and a
// dimension: a set of annotated (fact, value) pairs. A fact may be related
// to any number of values, at any granularity — the relation captures the
// many-to-many relationships and mixed granularities of requirement 6
// and 9. Duplicate (fact, value) pairs coalesce their chronon sets.
//
// Each fact holds its values as a small unordered slice without
// duplicates: a fact has one to three values per dimension, so a linear
// scan beats a per-fact map and costs a fraction of its memory. The
// value→facts postings FactsOf reads exist only once something asks for
// them.
type Relation struct {
	pairs  map[string][]Entry // fact -> its values, unordered
	nPairs int
	// byVal holds the value→facts postings. It is nil until the first
	// FactsOf builds it from pairs in one pass, and maintained by every
	// mutator from then on.
	byVal map[string]map[string]bool
	// fill, when non-nil, holds a deferred bulk load (NewRelationDeferred):
	// the pairs do not exist yet and the first access of any kind runs
	// fill to build them. Every public method materializes first.
	fill func(*Relation)
}

// NewRelation returns an empty fact–dimension relation.
func NewRelation() *Relation {
	return &Relation{pairs: map[string][]Entry{}}
}

// NewRelationDeferred returns a relation whose contents arrive lazily:
// fill runs exactly once, on the relation's first access of any kind,
// and populates it through the normal mutators (typically AdoptPairs).
// nFacts pre-sizes the pair map when the fill runs. A restore can hand
// back a model in O(decode) and let each relation pay its build cost
// when — and only when — something actually reads or writes it; an
// engine serving queries from bitmaps and columns may never touch the
// relation at all.
func NewRelationDeferred(nFacts int, fill func(*Relation)) *Relation {
	return &Relation{fill: func(r *Relation) {
		r.pairs = make(map[string][]Entry, nFacts)
		fill(r)
	}}
}

// materialize runs a pending deferred fill. Clearing fill first makes
// the mutators the fill itself calls re-entrant no-ops here.
func (r *Relation) materialize() {
	if r.fill == nil {
		return
	}
	fill := r.fill
	r.fill = nil
	fill(r)
}

// find returns the index of valueID in es, or -1.
func find(es []Entry, valueID string) int {
	for i := range es {
		if es[i].ValueID == valueID {
			return i
		}
	}
	return -1
}

// post records (f, e) in the postings, if they are built.
func (r *Relation) post(factID, valueID string) {
	if r.byVal == nil {
		return
	}
	fs := r.byVal[valueID]
	if fs == nil {
		fs = map[string]bool{}
		r.byVal[valueID] = fs
	}
	fs[factID] = true
}

// AdoptPairs records every (factID, value) pair of es at once, taking
// ownership of the slice — the caller must not use it afterwards, and it
// must not repeat a value. For a fact not yet in the relation this skips
// the per-pair coalescing walk AddAnnot does; a fact already present
// falls back to AddAnnot so the coalescing semantics hold regardless.
func (r *Relation) AdoptPairs(factID string, es []Entry) {
	r.materialize()
	if len(es) == 0 {
		return
	}
	if _, exists := r.pairs[factID]; exists {
		for _, e := range es {
			r.AddAnnot(factID, e.ValueID, e.Annot)
		}
		return
	}
	r.pairs[factID] = es
	r.nPairs += len(es)
	for _, e := range es {
		r.post(factID, e.ValueID)
	}
}

// ValuesLen returns the number of values directly related to a fact.
func (r *Relation) ValuesLen(factID string) int {
	r.materialize()
	return len(r.pairs[factID])
}

// RangeValues calls fn for every (value, annotation) directly related to
// a fact, in unspecified order, stopping early when fn returns false.
// Unlike ValuesOf it allocates nothing; the relation must not be mutated
// during the walk.
func (r *Relation) RangeValues(factID string, fn func(valueID string, a dimension.Annot) bool) {
	r.materialize()
	for _, e := range r.pairs[factID] {
		if !fn(e.ValueID, e.Annot) {
			return
		}
	}
}

// Range calls fn for every pair of the relation, in unspecified order,
// stopping early when fn returns false. Unlike Pairs it allocates
// nothing; the relation must not be mutated during the walk.
func (r *Relation) Range(fn func(factID, valueID string, a dimension.Annot) bool) {
	r.materialize()
	for f, es := range r.pairs {
		for _, e := range es {
			if !fn(f, e.ValueID, e.Annot) {
				return
			}
		}
	}
}

// Add records (f, e) ∈ R with an Always annotation.
func (r *Relation) Add(factID, valueID string) {
	r.AddAnnot(factID, valueID, dimension.Always())
}

// AddAnnot records (f, e) ∈Tv R. A pre-existing pair coalesces: chronon
// sets union per the paper's rule for value-equivalent data, probabilities
// combine by max.
func (r *Relation) AddAnnot(factID, valueID string, a dimension.Annot) {
	r.materialize()
	es := r.pairs[factID]
	if i := find(es, valueID); i >= 0 {
		old := es[i].Annot
		es[i].Annot = dimension.Annot{Time: old.Time.Union(a.Time), Prob: max(old.Prob, a.Prob)}
		return
	}
	r.pairs[factID] = append(es, Entry{ValueID: valueID, Annot: a})
	r.nPairs++
	r.post(factID, valueID)
}

// Remove deletes the (fact, value) pair.
func (r *Relation) Remove(factID, valueID string) {
	r.materialize()
	es := r.pairs[factID]
	i := find(es, valueID)
	if i < 0 {
		return
	}
	last := len(es) - 1
	es[i] = es[last]
	es[last] = Entry{} // drop the references the shortened slice still holds
	if last == 0 {
		delete(r.pairs, factID)
	} else {
		r.pairs[factID] = es[:last]
	}
	r.nPairs--
	if fs, ok := r.byVal[valueID]; ok {
		delete(fs, factID)
		if len(fs) == 0 {
			delete(r.byVal, valueID)
		}
	}
}

// Annot returns the annotation of the pair (f, e) and whether it exists.
func (r *Relation) Annot(factID, valueID string) (dimension.Annot, bool) {
	r.materialize()
	es := r.pairs[factID]
	if i := find(es, valueID); i >= 0 {
		return es[i].Annot, true
	}
	return dimension.Annot{}, false
}

// Has reports whether (f, e) ∈ R for some annotation.
func (r *Relation) Has(factID, valueID string) bool {
	r.materialize()
	return find(r.pairs[factID], valueID) >= 0
}

// ValuesOf returns the sorted dimension values directly related to a fact.
func (r *Relation) ValuesOf(factID string) []string {
	r.materialize()
	es := r.pairs[factID]
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.ValueID
	}
	sort.Strings(out)
	return out
}

// FactsOf returns the sorted facts directly related to a value. The first
// call builds the value→facts postings for the whole relation.
func (r *Relation) FactsOf(valueID string) []string {
	r.materialize()
	if r.byVal == nil {
		r.byVal = map[string]map[string]bool{}
		for f, es := range r.pairs {
			for _, e := range es {
				r.post(f, e.ValueID)
			}
		}
	}
	out := make([]string, 0, len(r.byVal[valueID]))
	for f := range r.byVal[valueID] {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Facts returns the sorted fact ids that appear in the relation.
func (r *Relation) Facts() []string {
	r.materialize()
	out := make([]string, 0, len(r.pairs))
	for f := range r.pairs {
		out = append(out, f)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of (fact, value) pairs.
func (r *Relation) Len() int {
	r.materialize()
	return r.nPairs
}

// Pairs returns all pairs sorted by fact then value, for deterministic
// iteration and rendering.
func (r *Relation) Pairs() []Pair {
	out := make([]Pair, 0, r.Len())
	r.Range(func(f, v string, a dimension.Annot) bool {
		out = append(out, Pair{FactID: f, ValueID: v, Annot: a})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		if out[i].FactID != out[j].FactID {
			return out[i].FactID < out[j].FactID
		}
		return out[i].ValueID < out[j].ValueID
	})
	return out
}

// Restrict returns a new relation keeping only pairs whose fact is in keep.
func (r *Relation) Restrict(keep func(factID string) bool) *Relation {
	r.materialize()
	n := NewRelation()
	for f, es := range r.pairs {
		if keep(f) {
			n.pairs[f] = slices.Clone(es)
			n.nPairs += len(es)
		}
	}
	return n
}

// Union returns the union of two relations, coalescing common pairs per the
// paper's temporal union rule: (f,e) ∈T1 R1 ∧ (f,e) ∈T2 R2 ⇒
// (f,e) ∈T1∪T2 R'.
func (r *Relation) Union(o *Relation) *Relation {
	n := r.Clone()
	o.Range(func(f, v string, a dimension.Annot) bool {
		n.AddAnnot(f, v, a)
		return true
	})
	return n
}

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	return r.Restrict(func(string) bool { return true })
}

// Equal reports whether two relations hold the same pairs with equal
// annotations.
func (r *Relation) Equal(o *Relation) bool {
	if r.Len() != o.Len() {
		return false
	}
	eq := true
	r.Range(func(f, v string, a dimension.Annot) bool {
		b, ok := o.Annot(f, v)
		eq = ok && a.Prob == b.Prob &&
			a.Time.Valid.Equal(b.Time.Valid) && a.Time.Trans.Equal(b.Time.Trans)
		return eq
	})
	return eq
}
