package fact

import (
	"maps"
	"slices"
	"sort"
	"sync"

	"mddm/internal/dimension"
	"mddm/internal/temporal"
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
// The pairs hold no pointers, so the garbage collector has nothing to
// trace inside them. Each fact, numbered by its MO's dictionary (Dict),
// has a span of one flat entry array: a fact has one to three values per
// dimension, so a linear scan of its span beats a per-fact map. An entry
// is a value code from the relation's dictionary, the runs of its valid
// and transaction time in one interval arena, and its probability. Writes
// never rewrite the arena: a coalescing union is stored at its end, and a
// span that must grow but is not the last one moves to the tail. The
// space they leave behind is reclaimed by compaction once it outweighs
// the live data.
//
// Reads may run in parallel with each other but not with a write. A
// deferred relation's fill runs once, whichever read comes first, and
// after it a read never writes.
type Relation struct {
	dict *Dict // numbers the facts of spans; only Rekey writes it
	layout
	// fill, when non-nil, is a deferred bulk load (NewRelationDeferred):
	// the pairs do not exist until the first access of any kind runs it,
	// once. It is set at construction and never written after, so every
	// method may test it without a lock.
	fill func()
	once sync.Once
}

// layout is a relation's contents.
type layout struct {
	spans []span   // dense fact id -> its entries; a zero span has none
	ents  []entry  // every span's entries, with dead space
	dead  int      // entries of ents no span covers
	vals  []string // value code -> value id
	codes map[string]uint32
	times temporal.Arena // the valid and transaction times of ents
	// deadIvs counts the arena intervals no live entry refers to.
	deadIvs int
}

// span locates one fact's entries: ents[off : off+n].
type span struct{ off, n uint32 }

// entry is one (value, annotation) of a span.
type entry struct {
	val          uint32 // code in the relation's dictionary
	valid, trans temporal.Run
	prob         float64
}

// compactMin is the least dead space, in entries or in intervals, that
// compaction reclaims; below it the copy costs more than the space.
// FuzzRelation lowers it so that short operation sequences compact.
var compactMin = 256

// NewRelation returns an empty relation over a dictionary of its own.
func NewRelation() *Relation { return NewRelationOver(NewDict()) }

// NewRelationOver returns an empty relation over d, its MO's dictionary.
func NewRelationOver(d *Dict) *Relation { return &Relation{dict: d} }

// NewRelationDeferred returns a relation over d whose contents arrive
// lazily: fill runs exactly once, on the relation's first access of any
// kind, and populates it through the normal mutators (typically
// AdoptPairs). A restore can hand back a model in O(decode) and let each
// relation pay its build cost when — and only when — something actually
// reads or writes it; an engine serving queries from bitmaps and columns
// may never touch the relation at all. Several goroutines may make the
// first read at once: one runs the fill and the others wait for it, so
// the fill must not intern new facts into d.
func NewRelationDeferred(d *Dict, fill func(*Relation)) *Relation {
	r := &Relation{dict: d}
	r.fill = func() {
		// The fill writes a relation of its own: its mutators materialize,
		// and on r they would wait for the fill that is calling them.
		b := NewRelationOver(d)
		b.spans = make([]span, d.Len())
		fill(b)
		fill = nil // what it captured is garbage now
		r.layout = b.layout
	}
	return r
}

// materialize runs a pending deferred fill.
func (r *Relation) materialize() {
	if r.fill != nil {
		r.once.Do(r.fill)
	}
}

// code returns valueID's dictionary code, adding it if new.
func (r *Relation) code(valueID string) uint32 {
	if c, ok := r.codes[valueID]; ok {
		return c
	}
	if r.codes == nil {
		r.codes = map[string]uint32{}
	}
	c := uint32(len(r.vals))
	r.vals = append(r.vals, valueID)
	r.codes[valueID] = c
	return c
}

// entry stores a's chronon sets in the arena and returns the entry of
// (valueID, a).
func (r *Relation) entry(valueID string, a dimension.Annot) entry {
	return entry{
		val:   r.code(valueID),
		valid: r.times.Put(a.Time.Valid),
		trans: r.times.Put(a.Time.Trans),
		prob:  a.Prob,
	}
}

// find returns the index in ents of valueID's entry in sp, or -1.
func (r *Relation) find(sp span, valueID string) int {
	for i := sp.off; i < sp.off+sp.n; i++ {
		if r.vals[r.ents[i].val] == valueID {
			return int(i)
		}
	}
	return -1
}

// spanOf returns factID's span, zero when it has none.
func (r *Relation) spanOf(factID string) span {
	if i, ok := r.dict.Lookup(factID); ok && int(i) < len(r.spans) {
		return r.spans[i]
	}
	return span{}
}

// entries returns the factID's entries, empty when it has none.
func (r *Relation) entries(factID string) []entry {
	sp := r.spanOf(factID)
	return r.ents[sp.off : sp.off+sp.n]
}

// cover extends s with zero values to cover dense id i.
func cover[T any](s []T, i uint32) []T {
	if int(i) < len(s) {
		return s
	}
	return append(s, make([]T, int(i)+1-len(s))...)
}

// AdoptPairs records every (factID, value) pair of es at once; es must
// not repeat a value. The relation copies the entries, so the caller may
// reuse es. For a fact not yet in the relation this skips the per-pair
// coalescing walk AddAnnot does; a fact already present falls back to
// AddAnnot so the coalescing semantics hold regardless.
func (r *Relation) AdoptPairs(factID string, es []Entry) {
	r.materialize()
	if len(es) == 0 {
		return
	}
	i := r.dict.Intern(factID)
	if r.spans = cover(r.spans, i); r.spans[i].n > 0 {
		for _, e := range es {
			r.AddAnnot(factID, e.ValueID, e.Annot)
		}
		return
	}
	r.spans[i] = span{off: uint32(len(r.ents)), n: uint32(len(es))}
	for _, e := range es {
		r.ents = append(r.ents, r.entry(e.ValueID, e.Annot))
	}
}

// ValuesLen returns the number of values directly related to a fact.
func (r *Relation) ValuesLen(factID string) int {
	r.materialize()
	return int(r.spanOf(factID).n)
}

// RangeValues calls fn for every (value, annotation) directly related to
// a fact, in unspecified order, stopping early when fn returns false.
// Unlike ValuesOf it allocates nothing; the relation must not be mutated
// during the walk.
func (r *Relation) RangeValues(factID string, fn func(valueID string, a dimension.Annot) bool) {
	r.materialize()
	for _, e := range r.entries(factID) {
		// The annotation is built in place: a helper returning it is too
		// large to inline, and its out-of-line result costs a
		// store-forwarding stall per pair. Its elements are windows of the
		// arena, which no later write changes.
		a := dimension.Annot{Time: temporal.Bitemporal{Valid: r.times.Get(e.valid), Trans: r.times.Get(e.trans)}, Prob: e.prob}
		if !fn(r.vals[e.val], a) {
			return
		}
	}
}

// Range calls fn for every pair of the relation, in unspecified order,
// stopping early when fn returns false. Unlike Pairs it allocates
// nothing; the relation must not be mutated during the walk.
func (r *Relation) Range(fn func(factID, valueID string, a dimension.Annot) bool) {
	r.materialize()
	for i, sp := range r.spans {
		if sp.n == 0 {
			continue
		}
		f := r.dict.At(uint32(i))
		for _, e := range r.ents[sp.off : sp.off+sp.n] {
			a := dimension.Annot{Time: temporal.Bitemporal{Valid: r.times.Get(e.valid), Trans: r.times.Get(e.trans)}, Prob: e.prob}
			if !fn(f, r.vals[e.val], a) {
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
	r.AddDenseAnnot(r.dict.Intern(factID), valueID, a)
}

// AddDenseAnnot is AddAnnot for the fact of dense id id, which the
// relation's dictionary must number already: a caller that interned the
// fact id once passes what it got.
func (r *Relation) AddDenseAnnot(id uint32, valueID string, a dimension.Annot) {
	r.materialize()
	r.spans = cover(r.spans, id)
	sp := r.spans[id]
	exists := sp.n > 0
	if exists {
		if i := r.find(sp, valueID); i >= 0 {
			e := &r.ents[i]
			e.valid = r.union(e.valid, a.Time.Valid)
			e.trans = r.union(e.trans, a.Time.Trans)
			e.prob = max(e.prob, a.Prob)
			r.maybeCompact()
			return
		}
	}
	tail := uint32(len(r.ents))
	switch {
	case !exists:
		sp = span{off: tail}
	case sp.off+sp.n != tail: // not the last span: move it to the tail
		r.ents = append(r.ents, r.ents[sp.off:sp.off+sp.n]...)
		r.dead += int(sp.n)
		sp.off = tail
	}
	r.ents = append(r.ents, r.entry(valueID, a))
	sp.n++
	r.spans[id] = sp
	r.maybeCompact()
}

// union returns the run of run's element united with o. An unchanged
// union keeps its run; a changed one is stored at the arena's end.
func (r *Relation) union(run temporal.Run, o temporal.Element) temporal.Run {
	old := r.times.Get(run)
	u := old.Union(o)
	if u.Equal(old) {
		return run
	}
	r.deadIvs += run.Len()
	return r.times.Put(u)
}

// Remove deletes the (fact, value) pair.
func (r *Relation) Remove(factID, valueID string) {
	r.materialize()
	id, ok := r.dict.Lookup(factID)
	if !ok || int(id) >= len(r.spans) {
		return
	}
	sp := r.spans[id]
	i := r.find(sp, valueID)
	if i < 0 {
		return
	}
	r.deadIvs += r.ents[i].valid.Len() + r.ents[i].trans.Len()
	last := int(sp.off + sp.n - 1)
	r.ents[i] = r.ents[last]
	if last == len(r.ents)-1 {
		r.ents = r.ents[:last]
	} else {
		r.dead++
	}
	if sp.n--; sp.n == 0 {
		sp = span{}
	}
	r.spans[id] = sp
	r.maybeCompact()
}

// maybeCompact rewrites the spans without dead space once the dead
// entries or intervals outweigh the live ones. The new arrays are fresh,
// so annotations handed out earlier keep reading the old ones.
func (r *Relation) maybeCompact() {
	deadEnts := r.dead >= compactMin && 2*r.dead > len(r.ents)
	deadIvs := r.deadIvs >= compactMin && 2*r.deadIvs > r.times.Len()
	if deadEnts || deadIvs {
		r.spans, r.ents, r.times = r.compact(nil)
		r.dead, r.deadIvs = 0, 0
	}
}

// compact returns the spans of the facts keep admits (all of them when
// keep is nil), laid out without dead space in fresh arrays that share
// r's value codes. A first pass picks the spans and sizes the arrays
// exactly; the second moves each span's entries and intervals.
func (r *Relation) compact(keep func(factID string) bool) ([]span, []entry, temporal.Arena) {
	spans := make([]span, len(r.spans))
	nEnts, nIvs := 0, 0
	for i, sp := range r.spans {
		if sp.n > 0 && (keep == nil || keep(r.dict.At(uint32(i)))) {
			spans[i] = sp
			nEnts += int(sp.n)
			for _, e := range r.ents[sp.off : sp.off+sp.n] {
				nIvs += e.valid.Len() + e.trans.Len()
			}
		}
	}
	ents := make([]entry, 0, nEnts)
	var times temporal.Arena
	times.Grow(nIvs)
	for i, sp := range spans {
		if sp.n == 0 {
			continue
		}
		spans[i] = span{off: uint32(len(ents)), n: sp.n}
		for _, e := range r.ents[sp.off : sp.off+sp.n] {
			e.valid = times.Put(r.times.Get(e.valid))
			e.trans = times.Put(r.times.Get(e.trans))
			ents = append(ents, e)
		}
	}
	return spans, ents, times
}

// Rekey numbers the relation's facts by d, the dictionary of the MO it
// joins, interning the ones d lacks. Only the span table is rebuilt: the
// entries and the arena stay where they are.
func (r *Relation) Rekey(d *Dict) {
	if r.dict == d {
		return
	}
	r.materialize()
	spans := make([]span, 0, d.Len())
	for i, sp := range r.spans {
		if sp.n > 0 {
			j := d.Intern(r.dict.At(uint32(i)))
			spans = cover(spans, j)
			spans[j] = sp
		}
	}
	r.dict, r.spans = d, spans
}

// Annot returns the annotation of the pair (f, e) and whether it exists.
func (r *Relation) Annot(factID, valueID string) (dimension.Annot, bool) {
	r.materialize()
	if i := r.find(r.spanOf(factID), valueID); i >= 0 {
		e := r.ents[i]
		return dimension.Annot{Time: temporal.Bitemporal{Valid: r.times.Get(e.valid), Trans: r.times.Get(e.trans)}, Prob: e.prob}, true
	}
	return dimension.Annot{}, false
}

// Has reports whether (f, e) ∈ R for some annotation.
func (r *Relation) Has(factID, valueID string) bool {
	r.materialize()
	return r.find(r.spanOf(factID), valueID) >= 0
}

// ValuesOf returns the sorted dimension values directly related to a fact.
func (r *Relation) ValuesOf(factID string) []string {
	r.materialize()
	es := r.entries(factID)
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = r.vals[e.val]
	}
	sort.Strings(out)
	return out
}

// Len returns the number of (fact, value) pairs.
func (r *Relation) Len() int {
	r.materialize()
	return len(r.ents) - r.dead
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

// Restrict returns a new relation over d, the dictionary of the MO it is
// for, keeping only pairs whose fact is in keep (all when keep is nil),
// laid out without dead space.
func (r *Relation) Restrict(d *Dict, keep func(factID string) bool) *Relation {
	r.materialize()
	n := &Relation{dict: r.dict, layout: layout{vals: slices.Clone(r.vals), codes: maps.Clone(r.codes)}}
	n.spans, n.ents, n.times = r.compact(keep)
	n.Rekey(d)
	return n
}

// Union returns the union of two relations over a dictionary of its own,
// coalescing common pairs per the paper's temporal union rule:
// (f,e) ∈T1 R1 ∧ (f,e) ∈T2 R2 ⇒ (f,e) ∈T1∪T2 R'.
func (r *Relation) Union(o *Relation) *Relation {
	n := r.Clone(NewDict())
	o.Range(func(f, v string, a dimension.Annot) bool {
		n.AddAnnot(f, v, a)
		return true
	})
	return n
}

// Clone returns a deep copy of the relation over d, laid out without
// dead space.
func (r *Relation) Clone(d *Dict) *Relation { return r.Restrict(d, nil) }

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
