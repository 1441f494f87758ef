// Package fact implements facts and fact–dimension relations of the
// extended multidimensional data model (Pedersen & Jensen, ICDE 1999,
// §3.1–3.3). Facts are objects with separate identity: they can be tested
// for equality but carry no ordering, and the combination of dimension
// values characterizing a fact is not a key. Fact–dimension relations link
// facts to dimension values at any granularity, are many-to-many, and carry
// bitemporal and probability annotations.
package fact

import (
	"fmt"
	"maps"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
)

// Fact is a fact with separate identity. Result MOs of the
// aggregate-formation operator have facts of type 2^F — sets of argument
// facts — represented by a non-nil Members list; the algebra stays closed
// because a set-valued fact is an ordinary fact with identity.
type Fact struct {
	ID      string
	Members []string // nil for base facts; sorted member ids for set facts
}

// NewFact returns a base fact with the given identity.
func NewFact(id string) Fact { return Fact{ID: id} }

// NewGroup returns a set-valued fact whose identity is the canonical
// rendering of its member set, e.g. "{1,2}". The member list is sorted and
// de-duplicated.
func NewGroup(members []string) Fact {
	return NewGroupTagged(members, "")
}

// NewGroupTagged returns a set-valued fact whose identity additionally
// carries a tag, e.g. "{1,2}@G12". Aggregate formation with probabilistic
// functions uses the tag to keep groups with equal member sets but
// different grouping combinations apart — their results differ because the
// membership probabilities depend on the combination.
func NewGroupTagged(members []string, tag string) Fact {
	set := map[string]bool{}
	for _, m := range members {
		set[m] = true
	}
	sorted := make([]string, 0, len(set))
	for m := range set {
		sorted = append(sorted, m)
	}
	sort.Strings(sorted)
	id := "{" + strings.Join(sorted, ",") + "}"
	if tag != "" {
		id += "@" + tag
	}
	return Fact{ID: id, Members: sorted}
}

// IsGroup reports whether the fact is set-valued.
func (f Fact) IsGroup() bool { return f.Members != nil }

// Size returns the number of members of a set-valued fact, or 1 for a base
// fact (a base fact stands for itself).
func (f Fact) Size() int {
	if f.Members == nil {
		return 1
	}
	return len(f.Members)
}

// String returns the fact's identity.
func (f Fact) String() string { return f.ID }

// Dict numbers fact ids densely, in the order they are first interned.
// An MO's fact set and relations share one, so a fact id is stored and
// hashed once and what is kept per fact is an array indexed by dense id.
// Like Relation, it is not safe for concurrent writes: reads may run in
// parallel with each other but not with Intern.
type Dict struct {
	ids []string
	idx map[string]uint32
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{idx: map[string]uint32{}} }

// Intern returns id's dense id, numbering it next when it is new.
func (d *Dict) Intern(id string) uint32 {
	if i, ok := d.idx[id]; ok {
		return i
	}
	i := uint32(len(d.ids))
	d.ids = append(d.ids, id)
	d.idx[id] = i
	return i
}

// InternAll interns ids in turn and returns their dense ids. It sizes
// the dictionary for all of them first, so a large batch rehashes
// nothing while it grows.
func (d *Dict) InternAll(ids []string) []uint32 {
	idx := make(map[string]uint32, len(d.idx)+len(ids))
	maps.Copy(idx, d.idx)
	d.idx, d.ids = idx, slices.Grow(d.ids, len(ids))
	out := make([]uint32, len(ids))
	for k, id := range ids {
		out[k] = d.Intern(id)
	}
	return out
}

// Lookup returns id's dense id and whether id is interned.
func (d *Dict) Lookup(id string) (uint32, bool) {
	i, ok := d.idx[id]
	return i, ok
}

// At returns the fact id of dense id i.
func (d *Dict) At(i uint32) string { return d.ids[i] }

// Len returns the number of interned ids: every dense id is below it.
func (d *Dict) Len() int { return len(d.ids) }

// Set is a set of facts keyed by identity — the F component of an MO.
// Duplicate facts cannot occur. It is membership over a dictionary, plus
// the member lists of the set-valued facts aggregate formation creates.
type Set struct {
	dict    *Dict
	in      []bool // by dense id
	n       int
	members map[uint32][]string
	// sorted holds Dense's order until the membership changes. Atomic,
	// because readers that may run in parallel each fill it on first use.
	sorted atomic.Pointer[[]uint32]
}

// NewSet returns a set of the given facts over a dictionary of its own.
func NewSet(facts ...Fact) *Set {
	s := &Set{dict: NewDict(), members: map[uint32][]string{}}
	for _, f := range facts {
		s.Add(f)
	}
	return s
}

// Dict returns the dictionary the set's facts are members of.
func (s *Set) Dict() *Dict { return s.dict }

// Add inserts a fact (idempotent; adding it again replaces its members).
func (s *Set) Add(f Fact) {
	i := s.dict.Intern(f.ID)
	s.add(i)
	if f.Members == nil {
		delete(s.members, i)
	} else {
		s.members[i] = f.Members
	}
}

// AddDense inserts the fact of dense id i, which the dictionary must
// number already; its members, if it has any, stay as they are.
func (s *Set) AddDense(i uint32) error {
	if int(i) >= s.dict.Len() {
		return fmt.Errorf("fact: dense id %d is not in a dictionary of %d ids", i, s.dict.Len())
	}
	s.add(i)
	return nil
}

func (s *Set) add(i uint32) {
	if s.in = cover(s.in, i); !s.in[i] {
		s.in[i] = true
		s.n++
		s.sorted.Store(nil)
	}
}

// Remove deletes a fact by identity. Its id stays in the dictionary.
func (s *Set) Remove(id string) {
	if i, ok := s.dict.Lookup(id); ok && s.HasDense(i) {
		s.in[i] = false
		s.n--
		s.sorted.Store(nil)
		delete(s.members, i)
	}
}

// Has reports membership by identity.
func (s *Set) Has(id string) bool {
	i, ok := s.dict.Lookup(id)
	return ok && s.HasDense(i)
}

// HasDense reports membership by dense id.
func (s *Set) HasDense(i uint32) bool { return int(i) < len(s.in) && s.in[i] }

// Get returns the fact with the given identity.
func (s *Set) Get(id string) (Fact, bool) {
	if i, ok := s.dict.Lookup(id); ok && s.HasDense(i) {
		return Fact{ID: id, Members: s.members[i]}, true
	}
	return Fact{}, false
}

// Len returns the number of facts.
func (s *Set) Len() int { return s.n }

// IDs returns the sorted fact identities, in Dense's order.
func (s *Set) IDs() []string {
	dense := s.Dense()
	out := make([]string, len(dense))
	for k, i := range dense {
		out[k] = s.dict.ids[i]
	}
	return out
}

// Dense returns the members' dense ids, sorted by fact id. The order is
// sorted once per change of membership and shared by every call until
// the next: the caller must not write into the slice, and since its
// capacity is its length, an append to it copies.
func (s *Set) Dense() []uint32 {
	if p := s.sorted.Load(); p != nil {
		return *p
	}
	out := make([]uint32, 0, s.n)
	for i, in := range s.in {
		if in {
			out = append(out, uint32(i))
		}
	}
	slices.SortFunc(out, func(a, b uint32) int { return strings.Compare(s.dict.ids[a], s.dict.ids[b]) })
	out = slices.Clip(out)
	s.sorted.Store(&out)
	return out
}

// Range calls fn for every member's id, in dictionary order, stopping
// early when fn returns false. It sorts nothing: a walk that only needs
// membership, not the fact-id order IDs gives, takes it.
func (s *Set) Range(fn func(id string) bool) {
	for i, in := range s.in {
		if in && !fn(s.dict.ids[i]) {
			return
		}
	}
}

// All returns the facts sorted by identity.
func (s *Set) All() []Fact {
	ids := s.IDs()
	out := make([]Fact, len(ids))
	for k, f := range ids {
		out[k], _ = s.Get(f)
	}
	return out
}

// Union returns the set union F1 ∪ F2.
func (s *Set) Union(o *Set) *Set { return o.addTo(s.addTo(NewSet(), nil), nil) }

// Difference returns the set difference F1 \ F2.
func (s *Set) Difference(o *Set) *Set { return s.addTo(NewSet(), o) }

// addTo adds to n every fact of s that except does not hold, in
// dictionary order, and returns n.
func (s *Set) addTo(n, except *Set) *Set {
	for i, in := range s.in {
		if id := s.dict.ids[i]; in && (except == nil || !except.Has(id)) {
			n.Add(Fact{ID: id, Members: s.members[uint32(i)]})
		}
	}
	return n
}

// Equal reports whether the two sets hold the same fact identities.
func (s *Set) Equal(o *Set) bool {
	if s.Len() != o.Len() {
		return false
	}
	for i, in := range s.in {
		if in && !o.Has(s.dict.ids[i]) {
			return false
		}
	}
	return true
}

// Clone returns a copy of the set over a copy of its dictionary: the
// copy numbers every fact as the original does.
func (s *Set) Clone() *Set {
	return &Set{
		dict:    &Dict{ids: slices.Clone(s.dict.ids), idx: maps.Clone(s.dict.idx)},
		in:      slices.Clone(s.in),
		n:       s.n,
		members: maps.Clone(s.members),
	}
}

// String renders the set as a sorted brace list.
func (s *Set) String() string {
	return "{" + strings.Join(s.IDs(), ", ") + "}"
}

// PairFact builds the fact (f1, f2) produced by the identity-based join:
// the new fact type is the type of pairs of the old fact types.
func PairFact(f1, f2 Fact) Fact {
	return Fact{ID: fmt.Sprintf("(%s,%s)", f1.ID, f2.ID)}
}
