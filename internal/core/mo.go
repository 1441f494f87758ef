package core

import (
	"fmt"

	"mddm/internal/dimension"
	"mddm/internal/fact"
	"mddm/internal/temporal"
)

// TemporalKind classifies an MO by the time attached to it (§3.2): a
// snapshot MO has no time, a valid-time MO records when statements hold in
// reality, a transaction-time MO records when they are current in the
// database, and a bitemporal MO records both.
type TemporalKind int

const (
	// Snapshot MOs carry no time.
	Snapshot TemporalKind = iota
	// ValidTime MOs carry valid time.
	ValidTime
	// TransactionTime MOs carry transaction time.
	TransactionTime
	// Bitemporal MOs carry both valid and transaction time.
	Bitemporal
)

// String names the temporal kind.
func (k TemporalKind) String() string {
	switch k {
	case Snapshot:
		return "snapshot"
	case ValidTime:
		return "valid-time"
	case TransactionTime:
		return "transaction-time"
	case Bitemporal:
		return "bitemporal"
	default:
		return fmt.Sprintf("TemporalKind(%d)", int(k))
	}
}

// MO is a multidimensional object: a four-tuple (S, F, D, R) of a fact
// schema, a set of facts, one dimension per dimension type, and one
// fact–dimension relation per dimension. Dimensions may be shared between
// MOs of a family (the *dimension.Dimension values are pointers). The
// fact set's dictionary numbers every relation's facts too.
type MO struct {
	schema *Schema
	facts  *fact.Set
	dims   map[string]*dimension.Dimension
	rels   map[string]*fact.Relation
	kind   TemporalKind
}

// NewMO creates an empty MO of the given schema with empty dimensions and
// relations. The temporal kind defaults to Snapshot; builders that attach
// time set it with SetKind.
func NewMO(s *Schema) *MO {
	m := &MO{
		schema: s,
		facts:  fact.NewSet(),
		dims:   map[string]*dimension.Dimension{},
		rels:   map[string]*fact.Relation{},
	}
	for _, name := range s.DimensionNames() {
		m.dims[name] = dimension.New(s.DimensionType(name))
		m.rels[name] = fact.NewRelationOver(m.facts.Dict())
	}
	return m
}

// Schema returns the MO's fact schema.
func (m *MO) Schema() *Schema { return m.schema }

// Kind returns the MO's temporal kind.
func (m *MO) Kind() TemporalKind { return m.kind }

// SetKind sets the MO's temporal kind.
func (m *MO) SetKind(k TemporalKind) { m.kind = k }

// Facts returns the MO's fact set (live; mutate with care).
func (m *MO) Facts() *fact.Set { return m.facts }

// Dimension returns the named dimension instance, or nil.
func (m *MO) Dimension(name string) *dimension.Dimension { return m.dims[name] }

// SetDimension replaces the named dimension instance; the instance's type
// must be the schema's type for that name (pointer-shared dimensions of an
// MO family are installed this way).
func (m *MO) SetDimension(name string, d *dimension.Dimension) error {
	want := m.schema.DimensionType(name)
	if want == nil {
		return fmt.Errorf("core: unknown dimension %q", name)
	}
	if !want.Isomorphic(d.Type()) {
		return fmt.Errorf("core: dimension %q has incompatible type %q", name, d.Type().Name())
	}
	m.dims[name] = d
	return nil
}

// Relation returns the fact–dimension relation of the named dimension, or
// nil.
func (m *MO) Relation(name string) *fact.Relation { return m.rels[name] }

// SetRelation replaces the named relation. The MO takes r over: a
// relation over another dictionary is re-keyed into the MO's.
func (m *MO) SetRelation(name string, r *fact.Relation) error {
	if m.schema.DimensionType(name) == nil {
		return fmt.Errorf("core: unknown dimension %q", name)
	}
	r.Rekey(m.facts.Dict())
	m.rels[name] = r
	return nil
}

// AddFact inserts a fact into F.
func (m *MO) AddFact(f fact.Fact) { m.facts.Add(f) }

// Pair is one characterization of a fact InsertFact adds: the fact is
// related to Value in dimension Dim with annotation Annot.
type Pair struct {
	Dim   string
	Value string
	Annot dimension.Annot
}

// CheckInsert reports why InsertFact would refuse the fact: it is in F
// already, or a pair's dimension does not hold its value.
func (m *MO) CheckInsert(factID string, pairs ...Pair) error {
	if m.facts.Has(factID) {
		return fmt.Errorf("core: fact %q already in the MO", factID)
	}
	for _, p := range pairs {
		if d := m.dims[p.Dim]; d == nil || !d.Has(p.Value) {
			return fmt.Errorf("core: fact %q: dimension %q has no value %q", factID, p.Dim, p.Value)
		}
	}
	return nil
}

// InsertFact adds a new fact to F with its pairs, all of them or, when
// CheckInsert refuses it, none. The fact set interns the id once; the
// relations find it there.
func (m *MO) InsertFact(factID string, pairs ...Pair) error {
	if err := m.CheckInsert(factID, pairs...); err != nil {
		return err
	}
	m.facts.Add(fact.NewFact(factID))
	for _, p := range pairs {
		m.rels[p.Dim].AddAnnot(factID, p.Value, p.Annot)
	}
	return nil
}

// Relate records (f, e) ∈ R_i for the named dimension with an Always
// annotation, adding the fact to F if new.
func (m *MO) Relate(dim, factID, valueID string) error {
	return m.RelateAnnot(dim, factID, valueID, dimension.Always())
}

// RelateAnnot records (f, e) ∈Tv R_i with the given annotation. The value
// must exist in the dimension (at any category — granularities mix freely).
func (m *MO) RelateAnnot(dim, factID, valueID string, a dimension.Annot) error {
	d, ok := m.dims[dim]
	if !ok {
		return fmt.Errorf("core: unknown dimension %q", dim)
	}
	if !d.Has(valueID) {
		return fmt.Errorf("core: dimension %q has no value %q", dim, valueID)
	}
	i := m.facts.Dict().Intern(factID) // the one hash of factID
	if err := m.facts.AddDense(i); err != nil {
		return err
	}
	m.rels[dim].AddDenseAnnot(i, valueID, a)
	return nil
}

// EnsureTotal adds the pair (f, ⊤) to every relation in which a fact of F
// does not yet appear — the model disallows missing values; an unknown
// characterization is represented by ⊤ (§3.1).
func (m *MO) EnsureTotal() {
	for _, name := range m.schema.DimensionNames() {
		r := m.rels[name]
		m.facts.Range(func(id string) bool {
			if r.ValuesLen(id) == 0 {
				r.Add(id, dimension.TopValue)
			}
			return true
		})
	}
}

// Validate checks the MO's integrity: every relation pair references an
// existing fact and an existing dimension value, and every fact is
// characterized in every dimension (no missing values).
func (m *MO) Validate() error {
	for _, name := range m.schema.DimensionNames() {
		d := m.dims[name]
		r := m.rels[name]
		if d == nil || r == nil {
			return fmt.Errorf("core: dimension %q missing instance or relation", name)
		}
		// The walk follows the dictionary's order, so the pair reported
		// is the same on every call.
		var err error
		r.Range(func(f, v string, _ dimension.Annot) bool {
			if !m.facts.Has(f) {
				err = fmt.Errorf("core: relation %q references unknown fact %q", name, f)
			} else if !d.Has(v) {
				err = fmt.Errorf("core: relation %q references unknown value %q", name, v)
			}
			return err == nil
		})
		if err != nil {
			return err
		}
		// Any order finds whether a fact lacks a value; the one reported
		// is the smallest such id, so the error does not depend on it.
		missing, lacks := "", false
		m.facts.Range(func(id string) bool {
			if r.ValuesLen(id) == 0 && (!lacks || id < missing) {
				missing, lacks = id, true
			}
			return true
		})
		if lacks {
			return fmt.Errorf("core: fact %q has no value in dimension %q (add (f,⊤) for unknown)", missing, name)
		}
	}
	return nil
}

// CharacterizedBy reports whether f ⤳ e in the named dimension under the
// context: some pair (f, e1) ∈ R with e1 ⊑ e, both admitted by the context.
// The returned probability is the maximum over witnesses e1 of
// P((f,e1)) · P(e1 ⊑ e).
func (m *MO) CharacterizedBy(dim, factID, valueID string, ctx dimension.Context) (bool, float64) {
	d, ok := m.dims[dim]
	if !ok {
		return false, 0
	}
	r := m.rels[dim]
	best := 0.0
	for _, e1 := range r.ValuesOf(factID) {
		a, _ := r.Annot(factID, e1)
		if !ctx.Admits(a) {
			continue
		}
		ok2, p2 := d.LessEq(e1, valueID, ctx)
		if !ok2 {
			continue
		}
		if p := a.Prob * p2; p > best {
			best = p
		}
	}
	return best >= ctx.MinProb && best > 0, best
}

// CharacterizationTime returns the valid-time element during which f ⤳Tv e
// holds: the union over witnesses e1 of the intersection of the pair's
// chronon set with the order's chronon set (§3.2), with the maximum
// admitted probability.
func (m *MO) CharacterizationTime(dim, factID, valueID string, ctx dimension.Context) (temporal.Element, float64) {
	d, ok := m.dims[dim]
	if !ok {
		return temporal.Empty(), 0
	}
	r := m.rels[dim]
	out := temporal.Empty()
	best := 0.0
	for _, e1 := range r.ValuesOf(factID) {
		a, _ := r.Annot(factID, e1)
		if ctx.Trans != nil && !a.Time.Trans.Contains(*ctx.Trans, ctx.Ref) {
			continue
		}
		ot, op := d.LessEqTime(e1, valueID, ctx)
		p := a.Prob * op
		if p < ctx.MinProb || p <= 0 {
			continue
		}
		t := a.Time.Valid.Intersect(ot)
		if t.IsEmpty() {
			continue
		}
		out = out.Union(t)
		if p > best {
			best = p
		}
	}
	return out, best
}

// Clone returns a deep copy of the MO. Dimensions are cloned too, so the
// copy shares nothing with the original.
func (m *MO) Clone() *MO {
	n := m.ShallowCloneSharing()
	for name, d := range m.dims {
		n.dims[name] = d.Clone()
	}
	return n
}

// ShallowCloneSharing returns a copy of the MO that shares the dimension
// instances (for operators that do not modify dimensions) but deep-copies
// facts and relations.
func (m *MO) ShallowCloneSharing() *MO {
	n := &MO{
		schema: m.schema,
		facts:  m.facts.Clone(),
		dims:   map[string]*dimension.Dimension{},
		rels:   map[string]*fact.Relation{},
		kind:   m.kind,
	}
	for name, d := range m.dims {
		n.dims[name] = d
	}
	for name, r := range m.rels {
		n.rels[name] = r.Clone(n.facts.Dict())
	}
	return n
}

// Equal reports whether two MOs have equal schemas, facts, dimensions, and
// relations (annotation-exact; used by tests and the algebra's laws).
func (m *MO) Equal(o *MO) bool {
	if !m.schema.Equal(o.schema) || !m.facts.Equal(o.facts) {
		return false
	}
	for _, name := range m.schema.DimensionNames() {
		if !m.dims[name].Equal(o.dims[name]) {
			return false
		}
		if !m.rels[name].Equal(o.rels[name]) {
			return false
		}
	}
	return true
}
