package algebra

import (
	"context"
	"fmt"
	"time"

	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/fact"
	"mddm/internal/obs"
	"mddm/internal/qos"
)

// Per-operator latency histograms, one family shared with the query
// layer's parse timing (mddm_operator_seconds{op=…}). Each operator
// records once per invocation — the per-fact loops inside stay untouched.
var (
	opSecondsHelp = "Latency of one operator invocation, by operator."
	mOpSelect     = obs.NewHistogram("mddm_operator_seconds", opSecondsHelp,
		obs.DurationBuckets, obs.Label{Key: "op", Value: "select"})
	mOpProject = obs.NewHistogram("mddm_operator_seconds", opSecondsHelp,
		obs.DurationBuckets, obs.Label{Key: "op", Value: "project"})
	mOpAggregate = obs.NewHistogram("mddm_operator_seconds", opSecondsHelp,
		obs.DurationBuckets, obs.Label{Key: "op", Value: "aggregate"})
)

// Select implements the selection operator σ[p](M): the facts are
// restricted to those satisfying p, the fact–dimension relations are
// restricted accordingly, and the dimensions and schema stay the same.
// Selection does not change the time attached to the surviving data
// (§4.2).
func Select(m *core.MO, p Predicate, ctx dimension.Context) *core.MO {
	out, _ := SelectContext(context.Background(), m, p, ctx) // nil guard: cannot fail
	return out
}

// SelectContext is Select with cooperative cancellation and fact-budget
// accounting over the fact scan.
func SelectContext(cctx context.Context, m *core.MO, p Predicate, ctx dimension.Context) (*core.MO, error) {
	start := time.Now()
	sp := obs.StartSpan(cctx, "algebra.select")
	sp.SetAttr("facts_in", int64(m.Facts().Len()))
	defer func() {
		mOpSelect.Observe(time.Since(start))
		sp.End()
	}()
	guard := qos.NewGuard(cctx)
	out := m.ShallowCloneSharing()
	keep := map[string]bool{}
	for _, f := range m.Facts().IDs() {
		if err := guard.Facts(1); err != nil {
			return nil, fmt.Errorf("algebra: select: %w", err)
		}
		if p(m, f, ctx) {
			keep[f] = true
		} else {
			out.Facts().Remove(f)
		}
	}
	for _, name := range m.Schema().DimensionNames() {
		r := m.Relation(name).Restrict(out.Facts().Dict(), func(f string) bool { return keep[f] })
		if err := out.SetRelation(name, r); err != nil {
			panic(err) // names come from the schema itself
		}
	}
	return out, nil
}

// Project implements the projection operator π[D1,…,Dk](M): only the named
// dimensions are retained; the set of facts stays the same, and "duplicate
// values" are not removed — several facts may be characterized by the same
// combination of dimension values.
func Project(m *core.MO, dims ...string) (*core.MO, error) {
	defer func(start time.Time) { mOpProject.Observe(time.Since(start)) }(time.Now())
	s, err := m.Schema().Project(dims...)
	if err != nil {
		return nil, err
	}
	out := core.NewMO(s)
	out.SetKind(m.Kind())
	for _, f := range m.Facts().All() {
		out.AddFact(f)
	}
	for _, name := range dims {
		if err := out.SetDimension(name, m.Dimension(name)); err != nil {
			return nil, err
		}
		if err := out.SetRelation(name, m.Relation(name).Clone(out.Facts().Dict())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Rename implements the rename operator ρ[S'](M): the contents of M are
// returned under the new schema S', which must be isomorphic with M's
// schema; dimensions are re-keyed positionally. Rename distinguishes
// dimensions with equal names, e.g. after a self-join.
func Rename(m *core.MO, s *core.Schema) (*core.MO, error) {
	if !m.Schema().Isomorphic(s) {
		return nil, fmt.Errorf("algebra: rename: schema %q is not isomorphic with %q", s.FactType(), m.Schema().FactType())
	}
	out := core.NewMO(s)
	out.SetKind(m.Kind())
	for _, f := range m.Facts().All() {
		out.AddFact(f)
	}
	oldNames := m.Schema().DimensionNames()
	newNames := s.DimensionNames()
	for i, oldName := range oldNames {
		// The instance keeps its own dimension-type pointer; the schema
		// slot is isomorphic, which SetDimension verifies.
		if err := out.SetDimension(newNames[i], m.Dimension(oldName)); err != nil {
			return nil, err
		}
		if err := out.SetRelation(newNames[i], m.Relation(oldName).Clone(out.Facts().Dict())); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// kindJoin combines the temporal kinds of two MOs: the result records a
// time aspect iff either argument does.
func kindJoin(a, b core.TemporalKind) core.TemporalKind {
	v := a == core.ValidTime || a == core.Bitemporal || b == core.ValidTime || b == core.Bitemporal
	t := a == core.TransactionTime || a == core.Bitemporal || b == core.TransactionTime || b == core.Bitemporal
	switch {
	case v && t:
		return core.Bitemporal
	case v:
		return core.ValidTime
	case t:
		return core.TransactionTime
	default:
		return core.Snapshot
	}
}

// Union implements M1 ∪ M2 for MOs with common schemas: the facts and
// fact–dimension relations are unioned (chronon sets of statements present
// in both MOs are unioned, per §4.2), and the dimensions are combined with
// the ∪D operator.
func Union(m1, m2 *core.MO) (*core.MO, error) {
	if !m1.Schema().Equal(m2.Schema()) {
		return nil, fmt.Errorf("algebra: union: schemas differ")
	}
	out := core.NewMO(m1.Schema())
	out.SetKind(kindJoin(m1.Kind(), m2.Kind()))
	for _, f := range m1.Facts().Union(m2.Facts()).All() {
		out.AddFact(f)
	}
	for _, name := range m1.Schema().DimensionNames() {
		d, err := m1.Dimension(name).Union(m2.Dimension(name))
		if err != nil {
			return nil, fmt.Errorf("algebra: union: %w", err)
		}
		if err := out.SetDimension(name, d); err != nil {
			return nil, err
		}
		if err := out.SetRelation(name, m1.Relation(name).Union(m2.Relation(name))); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Difference implements M1 \ M2 for MOs with common schemas. For snapshot
// MOs the fact sets are set-differenced, the dimensions of the first
// argument are retained, and the relations restricted to the surviving
// facts. For time-carrying MOs the paper's temporal rule applies instead:
// the chronon set of each pair of R1 is cut by the chronon set of the
// corresponding pair of R2, pairs with empty remainders drop out, and the
// surviving facts are those that participate in every resulting relation
// during a non-empty chronon set.
func Difference(m1, m2 *core.MO) (*core.MO, error) {
	if !m1.Schema().Equal(m2.Schema()) {
		return nil, fmt.Errorf("algebra: difference: schemas differ")
	}
	out := core.NewMO(m1.Schema())
	out.SetKind(m1.Kind())
	for _, name := range m1.Schema().DimensionNames() {
		if err := out.SetDimension(name, m1.Dimension(name)); err != nil {
			return nil, err
		}
	}

	if m1.Kind() == core.Snapshot && m2.Kind() == core.Snapshot {
		survivors := m1.Facts().Difference(m2.Facts())
		for _, f := range survivors.All() {
			out.AddFact(f)
		}
		for _, name := range m1.Schema().DimensionNames() {
			r := m1.Relation(name).Restrict(out.Facts().Dict(), func(f string) bool { return survivors.Has(f) })
			if err := out.SetRelation(name, r); err != nil {
				return nil, err
			}
		}
		return out, nil
	}

	// Temporal difference: cut valid-time chronon sets pairwise.
	names := m1.Schema().DimensionNames()
	newRels := make(map[string]*fact.Relation, len(names))
	for _, name := range names {
		r1 := m1.Relation(name)
		r2 := m2.Relation(name)
		nr := fact.NewRelation()
		for _, p := range r1.Pairs() {
			a := p.Annot
			if b, ok := r2.Annot(p.FactID, p.ValueID); ok {
				cut := a.Time.Valid.Difference(b.Time.Valid)
				if cut.IsEmpty() {
					continue
				}
				a.Time.Valid = cut
			}
			nr.AddAnnot(p.FactID, p.ValueID, a)
		}
		newRels[name] = nr
	}
	// Facts survive if they appear in every resulting relation.
	for _, f := range m1.Facts().All() {
		inAll := true
		for _, name := range names {
			if len(newRels[name].ValuesOf(f.ID)) == 0 {
				inAll = false
				break
			}
		}
		if inAll {
			out.AddFact(f)
		}
	}
	for _, name := range names {
		r := newRels[name].Restrict(out.Facts().Dict(), func(f string) bool { return out.Facts().Has(f) })
		if err := out.SetRelation(name, r); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// JoinPred decides whether a pair of facts joins. The paper admits
// f1 = f2, f1 ≠ f2, and true; arbitrary identity predicates are accepted
// here.
type JoinPred func(f1, f2 string) bool

// Join predicates of the paper: equi-join, non-equi-join, and Cartesian
// product.
var (
	EqJoin    JoinPred = func(f1, f2 string) bool { return f1 == f2 }
	NeqJoin   JoinPred = func(f1, f2 string) bool { return f1 != f2 }
	CrossJoin JoinPred = func(f1, f2 string) bool { return true }
)

// Join implements the identity-based join M1 ⋈[p] M2: the new facts are
// the pairs (f1, f2) of the cross product satisfying p, the dimension sets
// are unioned (names must be disjoint — apply Rename first otherwise), and
// a pair is related to a value iff the respective member was, inheriting
// the member's time annotation (§4.2).
func Join(m1, m2 *core.MO, p JoinPred) (*core.MO, error) {
	for _, n := range m1.Schema().DimensionNames() {
		if m2.Schema().DimensionType(n) != nil {
			return nil, fmt.Errorf("algebra: join: dimension name %q occurs in both MOs; rename first", n)
		}
	}
	factType := fmt.Sprintf("(%s,%s)", m1.Schema().FactType(), m2.Schema().FactType())
	s, err := core.NewSchema(factType)
	if err != nil {
		return nil, err
	}
	for _, n := range m1.Schema().DimensionNames() {
		if err := s.AddDimensionType(m1.Schema().DimensionType(n)); err != nil {
			return nil, err
		}
	}
	for _, n := range m2.Schema().DimensionNames() {
		if err := s.AddDimensionType(m2.Schema().DimensionType(n)); err != nil {
			return nil, err
		}
	}
	out := core.NewMO(s)
	out.SetKind(kindJoin(m1.Kind(), m2.Kind()))
	for _, n := range m1.Schema().DimensionNames() {
		if err := out.SetDimension(n, m1.Dimension(n)); err != nil {
			return nil, err
		}
	}
	for _, n := range m2.Schema().DimensionNames() {
		if err := out.SetDimension(n, m2.Dimension(n)); err != nil {
			return nil, err
		}
	}

	type pair struct{ f1, f2 string }
	var pairs []pair
	for _, f1 := range m1.Facts().IDs() {
		for _, f2 := range m2.Facts().IDs() {
			if p(f1, f2) {
				pairs = append(pairs, pair{f1, f2})
				fp1, _ := m1.Facts().Get(f1)
				fp2, _ := m2.Facts().Get(f2)
				out.AddFact(fact.PairFact(fp1, fp2))
			}
		}
	}
	addSide := func(src *core.MO, side int) error {
		for _, n := range src.Schema().DimensionNames() {
			r := src.Relation(n)
			nr := fact.NewRelation()
			for _, pr := range pairs {
				member := pr.f1
				if side == 2 {
					member = pr.f2
				}
				pf := fact.PairFact(fact.NewFact(pr.f1), fact.NewFact(pr.f2))
				for _, e := range r.ValuesOf(member) {
					a, _ := r.Annot(member, e)
					nr.AddAnnot(pf.ID, e, a)
				}
			}
			if err := out.SetRelation(n, nr); err != nil {
				return err
			}
		}
		return nil
	}
	if err := addSide(m1, 1); err != nil {
		return nil, err
	}
	if err := addSide(m2, 2); err != nil {
		return nil, err
	}
	return out, nil
}
