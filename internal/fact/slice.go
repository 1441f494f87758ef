package fact

import (
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// SliceValid returns the relation restricted to pairs valid at instant t,
// with valid time stripped (the fact–dimension part of the valid-timeslice
// operator). Transaction time and probabilities are preserved.
func (r *Relation) SliceValid(t temporal.Chronon, ref temporal.Chronon) *Relation {
	n := NewRelation()
	r.Range(func(f, v string, a dimension.Annot) bool {
		if a.Time.Valid.Contains(t, ref) {
			a.Time.Valid = temporal.AlwaysElement()
			n.AddAnnot(f, v, a)
		}
		return true
	})
	return n
}

// SliceTrans returns the relation restricted to pairs current at
// transaction-time instant t, with transaction time stripped.
func (r *Relation) SliceTrans(t temporal.Chronon, ref temporal.Chronon) *Relation {
	n := NewRelation()
	r.Range(func(f, v string, a dimension.Annot) bool {
		if a.Time.Trans.Contains(t, ref) {
			a.Time.Trans = temporal.AlwaysElement()
			n.AddAnnot(f, v, a)
		}
		return true
	})
	return n
}

// FilterProb returns the relation restricted to pairs with probability at
// least p (the probability-threshold companion of the timeslices, §3.3).
func (r *Relation) FilterProb(p float64) *Relation {
	n := NewRelation()
	r.Range(func(f, v string, a dimension.Annot) bool {
		if a.Prob >= p {
			n.AddAnnot(f, v, a)
		}
		return true
	})
	return n
}
