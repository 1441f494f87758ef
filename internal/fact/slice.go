package fact

import (
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// filter returns, over a dictionary of its own, the pairs keep admits,
// each with the annotation keep leaves in a.
func (r *Relation) filter(keep func(a *dimension.Annot) bool) *Relation {
	n := NewRelation()
	r.Range(func(f, v string, a dimension.Annot) bool {
		if keep(&a) {
			n.AddAnnot(f, v, a)
		}
		return true
	})
	return n
}

// SliceValid returns the relation restricted to pairs valid at instant t,
// with valid time stripped (the fact–dimension part of the valid-timeslice
// operator). Transaction time and probabilities are preserved.
func (r *Relation) SliceValid(t temporal.Chronon, ref temporal.Chronon) *Relation {
	return r.filter(func(a *dimension.Annot) bool {
		ok := a.Time.Valid.Contains(t, ref)
		a.Time.Valid = temporal.AlwaysElement()
		return ok
	})
}

// SliceTrans returns the relation restricted to pairs current at
// transaction-time instant t, with transaction time stripped.
func (r *Relation) SliceTrans(t temporal.Chronon, ref temporal.Chronon) *Relation {
	return r.filter(func(a *dimension.Annot) bool {
		ok := a.Time.Trans.Contains(t, ref)
		a.Time.Trans = temporal.AlwaysElement()
		return ok
	})
}

// FilterProb returns the relation restricted to pairs with probability at
// least p (the probability-threshold companion of the timeslices, §3.3).
func (r *Relation) FilterProb(p float64) *Relation {
	return r.filter(func(a *dimension.Annot) bool { return a.Prob >= p })
}
