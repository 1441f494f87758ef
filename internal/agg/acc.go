package agg

// Acc is the engine's one partial aggregate: the constant-size fold of a
// group's argument values, taken in ascending dense fact order. The storage
// kernels fill one per (member, group), the planner finalizes it through
// Func.Fold, the result cache keeps it beside the rows, and delta
// maintenance continues it with the values of the appended facts.
//
// An Acc is continued, never merged: Add replays Eval's arithmetic value
// by value, so an Acc over a list is bit for bit what Eval computes over
// that list, whereas combining two Accs would re-associate the float sum.
// Whoever needs the fold of a longer list Adds the further values to a copy
// of the shorter list's Acc — it is a plain value, so assignment copies it.
type Acc struct {
	// N counts the values folded (len(vals) in Eval's terms).
	N int64
	// Sum is the running sum in fold order.
	Sum float64
	// Min and Max are the running extrema; meaningful only when Seen.
	Min, Max float64
	// Seen reports that at least one value was folded.
	Seen bool
}

// Add folds one argument value: the first value seeds the extrema
// (Eval's m := vals[0]), later values compare with the same strict < / >
// Eval uses — NaN semantics included — and the sum accumulates left to
// right.
func (a *Acc) Add(x float64) {
	a.N++
	a.Sum += x
	if !a.Seen {
		a.Seen, a.Min, a.Max = true, x, x
		return
	}
	if x < a.Min {
		a.Min = x
	}
	if x > a.Max {
		a.Max = x
	}
}
