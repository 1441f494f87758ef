// Package agg implements aggregate functions and the summarizability
// machinery of the extended multidimensional data model (Pedersen & Jensen,
// ICDE 1999, §3.1 and §3.4): the standard SQL aggregation functions
// classified by distributivity and by the minimum aggregation type of their
// argument data, the set-count function of Example 12, and the
// summarizability check (Definition 1 via the Lenz–Shoshani equivalence:
// distributive function ∧ strict paths ∧ partitioning hierarchies).
package agg

import (
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"strconv"

	"mddm/internal/dimension"
)

// Func describes one aggregate function g of the paper's function family.
// Numeric functions evaluate over the argument values extracted from the
// facts' argument dimensions; SetCount evaluates over the group itself.
type Func struct {
	// Name identifies the function (SUM, COUNT, AVG, MIN, MAX, SETCOUNT,
	// or a user-registered name).
	Name string
	// Distributive reports whether g(g(S1),…,g(Sk)) = g(S1 ∪ … ∪ Sk) for
	// disjoint Si — a necessary leg of summarizability. (COUNT and SUM
	// combine distributively via addition; MIN/MAX via themselves; AVG is
	// not distributive.)
	Distributive bool
	// MinClass is the minimum aggregation type the argument category must
	// have for the application to be "legal": Σ for SUM, φ for AVG/MIN/MAX,
	// c for COUNT and SETCOUNT.
	MinClass dimension.AggType
	// ResultClass is the aggregation type of the result data when the
	// application is summarizable (before the paper's min-rule with the
	// argument bottoms): counts and sums are summable, averages and
	// extrema are orderable.
	ResultClass dimension.AggType
	// NeedsArg reports whether the function consumes values from an
	// argument dimension (false for SETCOUNT).
	NeedsArg bool
	// Eval folds the extracted argument values; unused when NeedsArg is
	// false. ok is false when the input is empty.
	Eval func(vals []float64) (res float64, ok bool)
	// NeedsProb reports whether the function consumes the group members'
	// membership probabilities instead of argument values (EXPECTED,
	// MINCOUNT, MAXCOUNT).
	NeedsProb bool
	// ProbEval folds the membership probabilities; used when NeedsProb.
	ProbEval func(probs []float64) (res float64, ok bool)
	// ProbArg says what Fold consumes of a probabilistic function's members:
	// Fold(acc) is bit for bit ProbEval(probs) for the Acc that Added
	// ProbArg.Of(p) for each p of probs in order. ProbNone on a probabilistic
	// function means it has no such partial and is evaluated from the
	// probability list.
	ProbArg ProbArg
	// Fold finalizes the function from the constant-size partial of its
	// argument values: Fold(acc) is bit for bit Eval(vals) for the Acc that
	// Added vals in order. Nil on an argument-consuming function means it
	// has no such partial (MEDIAN: an order statistic needs the values), so
	// it is evaluated from argument lists and its results are recomputed,
	// never continued, when facts are appended.
	Fold func(acc Acc) (res float64, ok bool)
}

// ProbArg is the reading of a membership probability that a probabilistic
// function's partial folds: the probability itself, or an indicator of it.
// Sums of 0/1 indicators are exact, so the counting functions fold to the
// integers ProbEval counts.
type ProbArg uint8

const (
	// ProbNone: the function folds no membership probabilities.
	ProbNone ProbArg = iota
	// ProbValue reads p.
	ProbValue
	// ProbCertain reads 1 when p ≥ 1, else 0.
	ProbCertain
	// ProbPossible reads 1 when p > 0, else 0.
	ProbPossible
)

// Of applies the reading to one membership probability.
func (k ProbArg) Of(p float64) float64 {
	switch k {
	case ProbCertain:
		if p >= 1 {
			return 1
		}
		return 0
	case ProbPossible:
		if p > 0 {
			return 1
		}
		return 0
	}
	return p
}

// sumFold is the Fold of the probabilistic functions: each is the sum of
// its ProbArg reading, defined on every group like its ProbEval.
func sumFold(a Acc) (float64, bool) { return a.Sum, true }

// Apply evaluates the function over a group: n is the group size (|set|),
// vals the argument values extracted from the argument dimension. For
// SETCOUNT the result is n. Probabilistic functions are evaluated with
// ApplyProb instead.
func (g *Func) Apply(n int, vals []float64) (float64, bool) {
	if g.NeedsProb {
		return 0, false // caller must use ApplyProb
	}
	if !g.NeedsArg {
		return float64(n), n >= 0
	}
	return g.Eval(vals)
}

// ApplyProb evaluates a probabilistic function over the group members'
// membership probabilities.
func (g *Func) ApplyProb(probs []float64) (float64, bool) {
	if !g.NeedsProb {
		return 0, false
	}
	return g.ProbEval(probs)
}

// FormatResult renders a function result as a dimension value id, trimming
// integral floats ("2", not "2.000000").
func FormatResult(v float64) string {
	if v == float64(int64(v)) {
		return strconv.FormatInt(int64(v), 10)
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

var registry = map[string]*Func{}

// Register adds a function to the registry; it panics on duplicates (the
// registry is assembled at init time).
func Register(g *Func) {
	if _, ok := registry[g.Name]; ok {
		panic(fmt.Sprintf("agg: duplicate function %q", g.Name))
	}
	registry[g.Name] = g
}

// Lookup returns the named function, or an error listing the known names.
func Lookup(name string) (*Func, error) {
	if g, ok := registry[name]; ok {
		return g, nil
	}
	return nil, fmt.Errorf("agg: unknown function %q (known: %v)", name, Names())
}

// MustLookup is Lookup that panics on error.
func MustLookup(name string) *Func {
	g, err := Lookup(name)
	if err != nil {
		panic(err)
	}
	return g
}

// Names returns the sorted registered function names.
func Names() []string {
	out := make([]string, 0, len(registry))
	for n := range registry {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

func init() {
	Register(&Func{
		Name: "SUM", Distributive: true,
		MinClass: dimension.Sum, ResultClass: dimension.Sum, NeedsArg: true,
		Fold: func(a Acc) (float64, bool) { return a.Sum, a.N > 0 },
		Eval: func(vals []float64) (float64, bool) {
			if len(vals) == 0 {
				return 0, false
			}
			var s float64
			for _, v := range vals {
				s += v
			}
			return s, true
		},
	})
	Register(&Func{
		Name: "COUNT", Distributive: true,
		MinClass: dimension.Constant, ResultClass: dimension.Sum, NeedsArg: true,
		Fold: func(a Acc) (float64, bool) { return float64(a.N), true },
		Eval: func(vals []float64) (float64, bool) {
			return float64(len(vals)), true
		},
	})
	Register(&Func{
		Name: "AVG", Distributive: false,
		MinClass: dimension.Average, ResultClass: dimension.Average, NeedsArg: true,
		Fold: func(a Acc) (float64, bool) {
			if a.N == 0 {
				return 0, false
			}
			return a.Sum / float64(a.N), true
		},
		Eval: func(vals []float64) (float64, bool) {
			if len(vals) == 0 {
				return 0, false
			}
			var s float64
			for _, v := range vals {
				s += v
			}
			return s / float64(len(vals)), true
		},
	})
	Register(&Func{
		Name: "MIN", Distributive: true,
		MinClass: dimension.Average, ResultClass: dimension.Average, NeedsArg: true,
		Fold: func(a Acc) (float64, bool) { return a.Min, a.Seen },
		Eval: func(vals []float64) (float64, bool) {
			if len(vals) == 0 {
				return 0, false
			}
			m := vals[0]
			for _, v := range vals[1:] {
				if v < m {
					m = v
				}
			}
			return m, true
		},
	})
	Register(&Func{
		Name: "MAX", Distributive: true,
		MinClass: dimension.Average, ResultClass: dimension.Average, NeedsArg: true,
		Fold: func(a Acc) (float64, bool) { return a.Max, a.Seen },
		Eval: func(vals []float64) (float64, bool) {
			if len(vals) == 0 {
				return 0, false
			}
			m := vals[0]
			for _, v := range vals[1:] {
				if v > m {
					m = v
				}
			}
			return m, true
		},
	})
	// MEDIAN is the registry's holistic exemplar: an order statistic has no
	// constant-size partial (Fold stays nil), so it is evaluated from the
	// group's argument values — and, being non-distributive, it also fails
	// the summarizability check, so its results get aggregation type c.
	Register(&Func{
		Name: "MEDIAN", Distributive: false,
		MinClass: dimension.Average, ResultClass: dimension.Average, NeedsArg: true,
		Eval: func(vals []float64) (float64, bool) {
			if len(vals) == 0 {
				return 0, false
			}
			return median(vals), true
		},
	})
	// SETCOUNT is the set-count of Example 12: the number of members of a
	// group. It needs no argument dimension and is distributive over
	// disjoint groups.
	Register(&Func{
		Name: "SETCOUNT", Distributive: true,
		MinClass: dimension.Constant, ResultClass: dimension.Sum, NeedsArg: false,
	})
}

// Probabilistic aggregate functions (§3.3: "the probabilities are also
// handled by the algebra"). They evaluate over the membership
// probabilities of a group — the probability that each member fact is
// characterized by the group's combination of dimension values:
//
//   - EXPECTED: the expected number of members (sum of probabilities).
//   - MINCOUNT: members certainly in the group (probability 1).
//   - MAXCOUNT: members possibly in the group (probability > 0).
//
// All three are distributive over disjoint groups and count-like (their
// argument data may be of any aggregation type; the result is summable
// when summarizable).
func init() {
	Register(&Func{
		Name: "EXPECTED", Distributive: true,
		MinClass: dimension.Constant, ResultClass: dimension.Sum,
		NeedsProb: true, ProbArg: ProbValue, Fold: sumFold,
		ProbEval: func(probs []float64) (float64, bool) {
			var s float64
			for _, p := range probs {
				s += p
			}
			return s, true
		},
	})
	Register(&Func{
		Name: "MINCOUNT", Distributive: true,
		MinClass: dimension.Constant, ResultClass: dimension.Sum,
		NeedsProb: true, ProbArg: ProbCertain, Fold: sumFold,
		ProbEval: func(probs []float64) (float64, bool) {
			n := 0
			for _, p := range probs {
				if p >= 1 {
					n++
				}
			}
			return float64(n), true
		},
	})
	Register(&Func{
		Name: "MAXCOUNT", Distributive: true,
		MinClass: dimension.Constant, ResultClass: dimension.Sum,
		NeedsProb: true, ProbArg: ProbPossible, Fold: sumFold,
		ProbEval: func(probs []float64) (float64, bool) {
			n := 0
			for _, p := range probs {
				if p > 0 {
					n++
				}
			}
			return float64(n), true
		},
	})
}

// median returns the median of a non-empty list as it stands in a copy
// sorted by sort.Float64s — NaN first, then ascending — without sorting
// the copy: the NaNs are moved to its front and the order statistics
// after them are found by selection. Equal values are interchangeable, so
// the result is sort's bit for bit, except that where −0 and +0 meet at
// the middle either may be returned, as either may land there in sort's
// unstable order.
func median(vals []float64) float64 {
	s := append([]float64(nil), vals...)
	nan := 0
	for i, v := range s {
		if v != v {
			s[i], s[nan] = s[nan], v
			nan++
		}
	}
	mid := len(s) / 2
	if mid >= nan {
		selectNth(s[nan:], mid-nan)
	}
	if len(s)%2 == 1 {
		return s[mid]
	}
	// The value sorting puts before s[mid]: a NaN, or the largest of the
	// numbers selection left below mid.
	below := s[mid-1]
	if mid-1 >= nan {
		below = slices.Max(s[nan:mid])
	}
	return (below + s[mid]) / 2
}

// selectNth reorders s, which holds no NaN, so that s[n] is the value
// sorting would put there, no value before it is greater and none after
// it is smaller: quickselect with a median-of-three pivot and a
// three-way partition, so runs of equal values end the search. A search
// that has not converged after 2·log₂ len(s) rounds sorts what is left,
// which bounds the worst case at a sort's.
func selectNth(s []float64, n int) {
	lo, hi := 0, len(s)
	for rounds := 2 * bits.Len(uint(len(s))); hi-lo > 12 && rounds > 0; rounds-- {
		a, b, c := s[lo], s[lo+(hi-lo)/2], s[hi-1]
		p := max(min(a, b), min(max(a, b), c))
		lt, i, gt := lo, lo, hi
		for i < gt {
			switch v := s[i]; {
			case v < p:
				s[lt], s[i] = v, s[lt]
				lt++
				i++
			case v > p:
				gt--
				s[gt], s[i] = v, s[gt]
			default:
				i++
			}
		}
		switch {
		case n < lt:
			hi = lt
		case n >= gt:
			lo = gt
		default:
			return
		}
	}
	sort.Float64s(s[lo:hi])
}
