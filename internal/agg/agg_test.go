package agg

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

var ref = temporal.MustDate("01/01/1999")

func ctx() dimension.Context { return dimension.CurrentContext(ref) }

func TestRegistry(t *testing.T) {
	for _, name := range []string{"SUM", "COUNT", "AVG", "MIN", "MAX", "SETCOUNT"} {
		g, err := Lookup(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if g.Name != name {
			t.Errorf("name mismatch: %q", g.Name)
		}
	}
	if _, err := Lookup("MODE"); err == nil || !strings.Contains(err.Error(), "known") {
		t.Errorf("unknown lookup must fail helpfully, got %v", err)
	}
	names := Names()
	if len(names) < 6 {
		t.Errorf("names = %v", names)
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register must panic")
		}
	}()
	Register(&Func{Name: "SUM"})
}

func TestFuncEvaluation(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5}
	cases := map[string]float64{"SUM": 14, "COUNT": 5, "AVG": 2.8, "MIN": 1, "MAX": 5}
	for name, want := range cases {
		g := MustLookup(name)
		got, ok := g.Apply(99, vals)
		if !ok || got != want {
			t.Errorf("%s = %v (%v), want %v", name, got, ok, want)
		}
	}
	// Empty input: COUNT yields 0; the others have no result.
	for _, name := range []string{"SUM", "AVG", "MIN", "MAX"} {
		if _, ok := MustLookup(name).Apply(0, nil); ok {
			t.Errorf("%s over empty input must have no result", name)
		}
	}
	if got, ok := MustLookup("COUNT").Apply(0, nil); !ok || got != 0 {
		t.Errorf("COUNT over empty input = %v, %v", got, ok)
	}
	// SETCOUNT counts the group, ignoring values.
	if got, ok := MustLookup("SETCOUNT").Apply(7, vals); !ok || got != 7 {
		t.Errorf("SETCOUNT = %v, %v", got, ok)
	}
}

func TestDistributivityQuick(t *testing.T) {
	// For the distributive functions, g(g(S1), g(S2)) = g(S1 ∪ S2) for
	// disjoint S1, S2 — the definition the summarizability check relies on.
	// (COUNT and SUM combine via SUM; MIN/MAX via themselves.)
	check := func(a, b []float64) bool {
		if len(a) == 0 || len(b) == 0 {
			return true
		}
		all := append(append([]float64{}, a...), b...)
		sum := MustLookup("SUM")
		sa, _ := sum.Apply(0, a)
		sb, _ := sum.Apply(0, b)
		sAll, _ := sum.Apply(0, all)
		if combined, _ := sum.Apply(0, []float64{sa, sb}); combined != sAll {
			return false
		}
		min := MustLookup("MIN")
		ma, _ := min.Apply(0, a)
		mb, _ := min.Apply(0, b)
		mAll, _ := min.Apply(0, all)
		if combined, _ := min.Apply(0, []float64{ma, mb}); combined != mAll {
			return false
		}
		max := MustLookup("MAX")
		xa, _ := max.Apply(0, a)
		xb, _ := max.Apply(0, b)
		xAll, _ := max.Apply(0, all)
		if combined, _ := max.Apply(0, []float64{xa, xb}); combined != xAll {
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Values: nil}
	if err := quick.Check(func(a8, b8 []int8) bool {
		a := make([]float64, len(a8))
		for i, v := range a8 {
			a[i] = float64(v)
		}
		b := make([]float64, len(b8))
		for i, v := range b8 {
			b[i] = float64(v)
		}
		return check(a, b)
	}, cfg); err != nil {
		t.Error(err)
	}
	// AVG is declared non-distributive and indeed is not:
	// avg(avg{1,2}, avg{3}) = avg(1.5, 3) = 2.25 ≠ avg{1,2,3} = 2.
	if MustLookup("AVG").Distributive {
		t.Error("AVG must not be distributive")
	}
}

func TestFormatResult(t *testing.T) {
	cases := map[float64]string{2: "2", 2.5: "2.5", -3: "-3", 0: "0"}
	for in, want := range cases {
		if got := FormatResult(in); got != want {
			t.Errorf("FormatResult(%v) = %q, want %q", in, got, want)
		}
	}
}

func TestCheckSummarizableCaseStudy(t *testing.T) {
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Grouping by the non-strict diagnosis hierarchy: not summarizable.
	rep := CheckSummarizable(m, MustLookup("SETCOUNT"),
		map[string]string{casestudy.DimDiagnosis: casestudy.CatGroup}, ctx())
	if rep.Summarizable {
		t.Error("diagnosis grouping must not be summarizable")
	}
	joined := strings.Join(rep.Reasons, "; ")
	if !strings.Contains(joined, "non-strict") {
		t.Errorf("reasons = %v", rep.Reasons)
	}
	// Grouping by the age hierarchy: summarizable.
	rep2 := CheckSummarizable(m, MustLookup("SETCOUNT"),
		map[string]string{casestudy.DimAge: casestudy.CatTenYear}, ctx())
	if !rep2.Summarizable {
		t.Errorf("age grouping must be summarizable: %v", rep2.Reasons)
	}
	// A non-distributive function is never summarizable.
	rep3 := CheckSummarizable(m, MustLookup("AVG"),
		map[string]string{casestudy.DimAge: casestudy.CatTenYear}, ctx())
	if rep3.Summarizable {
		t.Error("AVG must not be summarizable")
	}
}

func TestStrictPath(t *testing.T) {
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Paths to ⊤ are always strict (footnote 1).
	if !StrictPath(m, casestudy.DimDiagnosis, dimension.TopName, ctx()) {
		t.Error("path to ⊤ must be strict")
	}
	// Patient 2 reaches groups 11 and 12 → non-strict.
	if StrictPath(m, casestudy.DimDiagnosis, casestudy.CatGroup, ctx()) {
		t.Error("path to Diagnosis Group must be non-strict")
	}
	// Every patient has exactly one age → strict.
	if !StrictPath(m, casestudy.DimAge, casestudy.CatTenYear, ctx()) {
		t.Error("path to Ten-year Group must be strict")
	}
}

func TestResultAggType(t *testing.T) {
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Non-summarizable → c regardless of arguments.
	if got := ResultAggType(m, MustLookup("SUM"), []string{casestudy.DimAge}, false); got != dimension.Constant {
		t.Errorf("unsafe result type = %v", got)
	}
	// Summarizable SUM over Age (Σ) → Σ.
	if got := ResultAggType(m, MustLookup("SUM"), []string{casestudy.DimAge}, true); got != dimension.Sum {
		t.Errorf("SUM type = %v", got)
	}
	// MIN over DOB (φ): result class φ even though the function is
	// distributive.
	if got := ResultAggType(m, MustLookup("MIN"), []string{casestudy.DimDOB}, true); got != dimension.Average {
		t.Errorf("MIN type = %v", got)
	}
	// SETCOUNT: its own result class (counts are summable).
	if got := ResultAggType(m, MustLookup("SETCOUNT"), nil, true); got != dimension.Sum {
		t.Errorf("SETCOUNT type = %v", got)
	}
}

func TestCheckLegal(t *testing.T) {
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckLegal(m, MustLookup("SUM"), []string{casestudy.DimAge}); err != nil {
		t.Errorf("SUM over Age must be legal: %v", err)
	}
	if err := CheckLegal(m, MustLookup("SUM"), []string{casestudy.DimDiagnosis}); err == nil {
		t.Error("SUM over Diagnosis must be illegal")
	}
	if err := CheckLegal(m, MustLookup("AVG"), []string{casestudy.DimDOB}); err != nil {
		t.Errorf("AVG over DOB must be legal: %v", err)
	}
	if err := CheckLegal(m, MustLookup("SUM"), nil); err == nil {
		t.Error("SUM without arguments must be illegal")
	}
	if err := CheckLegal(m, MustLookup("SETCOUNT"), []string{casestudy.DimAge}); err == nil {
		t.Error("SETCOUNT with arguments must be illegal")
	}
	if err := CheckLegal(m, MustLookup("SUM"), []string{"Nope"}); err == nil {
		t.Error("unknown dimension must be illegal")
	}
}

// TestFoldMatchesEval pins the one partial aggregate to the functions'
// own definition: for every function with a Fold, the Acc that Added a
// list finalizes to exactly — bit for bit, ok included — what Eval
// computes over the list, on empty input, NaN, ±Inf and −0 too; for a
// probabilistic function the list holds membership probabilities, the Acc
// Adds their ProbArg reading, and ProbEval is the definition. A copy of
// the Acc taken mid-list and continued with the rest is the fold of the
// whole list, and the Acc it was copied from still is the fold of the
// prefix: that is all delta maintenance does to a cached partial.
func TestFoldMatchesEval(t *testing.T) {
	special := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1e308, -1e308, 1.0 / 3}
	r := rand.New(rand.NewSource(15))
	lists := [][]float64{nil, {math.Copysign(0, -1)}, {math.NaN()}, {math.Inf(1), math.Inf(-1)}, {1, math.NaN(), 0}}
	for i := 0; i < 300; i++ {
		xs := make([]float64, r.Intn(12))
		for k := range xs {
			if r.Intn(4) == 0 {
				xs[k] = special[r.Intn(len(special))]
			} else {
				xs[k] = (r.Float64() - 0.5) * math.Pow(10, float64(r.Intn(18)-6))
			}
		}
		lists = append(lists, xs)
	}
	// Bitwise, so −0 is not 0 — except that any NaN is any NaN: which
	// payload an addition propagates is the compiler's operand order, and
	// every NaN renders as "NaN".
	same := func(a float64, aok bool, b float64, bok bool) bool {
		return aok == bok && (math.Float64bits(a) == math.Float64bits(b) || math.IsNaN(a) && math.IsNaN(b))
	}
	folded := 0
	for _, name := range Names() {
		g := MustLookup(name)
		if g.Fold == nil {
			if g.NeedsArg && g.Distributive {
				t.Errorf("%s is distributive and argument-consuming but has no Fold", name)
			}
			continue
		}
		folded++
		eval, read := g.Eval, func(x float64) float64 { return x }
		if g.NeedsProb {
			if g.ProbArg == ProbNone {
				t.Fatalf("%s has a Fold but no ProbArg to feed it", name)
			}
			eval, read = g.ProbEval, g.ProbArg.Of
		}
		for _, xs := range lists {
			cut := r.Intn(len(xs) + 1)
			var prefix Acc
			for _, x := range xs[:cut] {
				prefix.Add(read(x))
			}
			whole := prefix
			for _, x := range xs[cut:] {
				whole.Add(read(x))
			}
			got, gok := g.Fold(whole)
			want, wok := eval(xs)
			if !same(got, gok, want, wok) {
				t.Fatalf("%s over %v: Fold = (%v, %v), Eval = (%v, %v)", name, xs, got, gok, want, wok)
			}
			got, gok = g.Fold(prefix)
			want, wok = eval(xs[:cut])
			if !same(got, gok, want, wok) {
				t.Fatalf("%s: continuing a copy changed the prefix fold of %v: (%v, %v), Eval = (%v, %v)", name, xs[:cut], got, gok, want, wok)
			}
		}
	}
	if folded != 8 {
		t.Errorf("%d functions have a Fold, want SUM, COUNT, AVG, MIN, MAX, EXPECTED, MINCOUNT and MAXCOUNT", folded)
	}
	if MustLookup("MEDIAN").Fold != nil {
		t.Error("MEDIAN must be holistic (no constant-size partial)")
	}
}

func TestMedianEval(t *testing.T) {
	med := MustLookup("MEDIAN")
	if v, ok := med.Eval([]float64{5, 1, 3}); !ok || v != 3 {
		t.Errorf("median(5,1,3) = %v,%v", v, ok)
	}
	if v, ok := med.Eval([]float64{4, 1, 3, 2}); !ok || v != 2.5 {
		t.Errorf("median(4,1,3,2) = %v,%v", v, ok)
	}
	if _, ok := med.Eval(nil); ok {
		t.Error("median of empty input must not be ok")
	}
	// Eval must not mutate its input.
	in := []float64{9, 1, 5}
	med.Eval(in)
	if in[0] != 9 || in[1] != 1 || in[2] != 5 {
		t.Errorf("Eval mutated its input: %v", in)
	}
}

// TestMedianMatchesSort pins MEDIAN's selection to the sort it replaced:
// over random lists of odd and even length, with duplicates, ±Inf and NaN,
// sorted and reversed runs, the result is bit for bit the middle of a copy
// sorted by sort.Float64s (any NaN is any NaN). Lists that mix −0 and +0
// are compared by value only: sort's order between the two is unstable.
func TestMedianMatchesSort(t *testing.T) {
	med := MustLookup("MEDIAN")
	reference := func(xs []float64) float64 {
		s := append([]float64(nil), xs...)
		sort.Float64s(s)
		mid := len(s) / 2
		if len(s)%2 == 1 {
			return s[mid]
		}
		return (s[mid-1] + s[mid]) / 2
	}
	r := rand.New(rand.NewSource(49))
	pool := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, 1, 2, 2.5, -7, 1e308, -1e308, 1.0 / 3}
	var lists [][]float64
	for i := 0; i < 3000; i++ {
		xs := make([]float64, 1+r.Intn(1+r.Intn(400)))
		distinct := 1 + r.Intn(len(xs))
		for k := range xs {
			switch r.Intn(5) {
			case 0:
				xs[k] = pool[r.Intn(len(pool))]
			default:
				xs[k] = float64(r.Intn(distinct)) * 0.75
			}
		}
		switch i % 7 {
		case 1:
			sort.Float64s(xs)
		case 2:
			sort.Sort(sort.Reverse(sort.Float64Slice(xs)))
		}
		lists = append(lists, xs)
	}
	for n := 1; n <= 40; n++ {
		allNaN := make([]float64, n)
		for k := range allNaN {
			allNaN[k] = math.NaN()
		}
		half := append([]float64(nil), allNaN...)
		for k := 0; k < n/2; k++ {
			half[k] = float64(k)
		}
		lists = append(lists, allNaN, half)
	}
	for _, xs := range lists {
		in := append([]float64(nil), xs...)
		got, ok := med.Eval(xs)
		want := reference(xs)
		if !ok || math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("MEDIAN(%v) = %v, %v; sorting gives %v", xs, got, ok, want)
		}
		for k := range xs {
			if math.Float64bits(xs[k]) != math.Float64bits(in[k]) {
				t.Fatalf("MEDIAN reordered its input at %d: %v", k, xs)
			}
		}
	}
	negZero := math.Copysign(0, -1)
	for i := 0; i < 500; i++ {
		xs := make([]float64, 1+r.Intn(60))
		for k := range xs {
			xs[k] = []float64{negZero, 0, -1, 1}[r.Intn(4)]
		}
		if got, _ := med.Eval(xs); got != reference(xs) {
			t.Fatalf("MEDIAN(%v) = %v; sorting gives %v", xs, got, reference(xs))
		}
	}
}
