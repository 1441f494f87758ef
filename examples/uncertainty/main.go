// Uncertainty: probabilities on diagnoses (§3.3) — a physician 90%
// certain, probability thresholds, and probabilistic containment in the
// dimension hierarchy.
package main

import (
	"fmt"
	"log"

	"mddm"
)

var ref = mddm.MustDate("01/01/1999")

// uncertainMO is the case-study MO with two uncertain diagnoses: the
// physician is only 90% certain that patient 1 has non-insulin-dependent
// diabetes (10), and 40% that it is gestational (5).
func uncertainMO() *mddm.MO {
	mo := mddm.MustPatientMO()
	must(mo.RelateAnnot("Diagnosis", "1", "10", mddm.Always().WithProb(0.9)))
	must(mo.RelateAnnot("Diagnosis", "1", "5", mddm.Always().WithProb(0.4)))
	return mo
}

// thresholdQuery and probabilisticQuery are the example's query-language
// statements. The columnar planner answers each from a context view of its
// engine (main_test.go holds it to that, and to the algebra's rows).
const thresholdQuery = `SELECT FACTS FROM patients WHERE Diagnosis = '5' WITH PROB >= 0.5`

func probabilisticQuery(fn string) string {
	return fmt.Sprintf(`SELECT %s(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Group"`, fn)
}

var probabilisticFunctions = []string{"EXPECTED", "MINCOUNT", "MAXCOUNT"}

func main() {
	ctx := mddm.CurrentContext(ref)
	mo := uncertainMO()

	for _, minProb := range []float64{0, 0.5, 0.95} {
		n := 0
		for _, f := range mo.Facts().IDs() {
			if ok, _ := mo.CharacterizedBy("Diagnosis", f, "10", ctx.WithMinProb(minProb)); ok {
				n++
			}
		}
		fmt.Printf("patients with diagnosis 10 at probability ≥ %.2f: %d\n", minProb, n)
	}
	fmt.Println()

	// Probabilities propagate along the dimension hierarchy: the pair
	// probability multiplies with the order probabilities along the best
	// path.
	ok, p := mo.CharacterizedBy("Diagnosis", "1", "11", ctx)
	fmt.Printf("patient 1 ⤳ Diabetes group (11): %v with probability %.2f (certain via 9 ⊑ 11)\n", ok, p)
	ok4, p4 := mo.CharacterizedBy("Diagnosis", "1", "4", ctx)
	fmt.Printf("patient 1 ⤳ pregnancy-diabetes family (4): %v with probability %.2f (only via the 40%% diagnosis)\n", ok4, p4)
	fmt.Println()

	// ProbThreshold is the algebra-level filter: drop uncertain pairs,
	// keeping the MO well formed.
	sure, err := mddm.ProbThreshold(mo, 0.8)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("after ProbThreshold(0.8): patient 1's diagnoses = %v\n",
		sure.Relation("Diagnosis").ValuesOf("1"))

	// The query language exposes the same filter.
	cat := mddm.QueryCatalog{"patients": mo}
	res, err := mddm.ExecQuery(thresholdQuery, cat, ref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("patients with diagnosis 5 at ≥ 0.5: %d row(s)\n", len(res.Rows))
	fmt.Println()

	// Probabilistic aggregation: expected, minimum, and maximum patient
	// counts per diagnosis group under uncertainty.
	for _, fn := range probabilisticFunctions {
		r, err := mddm.ExecQuery(probabilisticQuery(fn), cat, ref)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s per diagnosis group:\n%s", fn, mddm.RenderQueryResult(r))
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
