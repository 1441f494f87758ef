// Temporal: valid time, transaction time, timeslices, and analysis across
// change — the 1980 diagnosis reclassification of the case study.
package main

import (
	"fmt"
	"log"

	"mddm"
)

var ref = mddm.MustDate("01/01/1999")

// queries are the example's query-language statements: timeslices of the
// case-study MO before and after the 1980 reclassification. The columnar
// planner answers each from a context view of its engine (main_test.go
// holds it to that, and to the algebra's rows).
var queries = []struct{ title, src string }{
	// The world as of 1975: only the old classification exists; patient 1
	// has no diagnosis yet.
	{"Patients per diagnosis family, as the world was on 15/06/1975:",
		`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Family" ASOF VALID '15/06/1975'`},
	// The world as of 1995: the new classification, both patients.
	{"Patients per diagnosis group, as the world was on 01/01/1995:",
		`SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Group" ASOF VALID '01/01/1995'`},
}

func main() {
	mo := mddm.MustPatientMO()
	cat := mddm.QueryCatalog{"patients": mo}

	for _, q := range queries {
		fmt.Println(q.title)
		r, err := mddm.ExecQuery(q.src, cat, ref)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Print(mddm.RenderQueryResult(r))
		fmt.Println()
	}

	// Timeslice as an algebra operator: the temporal type changes
	// valid-time → snapshot.
	slice, err := mddm.ValidTimeslice(mo, mddm.MustDate("15/06/1975"), ref)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ValidTimeslice(patients, 1975): kind %v, diagnosis values %v\n",
		slice.Kind(), slice.Dimension("Diagnosis").Values())
	fmt.Println()

	// Bitemporal data: record *when the database knew* a diagnosis. The
	// diagnosis is valid from 1982 but was only entered in 1990.
	bi := mo.Clone()
	bi.SetKind(mddm.Bitemporal)
	annot := mddm.Annot{
		Time: mddm.BitemporalElement{
			Valid: mddm.Span("01/01/1982", "NOW"),
			Trans: mddm.Span("01/01/1990", "NOW"),
		},
		Prob: 1,
	}
	if err := bi.RelateAnnot("Diagnosis", "1", "10", annot); err != nil {
		log.Fatal(err)
	}
	for _, at := range []string{"01/01/1985", "01/01/1995"} {
		tt, err := mddm.TransactionTimeslice(bi, mddm.MustDate(at), ref)
		if err != nil {
			log.Fatal(err)
		}
		known := tt.Relation("Diagnosis").Has("1", "10")
		fmt.Printf("Did the database know about patient 1's second diagnosis on %s?  %v\n", at, known)
	}
	fmt.Println()

	// Coalescing: the model never stores value-equivalent data — adjacent
	// periods merge into one maximal chronon set.
	e := mddm.Span("01/01/1980", "31/12/1984").Union(mddm.Span("01/01/1985", "NOW"))
	fmt.Printf("Span(80-84) ∪ Span(85-NOW) coalesces to %v (%d interval)\n", e, e.NumIntervals())
}
