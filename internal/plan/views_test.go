package plan

import (
	"context"
	"fmt"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/query"
	"mddm/internal/temporal"
)

// wardsMO is the hand-built MO whose hierarchy itself is temporal and
// uncertain — not just the fact attachments, as in the generator's MOs.
// Visits are characterized by a Site (Ward < Clinic < Hospital) and a Cost:
//
//   - memberships carry valid time (clinic C2 exists from 1990, ward W4
//     until 1989), transaction time (hospital H2 is recorded from 1992)
//     and probability (ward W3 is a ward with 0.6, H2 a hospital with 0.7,
//     H3 one with 0.6);
//   - edges carry the same: W2 moves from C1 to C2 in 1995, W3 is in C2
//     with 0.8, C1 is in H1 with 0.9 and surely in H3 — a threshold that
//     rejects H3 as a hospital still groups by it what reaches it — C2 is
//     in H1 and, with 0.5, recorded from 1992, in H2 (non-strict), W4 has
//     no clinic (non-covering);
//   - the Code representation renames W1 in 1990 and knows W3 with 0.7;
//   - visits attach at every level (mixed granularity), to several wards
//     (many-to-many), to ⊤, with valid time, transaction time and
//     probabilities 0.5–1 — v13 has no Site at all, v12 no Cost.
func wardsMO(t testing.TB) *core.MO {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	site := dimension.MustDimensionType("Site", dimension.Constant, dimension.KindString, "Ward", "Clinic", "Hospital")
	cost := dimension.NewDimensionType("Cost")
	must(cost.AddCategoryType("Amount", dimension.Sum, dimension.KindInt))
	must(cost.Finalize())
	m := core.NewMO(core.MustSchema("Visit", site, cost))
	m.SetKind(core.Bitemporal)

	valid := func(from, to string) dimension.Annot { return dimension.ValidDuring(temporal.Span(from, to)) }
	recorded := func(a dimension.Annot, from string) dimension.Annot {
		a.Time.Trans = temporal.Span(from, "NOW")
		return a
	}
	always := dimension.Always()

	d := m.Dimension("Site")
	for _, v := range []struct {
		cat, id string
		a       dimension.Annot
	}{
		{"Hospital", "H1", always},
		{"Hospital", "H2", recorded(always.WithProb(0.7), "01/01/1992")},
		{"Hospital", "H3", always.WithProb(0.6)},
		{"Clinic", "C1", always},
		{"Clinic", "C2", valid("01/01/1990", "NOW")},
		{"Ward", "W1", always},
		{"Ward", "W2", always},
		{"Ward", "W3", always.WithProb(0.6)},
		{"Ward", "W4", valid("01/01/1970", "31/12/1989")},
	} {
		must(d.AddValueAnnot(v.cat, v.id, v.a))
	}
	for _, e := range []struct {
		child, parent string
		a             dimension.Annot
	}{
		{"W1", "C1", always},
		{"W2", "C1", valid("01/01/1980", "31/12/1994")},
		{"W2", "C2", valid("01/01/1995", "NOW")},
		{"W3", "C2", always.WithProb(0.8)},
		{"C1", "H1", always.WithProb(0.9)},
		{"C1", "H3", always},
		{"C2", "H1", valid("01/01/1990", "NOW")},
		{"C2", "H2", recorded(always.WithProb(0.5), "01/01/1992")},
	} {
		must(d.AddEdgeAnnot(e.child, e.parent, e.a))
	}
	code, err := d.AddRepresentation("Code", "Ward")
	must(err)
	must(code.MapAnnot("W1", "A", valid("01/01/1970", "31/12/1989")))
	must(code.MapAnnot("W1", "B", valid("01/01/1990", "NOW")))
	must(code.MapAnnot("W2", "A", valid("01/01/1990", "NOW")))
	must(code.MapAnnot("W3", "Z", always.WithProb(0.7)))

	c := m.Dimension("Cost")
	for _, amount := range []string{"10", "25", "40", "70"} {
		must(c.AddValue("Amount", amount))
	}

	for _, p := range []struct {
		fact, site string
		a          dimension.Annot
		cost       string
	}{
		{"v01", "W1", always, "10"},
		{"v02", "W1", valid("01/01/1985", "31/12/1992"), "25"},
		{"v03", "W2", always, "40"},
		{"v04", "W2", valid("01/01/1996", "NOW").WithProb(0.9), "70"},
		{"v05", "W3", always, "10"},
		{"v06", "W3", always.WithProb(0.5), "25"},
		{"v07", "W4", valid("01/01/1975", "31/12/1988"), "40"},
		{"v08", "C1", always.WithProb(0.9), "70"},
		{"v09", "C2", recorded(always, "01/01/1993"), "10"},
		{"v10", "H2", always, "25"},
		{"v11", dimension.TopValue, always, "40"},
		{"v12", "W1", recorded(valid("01/01/1991", "NOW"), "01/01/1994").WithProb(0.8), ""},
	} {
		must(m.RelateAnnot("Site", p.fact, p.site, p.a))
		if p.cost != "" {
			must(m.Relate("Cost", p.fact, p.cost))
		}
	}
	// Many-to-many: v03 is also in W3 since 1991, v05 also — less surely —
	// in W1; v13 has a cost and no site.
	must(m.RelateAnnot("Site", "v03", "W3", valid("01/01/1991", "NOW")))
	must(m.RelateAnnot("Site", "v05", "W1", always.WithProb(0.7)))
	must(m.Relate("Cost", "v13", "70"))
	return m
}

// viewClauses are the evaluation contexts of the oracle matrix: each
// timeslice, both, the threshold, and all three combined, per MO at
// instants where its data changes.
func viewClauses(valid, trans string, prob float64) []string {
	return []string{
		fmt.Sprintf(` ASOF VALID '%s'`, valid),
		fmt.Sprintf(` ASOF TRANS '%s'`, trans),
		fmt.Sprintf(` ASOF VALID '%s' ASOF TRANS '%s'`, valid, trans),
		fmt.Sprintf(` WITH PROB >= %v`, prob),
		fmt.Sprintf(` ASOF VALID '%s' ASOF TRANS '%s' WITH PROB >= %v`, valid, trans, prob),
	}
}

// viewMatrix is the oracle matrix of the context-view queries on one MO:
// every context of clauses, and every probabilistic function in the current
// context and in the first and the last of them, over FACTS, the global
// aggregate, every level of the hierarchies and a cross, each with a WHERE
// on a representation-qualified literal and with a HAVING/ORDER/LIMIT tail.
func viewMatrix(mo string, legs []string, cross, measure, where string, clauses []string) []string {
	var out []string
	shapes := func(fn, clause string) {
		grouped := append(append([]string{""}, legs...), cross)
		for _, leg := range grouped {
			groupBy := ""
			if leg != "" {
				groupBy = " GROUP BY " + leg
			}
			out = append(out,
				fmt.Sprintf(`SELECT %s AS N FROM %s%s%s`, fn, mo, groupBy, clause),
				fmt.Sprintf(`SELECT %s AS N FROM %s WHERE %s%s%s`, fn, mo, where, groupBy, clause),
				fmt.Sprintf(`SELECT %s AS N FROM %s%s HAVING >= 1%s ORDER BY N DESC LIMIT 3`, fn, mo, groupBy, clause))
		}
	}
	for _, clause := range clauses {
		out = append(out,
			fmt.Sprintf(`SELECT FACTS FROM %s%s`, mo, clause),
			fmt.Sprintf(`SELECT FACTS FROM %s WHERE %s%s`, mo, where, clause),
			fmt.Sprintf(`SELECT FACTS FROM %s WHERE NOT %s%s LIMIT 3`, mo, where, clause))
		shapes(`SETCOUNT(*)`, clause)
		shapes(fmt.Sprintf(`AVG(%s)`, measure), clause)
	}
	for _, name := range agg.Names() {
		if agg.MustLookup(name).NeedsProb {
			for _, clause := range []string{"", clauses[0], clauses[len(clauses)-1]} {
				shapes(name+`(*)`, clause)
			}
		}
	}
	return out
}

// viewQueries is the matrix on the paper's case-study MO, on the generator
// MO (churn, uncertain, non-strict, mixed granularity) and on wardsMO;
// TestDifferentialOracle runs it.
func viewQueries() []string {
	diagnosis := []string{`Diagnosis."Low-level Diagnosis"`, `Diagnosis."Diagnosis Family"`, `Diagnosis."Diagnosis Group"`}
	residence := []string{`Residence."Area"`, `Residence."County"`, `Residence."Region"`}
	site := []string{`Site."Ward"`, `Site."Clinic"`, `Site."Hospital"`}
	var out []string
	out = append(out, viewMatrix("patients", append(diagnosis, residence...), diagnosis[1]+", "+residence[2], "Age", `Diagnosis.Code = 'E10'`,
		append(viewClauses("15/06/1975", "01/01/1998", 0.5), viewClauses("15/06/1985", "01/01/1998", 0.95)[:1]...))...)
	out = append(out, viewMatrix("gen", append(diagnosis, residence...), diagnosis[1]+", "+residence[1], "Age", `Residence = 'R0'`,
		viewClauses("15/06/1988", "01/01/1990", 0.95))...)
	out = append(out, viewMatrix("wards", site, site[1]+", Cost", "Cost", `Site.Code = 'A'`,
		append(viewClauses("15/06/1987", "15/06/1991", 0.75), viewClauses("15/06/1996", "15/06/1993", 0.45)...))...)
	// Literal resolution on the sliced dimension, and the threshold on the
	// whole witness (pair × path) that a WHERE applies and a GROUP BY does not.
	out = append(out,
		`SELECT FACTS FROM wards WHERE Site = 'A' ASOF VALID '15/06/1987'`,
		`SELECT FACTS FROM wards WHERE Site = 'W4' ASOF VALID '15/06/1996'`,
		`SELECT FACTS FROM wards WHERE Site.Code = 'Z' WITH PROB >= 0.75`,
		`SELECT FACTS FROM wards WHERE Site = 'H1' WITH PROB >= 0.85`,
		`SELECT FACTS FROM wards WHERE Site = 'H1' OR Site = 'C2' WITH PROB >= 0.45`,
		`SELECT FACTS FROM wards WHERE Site <> 'H2' ASOF TRANS '15/06/1991'`,
		`SELECT FACTS FROM wards WHERE Site = '⊤' ASOF VALID '15/06/1987'`,
		`SELECT FACTS FROM wards WHERE Site = '⊤' WITH PROB >= 0.65`,
		`SELECT FACTS FROM wards WHERE Cost >= 25 AND Site IN ('C1', 'C2') ASOF VALID '15/06/1996' WITH PROB >= 0.75`,
		`SELECT SUM(Cost) FROM wards WHERE Site.Code IN ('A', 'B') GROUP BY Site."Clinic" ASOF VALID '15/06/1991'`,
		`SELECT MEDIAN(Cost) FROM wards GROUP BY Site."Hospital" ASOF VALID '15/06/1996' WITH PROB >= 0.45`,
		`SELECT SETCOUNT(*) FROM wards GROUP BY Site."⊤" ASOF VALID '15/06/1987'`,
		`SELECT SETCOUNT(*) FROM wards GROUP BY Site WITH PROB >= 1`,
		`SELECT SETCOUNT(*) FROM wards GROUP BY Site WITH PROB >= 1.5`,
		`SELECT EXPECTED(*) FROM wards GROUP BY Site."Ward", Cost`,
		`SELECT SETCOUNT(*) FROM patients ASOF VALID 'NOW'`,
		`SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Diagnosis Family" ASOF VALID '01/01/1960'`,
	)
	return out
}

// listedProb is a probabilistic function registered without a Fold: the
// planner evaluates it from the members' probability lists, as it does
// MEDIAN from argument lists.
var listedProb = &agg.Func{
	Name: "LEASTSURE", MinClass: dimension.Constant, ResultClass: dimension.Average,
	NeedsProb: true,
	ProbEval: func(probs []float64) (float64, bool) {
		least := 1.0
		for _, p := range probs {
			least = min(least, p)
		}
		return least, true
	},
}

func init() { agg.Register(listedProb) }

// TestViewListedProbabilities pins the list mode of probability members on
// every shape that has one.
func TestViewListedProbabilities(t *testing.T) {
	cat := testCatalog(t)
	engines := NewCatalogEngines(cat, testRef)
	for _, src := range []string{
		`SELECT LEASTSURE(*) FROM wards`,
		`SELECT LEASTSURE(*) FROM wards GROUP BY Site."Hospital"`,
		`SELECT LEASTSURE(*) FROM wards WHERE Cost >= 25 GROUP BY Site."Clinic" ASOF VALID '15/06/1996'`,
		`SELECT LEASTSURE(*) FROM wards GROUP BY Site."Ward", Cost WITH PROB >= 0.45`,
		`SELECT LEASTSURE(*) FROM gen GROUP BY Diagnosis."Diagnosis Group", Residence."Region"`,
	} {
		if ex := diffOne(t, context.Background(), src, cat, engines); ex.Mode != ModePlanned {
			t.Fatalf("%s: mode=%q, want planned", src, ex.Mode)
		}
	}
}

// TestViewAnswersOnePerAppend: with several views cached, the answers after
// an append are the algebra's on the grown MO — no view made before the
// append is served, and none sees the fact twice.
func TestViewAnswersOnePerAppend(t *testing.T) {
	cat := query.Catalog{"wards": wardsMO(t)}
	engines := NewCatalogEngines(cat, testRef)
	ctx := context.Background()
	eng, err := engines.EngineFor(ctx, "wards")
	if err != nil {
		t.Fatal(err)
	}
	queries := []string{
		`SELECT SETCOUNT(*) FROM wards GROUP BY Site."Clinic" ASOF VALID '15/06/1996'`,
		`SELECT SETCOUNT(*) FROM wards GROUP BY Site."Clinic" ASOF VALID '15/06/1987'`,
		`SELECT SETCOUNT(*) FROM wards GROUP BY Site."Clinic" WITH PROB >= 0.75`,
		`SELECT EXPECTED(*) FROM wards GROUP BY Site."Hospital"`,
		`SELECT MINCOUNT(*) FROM wards GROUP BY Site."Hospital"`,
	}
	for round, a := range []dimension.Annot{
		{}, // no append yet
		dimension.ValidDuring(temporal.Span("01/01/1995", "NOW")),
		dimension.Always().WithProb(0.9),
	} {
		if round > 0 {
			id := fmt.Sprintf("v9%d", round) // sorts after every earlier visit
			if err := cat["wards"].RelateAnnot("Site", id, "W2", a); err != nil {
				t.Fatal(err)
			}
			if err := eng.AppendFact(id); err != nil {
				t.Fatal(err)
			}
		}
		for k, src := range queries {
			// The two probabilistic queries share the current context's view.
			want := "built"
			if k == len(queries)-1 {
				want = "cached"
			}
			if ex := diffOne(t, ctx, src, cat, engines); ex.View != want {
				t.Fatalf("round %d: %s: view=%q, want %s after the append", round, src, ex.View, want)
			}
		}
		for _, src := range queries {
			if ex := diffOne(t, ctx, src, cat, engines); ex.View != "cached" {
				t.Fatalf("round %d: %s: view=%q on the repeat, want cached", round, src, ex.View)
			}
		}
	}
}
