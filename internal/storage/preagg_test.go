package storage

import (
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/fact"
	"mddm/internal/temporal"
)

// patientEngineAt builds the Table 1 case study evaluated at ref, with the
// user-defined grouping rows included or not.
func patientEngineAt(t *testing.T, refS string, userHierarchy bool) *Engine {
	t.Helper()
	opt := casestudy.DefaultOptions()
	opt.Ref = temporal.MustDate(refS)
	opt.UserHierarchy = userHierarchy
	m, err := casestudy.BuildPatientMO(opt)
	if err != nil {
		t.Fatal(err)
	}
	return NewEngine(m, dimension.CurrentContext(opt.Ref))
}

// TestReuseGuardTable1 drives the reuse guard through the fact mappings of
// the paper's Has table: diagnoses attached at mixed granularities
// (diagnosis 9 sits at the Family level, above the Low-level category) and
// the many-to-many fact–dimension relation (patient 2 carries diagnoses 5
// and 9 simultaneously in 1982). In every rejecting case the rollup must
// fall back to base and agree with the direct computation.
func TestReuseGuardTable1(t *testing.T) {
	cases := []struct {
		name          string
		ref           string
		userHierarchy bool
		dim           string
		from, to      string
		kind          AggKind
		arg           string
		wantReject    bool
	}{
		{
			// At 01/01/1999 only the diagnosis-9 rows of Has are current:
			// both patients are characterized directly at the Family level,
			// so a Low-level materialization sees no facts at all. Without
			// the user-defined rows the Low→Family value mapping is strict
			// and covering — only the fact-level check can catch the hole.
			name: "mixed granularity COUNT Low→Family", ref: "01/01/1999",
			userHierarchy: false, dim: casestudy.DimDiagnosis,
			from: casestudy.CatLowLevel, to: casestudy.CatFamily,
			kind: KindCount, wantReject: true,
		},
		{
			// Same hole, SUM path: SUM never had a fact-level check, so
			// before the fact-coverage rule this combined to an empty
			// result instead of the patients' summed ages.
			name: "mixed granularity SUM Low→Family", ref: "01/01/1999",
			userHierarchy: false, dim: casestudy.DimDiagnosis,
			from: casestudy.CatLowLevel, to: casestudy.CatFamily,
			kind: KindSum, arg: casestudy.DimAge, wantReject: true,
		},
		{
			// Mid-1982, full hierarchy: diagnosis 5 sits under Family 4
			// (WHO) and Family 9 (user-defined) — the non-strict mapping of
			// Table 1's Grouping table. Combining would count patient 2
			// under both families.
			name: "non-strict COUNT Low→Family", ref: "01/06/1982",
			userHierarchy: true, dim: casestudy.DimDiagnosis,
			from: casestudy.CatLowLevel, to: casestudy.CatFamily,
			kind: KindCount, wantReject: true,
		},
		{
			// Mid-1982: the Has relation is many-to-many — patient 2 holds
			// diagnoses 5 and 9 at once, so Families 4 and 9 share a fact
			// and their distinct counts cannot be added into Groups.
			name: "many-to-many COUNT Family→Group", ref: "01/06/1982",
			userHierarchy: true, dim: casestudy.DimDiagnosis,
			from: casestudy.CatFamily, to: casestudy.CatGroup,
			kind: KindCount, wantReject: true,
		},
		{
			// Patient 2's residence churn puts one fact under two counties.
			// County SUMs carry the age twice (125) where the Region
			// computation carries it once (77) — many-to-many relations
			// break SUM reuse exactly like COUNT reuse.
			name: "many-to-many SUM County→Region", ref: "01/01/1999",
			userHierarchy: true, dim: casestudy.DimResidence,
			from: casestudy.CatCounty, to: casestudy.CatRegion,
			kind: KindSum, arg: casestudy.DimAge, wantReject: true,
		},
		{
			// The birth-date hierarchy is clean — one day per patient,
			// strict calendar rollup, every fact at the bottom — so the
			// guard must keep approving it: the fact-level checks may not
			// turn the cache into a pure fallback machine.
			name: "strict COUNT Day→Year", ref: "01/01/1999",
			userHierarchy: true, dim: casestudy.DimDOB,
			from: casestudy.CatDay, to: casestudy.CatYear,
			kind: KindCount, wantReject: false,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := patientEngineAt(t, tc.ref, tc.userHierarchy)
			dim := tc.dim
			c := NewCache(e)
			err := c.ReuseGuard(dim, tc.from, tc.to, tc.kind)
			if tc.wantReject && err == nil {
				t.Fatalf("ReuseGuard(%s, %s→%s, %s) = nil, want rejection", dim, tc.from, tc.to, tc.kind)
			}
			if !tc.wantReject && err != nil {
				t.Fatalf("ReuseGuard(%s, %s→%s, %s) = %v, want pass", dim, tc.from, tc.to, tc.kind, err)
			}
			rows, err := c.RollupFrom(dim, tc.from, tc.to, tc.kind, tc.arg)
			if err != nil {
				t.Fatal(err)
			}
			// Whether reused or recomputed, the answer must match base.
			var direct map[string]float64
			switch tc.kind {
			case KindCount:
				counts := e.CountDistinctBy(dim, tc.to)
				direct = make(map[string]float64, len(counts))
				for v, n := range counts {
					direct[v] = float64(n)
				}
			case KindSum:
				direct = sumBy(t, e, dim, tc.to, tc.arg)
			}
			if len(rows) != len(direct) {
				t.Fatalf("rollup %v, direct %v", rows, direct)
			}
			for v, x := range direct {
				if rows[v] != x {
					t.Errorf("%s: rollup %v, direct %v", v, rows[v], x)
				}
			}
			// A rejection shows up as one fallback miss; an approval as
			// one reuse hit.
			wantHits, wantMisses := 1, 0
			if tc.wantReject {
				wantHits, wantMisses = 0, 1
			}
			if c.Hits != wantHits || c.Misses != wantMisses {
				t.Errorf("hits=%d misses=%d, want hits=%d misses=%d", c.Hits, c.Misses, wantHits, wantMisses)
			}
		})
	}
}

// TestReuseGuardMixedGranularityIsolated pins the fact-coverage rule on a
// minimal hierarchy where everything else is clean: two Low values rolling
// strictly and coveringly into two Families, plus one fact attached
// directly at a Family. Value-level checks all pass; only fact-level
// coverage can see that f3 never reaches a Low materialization.
func TestReuseGuardMixedGranularityIsolated(t *testing.T) {
	const dimName = "D"
	dt := dimension.MustDimensionType(dimName, dimension.Constant, dimension.KindString, "Low", "Family")
	m := core.NewMO(core.MustSchema("F", dt))
	d := m.Dimension(dimName)
	for _, v := range []struct{ cat, id string }{
		{"Low", "L1"}, {"Low", "L2"}, {"Family", "F1"}, {"Family", "F2"},
	} {
		if err := d.AddValue(v.cat, v.id); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"L1", "F1"}, {"L2", "F2"}} {
		if err := d.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, r := range [][2]string{{"f1", "L1"}, {"f2", "L2"}, {"f3", "F1"}} {
		if err := m.Relate(dimName, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	e := NewEngine(m, dimension.CurrentContext(temporal.MustDate("01/01/1999")))
	c := NewCache(e)

	if err := c.ReuseGuard(dimName, "Low", "Family", KindCount); err == nil {
		t.Fatal("fact attached at Family must fail the Low→Family reuse guard")
	}
	rows, err := c.RollupFrom(dimName, "Low", "Family", KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	// F1 counts f1 (via L1) and f3 (direct); a Low-level combine would
	// have answered F1→1.
	if rows["F1"] != 2 || rows["F2"] != 1 {
		t.Errorf("rollup = %v, want F1→2 F2→1", rows)
	}

	// Detach the mixed-granularity fact and the same hierarchy is
	// reusable again: the rule keys on facts, not on shapes.
	m2 := core.NewMO(core.MustSchema("F", dt))
	if err := m2.SetDimension(dimName, d); err != nil {
		t.Fatal(err)
	}
	for _, r := range [][2]string{{"f1", "L1"}, {"f2", "L2"}} {
		if err := m2.Relate(dimName, r[0], r[1]); err != nil {
			t.Fatal(err)
		}
	}
	m2.AddFact(fact.NewFact("f3")) // present but uncharacterized in D
	c2 := NewCache(NewEngine(m2, dimension.CurrentContext(temporal.MustDate("01/01/1999"))))
	if err := c2.ReuseGuard(dimName, "Low", "Family", KindCount); err != nil {
		t.Fatalf("clean hierarchy must pass the guard: %v", err)
	}
	rows2, err := c2.RollupFrom(dimName, "Low", "Family", KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	if rows2["F1"] != 1 || rows2["F2"] != 1 {
		t.Errorf("rollup = %v, want F1→1 F2→1", rows2)
	}
	if c2.Hits != 1 {
		t.Errorf("expected reuse hit, hits=%d misses=%d", c2.Hits, c2.Misses)
	}
}
