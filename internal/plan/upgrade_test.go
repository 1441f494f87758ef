package plan

import (
	"context"
	"fmt"
	"reflect"
	"testing"

	"mddm/internal/casestudy"
)

// TestUpgradeParity is the upgrade ≡ recompute ≡ algebra table: every
// grouping leg of the diagnosis hierarchy (4, 20 and 140 values) times
// every function class with a constant-size partial (the count, a sum, a
// mean and an extremum) times every finish — plain; ORDER BY the result
// column ascending and descending under LIMIT 0, 3, 5 and more than the
// groups; a HAVING that removes every group (an empty, non-nil result);
// and ORDER BY the group column. Each query is captured once and then
// continued round after round over appends that create groups the capture
// never saw, lift a group over the LIMIT cutoff, drop an extremum below it
// and add a fact without an argument value. After every round the
// continued result must equal the planner's recompute and the algebra's,
// and the continued partials the recompute's own.
func TestUpgradeParity(t *testing.T) {
	cat, engines, eng, appendFact := deltaFixture(t, 40)
	legs := []string{casestudy.CatGroup, casestudy.CatFamily, casestudy.CatLowLevel}
	fns := []string{`SETCOUNT(*)`, `SUM(Age)`, `AVG(Age)`, `MIN(Age)`}
	finishes := []string{``, ` HAVING > 1000000`, ` ORDER BY Diagnosis DESC LIMIT 3`}
	for _, dir := range []string{`ASC`, `DESC`} {
		for _, limit := range []int{0, 3, 5, 1000} {
			finishes = append(finishes, fmt.Sprintf(` ORDER BY N %s LIMIT %d`, dir, limit))
		}
	}

	type tracked struct {
		src   string
		parts *Partials
	}
	var all []tracked
	for _, leg := range legs {
		for _, fn := range fns {
			for _, fin := range finishes {
				src := fmt.Sprintf(`SELECT %s AS N FROM gen GROUP BY Diagnosis."%s"%s`, fn, leg, fin)
				_, parts := capturePartials(t, src, cat, engines)
				all = append(all, tracked{src, parts})
			}
		}
	}

	lows := cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	fresh := unusedLow(t, cat, all[len(all)-1].parts, nil)
	climber := unusedLow(t, cat, all[len(all)-1].parts, map[string]bool{fresh: true})
	ageless := unusedLow(t, cat, all[len(all)-1].parts, map[string]bool{fresh: true, climber: true})
	rounds := []func(){
		func() { appendFact(50, fresh) }, // a group the capture never saw
		func() { // one group climbs over every LIMIT cutoff
			for i := 0; i < 6; i++ {
				appendFact(90+i, climber)
			}
		},
		func() { // an extremum drops below the cutoff; a group with no Age
			appendFact(1, lows[0])
			appendFact(-1, ageless)
		},
		func() { // two lows: the strictness verdict flips
			for i := 0; i < 3; i++ {
				appendFact(99, lows[1], lows[2])
			}
		},
	}
	epoch := eng.Epoch()
	for r, grow := range rounds {
		grow()
		lo, hi, cur, ok := eng.DeltaRange(epoch)
		if !ok {
			t.Fatalf("round %d: DeltaRange(%d) not resolvable", r, epoch)
		}
		epoch = cur
		for i, tr := range all {
			got, next, err := UpgradeResult(context.Background(), eng, tr.parts, lo, hi, testRef)
			if err != nil {
				t.Fatalf("round %d: %s: %v", r, tr.src, err)
			}
			want, wantParts := capturePartials(t, tr.src, cat, engines)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("round %d: %s: upgrade diverged from recompute:\n upgraded:  %+v\n recompute: %+v", r, tr.src, got, want)
			}
			if !reflect.DeepEqual(next.Groups, wantParts.Groups) {
				t.Fatalf("round %d: %s: continued partials diverged from the recompute's", r, tr.src)
			}
			requireMatchesAlgebra(t, tr.src, cat, got)
			if tr.parts.Query.Having && got.Rows == nil {
				t.Fatalf("round %d: %s: a HAVING that removes every group must leave [] rows, not nil", r, tr.src)
			}
			all[i].parts = next
		}
	}
}

// TestUpgradeResultAllocs bounds what continuing a 140-group result over a
// one-fact append allocates when the finish keeps five rows: the partials
// are merged, not rebuilt, and only the kept rows are formatted.
func TestUpgradeResultAllocs(t *testing.T) {
	cat, engines, eng, appendFact := deltaFixture(t, 2000)
	const src = `SELECT SETCOUNT(*) AS N FROM gen GROUP BY Diagnosis."Low-level Diagnosis" ORDER BY N DESC LIMIT 5`
	_, parts := capturePartials(t, src, cat, engines)
	if len(parts.Groups) != 140 {
		t.Fatalf("captured %d groups, want 140", len(parts.Groups))
	}
	epoch := eng.Epoch()
	appendFact(40, cat["gen"].Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)[0])
	lo, hi, _, ok := eng.DeltaRange(epoch)
	if !ok {
		t.Fatal("delta range not resolvable")
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := UpgradeResult(context.Background(), eng, parts, lo, hi, testRef); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Fatalf("a 140-group LIMIT 5 upgrade allocates %.0f times, want at most 40", allocs)
	}
}
