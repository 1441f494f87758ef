package main

import (
	"context"
	"reflect"
	"testing"

	"mddm"
	"mddm/internal/plan"
)

// TestExampleRuns executes the example end to end: examples are part of
// the published API surface, so they must keep building AND running.
func TestExampleRuns(t *testing.T) {
	main()
}

// TestQueriesRunPlanned: every timeslice query of the example runs through
// the columnar planner — no fallback to the algebra — and returns the rows
// the algebra returns.
func TestQueriesRunPlanned(t *testing.T) {
	cat := mddm.QueryCatalog{"patients": mddm.MustPatientMO()}
	engines := plan.NewCatalogEngines(cat, ref)
	for _, q := range queries {
		ctx, ex := plan.WithExplain(context.Background())
		got, err := plan.ExecContext(ctx, q.src, cat, ref, engines)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		want, err := mddm.ExecQuery(q.src, cat, ref)
		if err != nil {
			t.Fatalf("%s: %v", q.src, err)
		}
		if ex.Mode != plan.ModePlanned || ex.View == "" {
			t.Fatalf("%s: mode %q (reason %q, view %q), want planned from a context view", q.src, ex.Mode, ex.Reason, ex.View)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n planned: %+v\n algebra: %+v", q.src, got, want)
		}
	}
}
