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

// TestQueriesRunPlanned: the threshold query and every probabilistic
// aggregate of the example run through the columnar planner — no fallback
// to the algebra — and return the rows the algebra returns.
func TestQueriesRunPlanned(t *testing.T) {
	cat := mddm.QueryCatalog{"patients": uncertainMO()}
	engines := plan.NewCatalogEngines(cat, ref)
	queries := []string{thresholdQuery}
	for _, fn := range probabilisticFunctions {
		queries = append(queries, probabilisticQuery(fn))
	}
	for _, src := range queries {
		ctx, ex := plan.WithExplain(context.Background())
		got, err := plan.ExecContext(ctx, src, cat, ref, engines)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want, err := mddm.ExecQuery(src, cat, ref)
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if ex.Mode != plan.ModePlanned || ex.View == "" {
			t.Fatalf("%s: mode %q (reason %q, view %q), want planned from a context view", src, ex.Mode, ex.Reason, ex.View)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s:\n planned: %+v\n algebra: %+v", src, got, want)
		}
	}
}
