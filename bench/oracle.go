package main

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/plan"
	"mddm/internal/query"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// refDate resolves NOW everywhere, as mdserve's -ref default does.
var refDate = temporal.MustDate("01/01/1999")

// dataSeed is the -seed every server is started with: the data is fixed,
// only the traffic varies with the benchmark's --seed. casestudy.Generate
// draws patient by patient from one stream, so a smaller MO of the same
// seed is a prefix of a larger one — which is what lets the small gate MO
// vouch for the dimension values of the larger served MOs.
const dataSeed = 1

// gateFacts is the size of the MO the pre-window gate runs on: the gate
// runs every template through the algebra in every run, so it is kept
// small (0.7 s for the 64 dashboard queries; 2.2 s at 1000 facts).
const gateFacts = 300

// columnMinValues mirrors the servers' -columns flag.
const columnMinValues = 16

func generateMO(facts int) (*core.MO, error) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = facts
	cfg.Seed = dataSeed
	return casestudy.Generate(cfg)
}

// oracle answers queries in-process through the planner over an MO
// generated identically to the served one. Its answers are what the
// server's responses are compared against.
type oracle struct {
	cat  query.Catalog
	eng  *storage.Engine
	memo map[string]*query.Result
}

func newOracle(ctx context.Context, mo *core.MO) (*oracle, error) {
	eng, err := storage.BuildEngine(ctx, mo, dimension.CurrentContext(refDate))
	if err != nil {
		return nil, err
	}
	if err := eng.WarmColumns(ctx, columnMinValues); err != nil {
		return nil, err
	}
	return &oracle{cat: query.Catalog{"patients": mo}, eng: eng, memo: map[string]*query.Result{}}, nil
}

// EngineFor makes the oracle its own plan.Engines resolver.
func (o *oracle) EngineFor(context.Context, string) (*storage.Engine, error) { return o.eng, nil }

func (o *oracle) exec(ctx context.Context, src string) (*query.Result, error) {
	if r, ok := o.memo[src]; ok {
		return r, nil
	}
	r, err := plan.ExecContext(ctx, src, o.cat, refDate, o)
	if err != nil {
		return nil, err
	}
	o.memo[src] = r
	return r, nil
}

// gate checks, before any timing, that every template of the workload
// answers identically through the planner and through the algebra — the
// semantic oracle — on the small gate MO. A benchmark over wrong answers
// measures nothing.
func (o *oracle) gate(ctx context.Context, w *workload) error {
	for _, src := range w.templates() {
		planned, err := o.exec(ctx, src)
		if err != nil {
			return fmt.Errorf("gate: planner failed on %q: %w", src, err)
		}
		ref, err := query.ExecContext(ctx, src, o.cat, refDate)
		if err != nil {
			return fmt.Errorf("gate: algebra failed on %q: %w", src, err)
		}
		if !sameResult(planned, ref) {
			return fmt.Errorf("gate: planner and algebra disagree on %q:\nplanner %v\nalgebra %v", src, planned, ref)
		}
	}
	return nil
}

// ages lists the Age values of the MO, for append generation.
func ages(mo *core.MO) []string {
	return mo.Dimension(casestudy.DimAge).Category(casestudy.CatAge)
}

// wireResult is the part of a /query response body that carries the
// answer (the serve package's queryResponse without trace and plan).
type wireResult struct {
	Columns      []string   `json:"columns"`
	Rows         [][]string `json:"rows"`
	Summarizable bool       `json:"summarizable"`
	Reasons      []string   `json:"reasons,omitempty"`
	Warnings     []string   `json:"warnings,omitempty"`
}

func toWire(r *query.Result) wireResult {
	return wireResult{Columns: r.Columns, Rows: r.Rows, Summarizable: r.Summarizable, Reasons: r.Reasons, Warnings: r.Warnings}
}

func decodeWire(body []byte) (wireResult, error) {
	var w wireResult
	err := json.Unmarshal(body, &w)
	return w, err
}

// equal compares answers, treating nil and empty slices alike (JSON does
// not distinguish them).
func (a wireResult) equal(b wireResult) bool {
	return a.Summarizable == b.Summarizable &&
		sameStrings(a.Columns, b.Columns) && sameStrings(a.Reasons, b.Reasons) &&
		sameStrings(a.Warnings, b.Warnings) && sameRows(a.Rows, b.Rows)
}

func sameResult(a, b *query.Result) bool { return toWire(a).equal(toWire(b)) }

func sameStrings(a, b []string) bool {
	return (len(a) == 0 && len(b) == 0) || reflect.DeepEqual(a, b)
}

func sameRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameStrings(a[i], b[i]) {
			return false
		}
	}
	return true
}
