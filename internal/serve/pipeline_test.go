package serve

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"mddm/internal/admission"
	"mddm/internal/batch"
	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/plan"
	"mddm/internal/query"
	"mddm/internal/temporal"
)

// pipelineCase is one query of the matrix: the shape the planner must
// report for it when it computes and whether its cached entry carries the
// partials a delta upgrade needs.
type pipelineCase struct {
	src         string
	shape       string // planned shape; "" for errors
	batchable   bool   // joins the scheduler (leader) instead of running solo
	upgradeable bool
	fails       bool // errors on every path, with the algebra's text
	// grown, when set, is the fact the "after append" round adds in place of
	// deltaAppender's plain one, and whether it must change the answer.
	grown *grownFact
}

// grownFact is one appended fact: its Diagnosis pair, and whether the query
// it is appended under must see it.
type grownFact struct {
	value string
	annot dimension.Annot
	moves bool
}

// The context-view rows: each query answers from a view of the engine, and
// an append must reach it exactly once — the views made before the append
// are dropped, not served. At 15/06/1975 low-level diagnosis 3 is in
// families 7 and 8; today diagnosis 5 is in groups 11 and 12.
const (
	asofQuery     = `SELECT SETCOUNT(*) AS N FROM patients GROUP BY Diagnosis."Diagnosis Family" ASOF VALID '15/06/1975'`
	minProbQuery  = `SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group" WITH PROB >= 0.95`
	expectedQuery = `SELECT EXPECTED(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`
	minCountQuery = `SELECT MINCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`
)

func validFrom(date string) dimension.Annot {
	return dimension.ValidDuring(temporal.Span(date, "NOW"))
}

var pipelineCases = []pipelineCase{
	{src: `SELECT FACTS FROM patients WHERE Diagnosis IN ('E10', 'E11')`, shape: plan.ShapeFacts},
	{src: `SELECT SETCOUNT(*) FROM patients`, shape: plan.ShapeGlobal, upgradeable: true},
	{src: groupQuery, shape: plan.ShapeKernelCount, batchable: true, upgradeable: true},
	{src: `SELECT SUM(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`, shape: plan.ShapeKernelSum, batchable: true, upgradeable: true},
	{src: `SELECT AVG(Age) AS A FROM patients WHERE Age >= 30 GROUP BY Diagnosis."Diagnosis Family" HAVING >= 0 ORDER BY A DESC LIMIT 5`,
		shape: plan.ShapeGroupFold, batchable: true, upgradeable: true},
	{src: `SELECT SUM(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group", Residence`, shape: plan.ShapeCross},
	{src: `DESCRIBE patients Diagnosis`, shape: plan.ShapeDescribe},
	// timeslice: a fact valid at the instant appears, one valid later does not.
	{src: asofQuery, shape: plan.ShapeKernelCount, batchable: true, grown: &grownFact{"3", validFrom("01/01/70"), true}},
	{src: asofQuery, shape: plan.ShapeKernelCount, batchable: true, grown: &grownFact{"3", validFrom("01/01/90"), false}},
	// min-prob: a certain fact passes the threshold, one attached at 0.9 does not.
	{src: minProbQuery, shape: plan.ShapeKernelCount, batchable: true, grown: &grownFact{"5", dimension.Always(), true}},
	{src: minProbQuery, shape: plan.ShapeKernelCount, batchable: true, grown: &grownFact{"5", dimension.Always().WithProb(0.9), false}},
	// probabilistic: a fact attached at 0.9 moves EXPECTED, not MINCOUNT.
	{src: expectedQuery, shape: plan.ShapeGroupFold, batchable: true, grown: &grownFact{"5", dimension.Always().WithProb(0.9), true}},
	{src: minCountQuery, shape: plan.ShapeGroupFold, batchable: true, grown: &grownFact{"5", dimension.Always().WithProb(0.9), false}},
	{src: `SELECT MEDIAN(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`, shape: plan.ShapeGroupFold, batchable: true},
	{src: `SELECT SETCOUNT(*) FROM nowhere`, fails: true},
	{src: `SELECT SUM(*) FROM patients`, fails: true},
	{src: `SELECT ((((`, fails: true},
}

// TestPipelineMatrix runs the product the feature suites each cover one
// factor of: every configuration mdserve can express of {result cache} ×
// {batch} × {admission}, every plan shape, each through ServeQuery as a
// miss, a repeat, and a lookup after one appended fact — for the
// context-view rows a fact chosen to be seen, or not, under the query's
// context. Every answer must equal the algebra's on the same MO — rows,
// summarizability verdict and reasons, error text — and the reported
// outcome (cache, batch, plan shape) must be the one the configuration
// implies. Every query is planned and a cache is always delta-maintained;
// the subtest names spell both out.
func TestPipelineMatrix(t *testing.T) {
	for bits := 0; bits < 1<<3; bits++ {
		cached, batched, admitted := bits&1 != 0, bits&2 != 0, bits&4 != 0
		var limits Limits
		if cached {
			limits.ResultCacheBytes = 4 << 20
		}
		if batched {
			limits.Batching = batch.Config{Enabled: true, GatherWindow: time.Millisecond}
		}
		if admitted {
			limits.Admission = admission.Config{MaxConcurrency: 2, TargetLatency: time.Second, MaxQueue: 4}
		}
		name := fmt.Sprintf("planner=true/cache=%v/delta=%v/batch=%v/admission=%v", cached, cached, batched, admitted)
		t.Run(name, func(t *testing.T) {
			for _, pc := range pipelineCases {
				runPipelineCase(t, limits, pc)
			}
		})
	}
}

// runPipelineCase walks one query through miss, repeat, and
// lookup-after-append on a fresh server.
func runPipelineCase(t *testing.T, limits Limits, pc pipelineCase) {
	t.Helper()
	s, cat := newTestServer(t, limits)
	grow := deltaAppender(t, s, "px")
	if pc.grown != nil {
		grow = func(int) { appendDiagnosed(t, s, "px0000", pc.grown.value, pc.grown.annot) }
	}
	var before *query.Result
	cached := limits.ResultCacheBytes > 0 && !pc.fails
	rounds := []struct {
		label string
		want  QueryOutcome
	}{
		{"miss", QueryOutcome{}},
		{"repeat", QueryOutcome{CacheHit: cached}},
		{"after append", QueryOutcome{
			CacheHit: cached && pc.upgradeable,
			Upgraded: cached && pc.upgradeable,
		}},
	}
	for i, round := range rounds {
		label := fmt.Sprintf("%s: %s", pc.src, round.label)
		if i == 2 {
			grow(1)
		}
		want, wantErr := query.ExecContext(context.Background(), pc.src, cat.Snapshot(), testRef)
		ctx, ex := plan.WithExplain(context.Background())
		ctx, bo := WithBatchOutcome(ctx)
		got, out, err := s.ServeQuery(ctx, pc.src)
		if (err != nil) != pc.fails || (wantErr != nil) != pc.fails {
			t.Fatalf("%s: err %v, algebra err %v, want failure=%v", label, err, wantErr, pc.fails)
		}
		if out != round.want {
			t.Fatalf("%s: outcome %+v, want %+v", label, out, round.want)
		}
		if pc.fails {
			if err.Error() != wantErr.Error() {
				t.Fatalf("%s: error text %q, algebra %q", label, err, wantErr)
			}
			continue
		}
		sameResult(t, label, got, want)
		if i == 2 && pc.grown != nil && reflect.DeepEqual(got.Rows, before.Rows) == pc.grown.moves {
			t.Fatalf("%s: rows %v after %v, want moved=%v", label, got.Rows, before.Rows, pc.grown.moves)
		}
		before = got
		if !reflect.DeepEqual(got.Reasons, want.Reasons) || !reflect.DeepEqual(got.Warnings, want.Warnings) {
			t.Fatalf("%s: reasons/warnings %v %v, algebra %v %v", label, got.Reasons, got.Warnings, want.Reasons, want.Warnings)
		}
		// What computed the answer: nothing on a hit or an upgrade, the
		// planner (with the expected shape) otherwise, the scheduler only for
		// a batchable shape.
		computed := !out.CacheHit
		wantEx := plan.Explain{}
		if computed {
			wantEx = plan.Explain{Mode: plan.ModePlanned, Shape: pc.shape}
		}
		if ex.Mode != wantEx.Mode || ex.Shape != wantEx.Shape {
			t.Fatalf("%s: plan %+v, want mode/shape of %+v", label, *ex, wantEx)
		}
		wantBatch := batch.Outcome("")
		if computed && limits.Batching.Enabled {
			wantBatch = batch.OutcomeSolo
			if pc.batchable {
				wantBatch = batch.OutcomeLeader
			}
		}
		if bo.Outcome != wantBatch {
			t.Fatalf("%s: batch outcome %q, want %q", label, bo.Outcome, wantBatch)
		}
	}
}

// appendDiagnosed appends one fact whose only characterization is the given
// Diagnosis pair, through the sanctioned flow: relate it in the registered
// MO, then AppendFact on the serving engine.
func appendDiagnosed(t *testing.T, s *Server, id, value string, a dimension.Annot) {
	t.Helper()
	eng, err := s.EngineFor(context.Background(), "patients")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := s.cat.Get("patients")
	if err := m.RelateAnnot(casestudy.DimDiagnosis, id, value, a); err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendFact(id); err != nil {
		t.Fatal(err)
	}
}
