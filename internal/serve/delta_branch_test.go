package serve

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"mddm/internal/cache"
	"mddm/internal/casestudy"
	"mddm/internal/qos"
	"mddm/internal/query"
)

// These tests drive tryUpgrade directly at the branches the end-to-end
// delta differential cannot reach deterministically: the fresh-race
// short-circuit, an unresolvable engine, a failing fold, and the
// row-limit parity error.

// upgradeableFill serves src once so the result cache holds an
// upgradeable entry, and returns its key and the fill result. The MO's
// engine is warmed first: a fill that builds the engine moves the
// version mid-computation, and the over-fresh guard would store a plain
// entry instead of an upgradeable one.
func upgradeableFill(t *testing.T, s *Server, src string) (string, *query.Result) {
	t.Helper()
	_, mo, kerr := cache.QueryKey(src)
	if kerr != nil {
		t.Fatal(kerr)
	}
	if _, err := s.EngineFor(context.Background(), mo); err != nil {
		t.Fatal(err)
	}
	res, out, err := s.ServeQuery(context.Background(), src)
	if err != nil {
		t.Fatalf("fill: %v", err)
	}
	if out.CacheHit || out.Upgraded {
		t.Fatalf("fill outcome = %+v", out)
	}
	key, _, kerr := cache.QueryKey(src)
	if kerr != nil {
		t.Fatal(kerr)
	}
	return key, res
}

// TestTryUpgradeFreshRace: when a concurrent fill made the entry current
// between the caller's miss and tryUpgrade's inspection, the entry is
// served as the plain hit it is — no fold, no upgrade flag.
func TestTryUpgradeFreshRace(t *testing.T) {
	s, _ := newTestServer(t, deltaLimits)
	src := `SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`
	key, filled := upgradeableFill(t, s, src)

	folds0 := mDeltaFolds.Value()
	res, out, err, handled := s.tryUpgrade(context.Background(), key, "patients", s.resultVersion("patients"))
	if err != nil || !handled {
		t.Fatalf("fresh-race = handled %v, err %v", handled, err)
	}
	if !out.CacheHit || out.Upgraded {
		t.Fatalf("fresh-race outcome = %+v, want plain hit", out)
	}
	if !reflect.DeepEqual(res.res.Rows, filled.Rows) {
		t.Fatalf("fresh-race rows diverged: %v vs %v", res.res.Rows, filled.Rows)
	}
	if mDeltaFolds.Value() != folds0 {
		t.Fatal("fresh-race ran a delta fold")
	}
}

// TestTryUpgradeEngineUnavailable: a stale upgradeable entry whose MO
// cannot be resolved to an engine falls back (counted) without being
// demoted — the entry is not at fault and may upgrade later.
func TestTryUpgradeEngineUnavailable(t *testing.T) {
	s, _ := newTestServer(t, deltaLimits)
	src := `SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`
	key, _ := upgradeableFill(t, s, src)
	grow := deltaAppender(t, s, "engun")
	grow(2)

	engine0 := mDeltaFallbackEngine.Value()
	// The stale entry's key with an MO name the catalog does not hold:
	// EngineFor cannot resolve it.
	_, _, err, handled := s.tryUpgrade(context.Background(), key, "no-such-mo", s.resultVersion("patients"))
	if handled || err != nil {
		t.Fatalf("engine-unavailable = handled %v, err %v, want plain fallback", handled, err)
	}
	if got := mDeltaFallbackEngine.Value() - engine0; got != 1 {
		t.Fatalf("engine-unavailable fallbacks = %d, want 1", got)
	}
	// Not demoted: a later attempt with the real MO still upgrades.
	res, out, err, handled := s.tryUpgrade(context.Background(), key, "patients", s.resultVersion("patients"))
	if err != nil || !handled || !out.Upgraded || res == nil {
		t.Fatalf("post-fallback upgrade = %+v handled %v err %v", out, handled, err)
	}
}

// TestTryUpgradeFoldError: a canceled request reaching the fold falls
// back without demoting (transient — a later attempt succeeds) and
// counts under the fold-error reason.
func TestTryUpgradeFoldError(t *testing.T) {
	s, _ := newTestServer(t, deltaLimits)
	src := `SELECT AVG(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`
	key, _ := upgradeableFill(t, s, src)
	grow := deltaAppender(t, s, "folderr")
	grow(2)

	fold0 := mDeltaFallbackFold.Value()
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err, handled := s.tryUpgrade(canceled, key, "patients", s.resultVersion("patients"))
	if handled || err != nil {
		t.Fatalf("fold-error = handled %v, err %v, want plain fallback", handled, err)
	}
	if got := mDeltaFallbackFold.Value() - fold0; got != 1 {
		t.Fatalf("fold-error fallbacks = %d, want 1", got)
	}
	res, out, err, handled := s.tryUpgrade(context.Background(), key, "patients", s.resultVersion("patients"))
	if err != nil || !handled || !out.Upgraded || res == nil {
		t.Fatalf("retry after cancellation = %+v handled %v err %v", out, handled, err)
	}
}

// TestTryUpgradeRowLimit: when the merged result outgrows
// Limits.MaxResultRows, the upgrade fails with the same resource-
// exhausted error a recompute would produce — handled, not a silent
// fallback that would recompute and hit the limit anyway.
func TestTryUpgradeRowLimit(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 12
	cfg.NonStrict = false
	cfg.Churn = false
	cfg.MixedGranularity = false
	cfg.UncertainFrac = 0
	cfg.DiagnosesPerPatient = 1
	m := casestudy.MustGenerate(cfg)
	src := `SELECT SETCOUNT(*) FROM gen GROUP BY Diagnosis."Low-level Diagnosis"`

	// Size the limit to exactly the filled row count, so one appended
	// group pushes the merged result past it.
	base, err := query.ExecContext(context.Background(), src, query.Catalog{"gen": m}, testRef)
	if err != nil {
		t.Fatal(err)
	}
	limits := deltaLimits
	limits.MaxResultRows = len(base.Rows)

	cat := NewCatalog()
	if err := cat.Register("gen", m); err != nil {
		t.Fatal(err)
	}
	s := NewServer(cat, limits, testRef)
	key, filled := upgradeableFill(t, s, src)
	if len(filled.Rows) != limits.MaxResultRows {
		t.Fatalf("fill rows = %d, want %d", len(filled.Rows), limits.MaxResultRows)
	}

	// Append one fact in a low-level diagnosis no filled row uses.
	eng, err := s.EngineFor(context.Background(), "gen")
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, row := range filled.Rows {
		used[row[0]] = true
	}
	newLow := ""
	for _, low := range m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel) {
		if !used[low] {
			newLow = low
			break
		}
	}
	if newLow == "" {
		t.Fatal("fixture left no unused low-level diagnosis")
	}
	if err := m.Relate(casestudy.DimDiagnosis, "rowlimit0", newLow); err != nil {
		t.Fatal(err)
	}
	if err := eng.AppendFact("rowlimit0"); err != nil {
		t.Fatal(err)
	}

	_, _, uerr, handled := s.tryUpgrade(context.Background(), key, "gen", s.resultVersion("gen"))
	if !handled {
		t.Fatal("row-limit breach not handled by the upgrade path")
	}
	if !errors.Is(uerr, qos.ErrResourceExhausted) {
		t.Fatalf("row-limit error = %v, want resource-exhausted", uerr)
	}
}

// TestPartialsBytesNil pins the nil estimate the fill path relies on
// when a computation captured nothing.
func TestPartialsBytesNil(t *testing.T) {
	if got := partialsBytes(nil); got != 0 {
		t.Fatalf("partialsBytes(nil) = %d", got)
	}
}
