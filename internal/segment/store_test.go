package segment

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

var testRef = func() temporal.Chronon {
	c, err := temporal.ParseDate("01/01/1999")
	if err != nil {
		panic(err)
	}
	return c
}()

func testCtx() dimension.Context { return dimension.CurrentContext(testRef) }

// base rebuilds the deterministic base MO every open starts from —
// exactly what a restarted process would re-derive.
func base(t testing.TB) *core.MO {
	t.Helper()
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// testRecords derives n valid append records from the base dimensions:
// a low-level diagnosis, a residence area, and an age per fact, with
// every third record carrying a probabilistic valid-time annotation and
// every other third a second diagnosis (many-to-many → colMulti
// coverage in the columns).
func testRecords(t testing.TB, m *core.MO, n int) []FactAppend {
	t.Helper()
	lows := m.Dimension(casestudy.DimDiagnosis).CategoryAt(casestudy.CatLowLevel, testCtx())
	areas := m.Dimension(casestudy.DimResidence).CategoryAt(casestudy.CatArea, testCtx())
	ages := m.Dimension(casestudy.DimAge).CategoryAt(casestudy.CatAge, testCtx())
	if len(lows) == 0 || len(areas) == 0 || len(ages) == 0 {
		t.Fatalf("base dimensions unexpectedly empty: %d lows, %d areas, %d ages", len(lows), len(areas), len(ages))
	}
	recs := make([]FactAppend, n)
	for i := range recs {
		pairs := []Pair{
			{Dim: casestudy.DimDiagnosis, Value: lows[i%len(lows)], Annot: dimension.Always()},
			{Dim: casestudy.DimResidence, Value: areas[i%len(areas)], Annot: dimension.Always()},
			{Dim: casestudy.DimAge, Value: ages[i%len(ages)], Annot: dimension.Always()},
		}
		switch i % 3 {
		case 1:
			pairs[0].Annot = dimension.Annot{
				Time: temporal.Bitemporal{Valid: temporal.Single(0, 20000), Trans: temporal.AlwaysElement()},
				Prob: 0.9,
			}
		case 2:
			pairs = append(pairs, Pair{
				Dim: casestudy.DimDiagnosis, Value: lows[(i+7)%len(lows)], Annot: dimension.Always(),
			})
		}
		recs[i] = FactAppend{FactID: fmt.Sprintf("newpat%04d", i), Pairs: pairs}
	}
	return recs
}

// applyPairs relates one record's pairs in m, outside any engine: the
// model-level half of an append, for references built from scratch.
func applyPairs(m *core.MO, rec FactAppend) error {
	if m.Facts().Has(rec.FactID) {
		return fmt.Errorf("%w: record %d re-appends fact %q", ErrCorrupt, rec.Seq, rec.FactID)
	}
	for _, p := range rec.Pairs {
		if err := m.RelateAnnot(p.Dim, rec.FactID, p.Value, p.Annot); err != nil {
			return fmt.Errorf("%w: record %d: %v", ErrCorrupt, rec.Seq, err)
		}
	}
	return nil
}

// rebuildReference is the from-scratch path every recovery must match:
// apply the records to a fresh base, build, warm.
func rebuildReference(t testing.TB, recs []FactAppend) *storage.Engine {
	t.Helper()
	m := base(t)
	for _, rec := range recs {
		if err := applyPairs(m, rec); err != nil {
			t.Fatal(err)
		}
	}
	m.EnsureTotal() // the store records omitted dimensions as ⊤
	eng, err := storage.BuildEngine(context.Background(), m, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

var testCats = [][2]string{
	{casestudy.DimDiagnosis, casestudy.CatLowLevel},
	{casestudy.DimDiagnosis, casestudy.CatFamily},
	{casestudy.DimDiagnosis, casestudy.CatGroup},
	{casestudy.DimResidence, casestudy.CatArea},
	{casestudy.DimResidence, casestudy.CatCounty},
	{casestudy.DimResidence, casestudy.CatRegion},
	{casestudy.DimAge, casestudy.CatAge},
}

// assertEngineEqual is the recovery differential: distinct counts over
// every category of the case study plus an age SUM must match the
// rebuilt reference exactly. Ages are integer-valued, so the sums are
// exact regardless of fact order.
func assertEngineEqual(t *testing.T, got, want *storage.Engine) {
	t.Helper()
	if g, w := got.NumFacts(), want.NumFacts(); g != w {
		t.Fatalf("recovered engine has %d facts, reference has %d", g, w)
	}
	ctx := context.Background()
	for _, dc := range testCats {
		g, err := got.CountDistinctByContext(ctx, dc[0], dc[1])
		if err != nil {
			t.Fatalf("recovered count %s/%s: %v", dc[0], dc[1], err)
		}
		w, err := want.CountDistinctByContext(ctx, dc[0], dc[1])
		if err != nil {
			t.Fatalf("reference count %s/%s: %v", dc[0], dc[1], err)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("count %s/%s diverges:\nrecovered %v\nreference %v", dc[0], dc[1], g, w)
		}
	}
	g, err := got.SumByContext(ctx, casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimAge)
	if err != nil {
		t.Fatalf("recovered sum: %v", err)
	}
	w, err := want.SumByContext(ctx, casestudy.DimDiagnosis, casestudy.CatGroup, casestudy.DimAge)
	if err != nil {
		t.Fatalf("reference sum: %v", err)
	}
	if !reflect.DeepEqual(g, w) {
		t.Errorf("age sum by diagnosis group diverges:\nrecovered %v\nreference %v", g, w)
	}
}

// openRecovered opens dir over a fresh base and recovers the engine.
func openRecovered(t *testing.T, dir string, opts Options) (*Store, *storage.Engine) {
	t.Helper()
	st, err := Open(dir, base(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	eng, err := st.Recover(context.Background(), testCtx())
	if err != nil {
		t.Fatal(err)
	}
	return st, eng
}

// TestSegmentStoreRecoverEquivalence is the recovery matrix: whatever
// mix of folded segments and unfolded log tail a shutdown (clean or
// crash) leaves behind, load-after-crash must equal
// rebuild-from-scratch.
func TestSegmentStoreRecoverEquivalence(t *testing.T) {
	scenarios := []struct {
		name string
		run  func(t *testing.T, st *Store, recs []FactAppend)
	}{
		{"unfolded-tail", func(t *testing.T, st *Store, recs []FactAppend) {
			for _, rec := range recs {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			// No Close: the process "crashes" with everything in the WAL.
		}},
		{"segments-plus-tail", func(t *testing.T, st *Store, recs []FactAppend) {
			for i, rec := range recs {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
				if i == len(recs)/2 {
					if err := st.Fold(); err != nil {
						t.Fatal(err)
					}
				}
			}
		}},
		{"clean-shutdown", func(t *testing.T, st *Store, recs []FactAppend) {
			for _, rec := range recs {
				if err := st.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			if err := st.Close(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			st, eng := openRecovered(t, dir, Options{})
			if err := eng.WarmColumns(context.Background(), 2); err != nil {
				t.Fatal(err)
			}
			recs := testRecords(t, st.mo, 40)
			sc.run(t, st, recs)

			_, got := openRecovered(t, dir, Options{})
			assertEngineEqual(t, got, rebuildReference(t, recs))
		})
	}
}

// TestSegmentAppendAfterRecover proves a recovered store keeps
// accepting appends and stays durable through another cycle.
func TestSegmentAppendAfterRecover(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.mo, 30)
	for _, rec := range recs[:20] {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, _ := openRecovered(t, dir, Options{Sync: true})
	if got, want := st2.Seq(), uint64(20); got != want {
		t.Fatalf("recovered seq %d, want %d", got, want)
	}
	for _, rec := range recs[20:] {
		if err := st2.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	_, got := openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

func TestSegmentAppendValidation(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.mo, 2)
	good := recs[0]
	cases := []struct {
		name string
		rec  FactAppend
	}{
		{"empty-id", FactAppend{Pairs: good.Pairs}},
		{"no-pairs", FactAppend{FactID: "lonely"}},
		{"unknown-dim", FactAppend{FactID: "x1", Pairs: []Pair{{Dim: "Nope", Value: "v"}}}},
		{"unknown-value", FactAppend{FactID: "x1", Pairs: []Pair{{Dim: casestudy.DimDiagnosis, Value: "no-such-diagnosis"}}}},
	}
	for _, c := range cases {
		if err := st.Append(c.rec); err == nil {
			t.Errorf("%s: append accepted invalid record", c.name)
		}
	}
	if err := st.Append(good); err != nil {
		t.Fatalf("append after rejections: %v", err)
	}
	if err := st.Append(good); err == nil {
		t.Error("duplicate fact id accepted")
	}
	// Rejections must not have logged anything unreplayable.
	if err := st.Append(recs[1]); err != nil {
		t.Fatal(err)
	}
	_, got := openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestWALTornTailTruncated injures the log the way a crash mid-write
// does — a frame header with only part of its payload — and checks the
// opener truncates exactly back to the acknowledged prefix.
func TestWALTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{Sync: true})
	recs := testRecords(t, st.mo, 10)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Simulated crash: a torn frame lands after the 10 good ones.
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := encodeFrame(encodeRecord(FactAppend{Seq: 10, FactID: "torn", Pairs: recs[0].Pairs}))
	if _, err := f.Write(torn[:len(torn)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	before := mRecoveryTruncations.Value()
	_, got := openRecovered(t, dir, Options{})
	if mRecoveryTruncations.Value() != before+1 {
		t.Errorf("truncation counter did not advance")
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestWALTearFaultPoint drives the same scenario through the
// faultinject point: the append reports failure, in-memory state is
// untouched, and a re-open recovers everything acknowledged before the
// tear.
func TestWALTearFaultPoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	st, eng := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.mo, 8)
	for _, rec := range recs[:7] {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Enable(faultinject.WALTear, nil)
	if err := st.Append(recs[7]); err == nil {
		t.Fatal("append during WAL tear reported success")
	}
	faultinject.Reset()
	if got, want := eng.NumFacts(), rebuildReference(t, recs[:7]).NumFacts(); got != want {
		t.Fatalf("torn append mutated the engine: %d facts, want %d", got, want)
	}
	if err := st.Append(recs[7]); err == nil {
		t.Fatal("poisoned store accepted another append")
	}

	before := mRecoveryTruncations.Value()
	_, got := openRecovered(t, dir, Options{})
	if mRecoveryTruncations.Value() != before+1 {
		t.Errorf("truncation counter did not advance")
	}
	assertEngineEqual(t, got, rebuildReference(t, recs[:7]))
}

// TestSegmentPartialWriteFaultPoint crashes a fold mid-segment-write:
// the orphaned temp file must be swept at the next open and every
// record must still recover from the log.
func TestSegmentPartialWriteFaultPoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.mo, 12)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	faultinject.Enable(faultinject.SegmentWrite, nil)
	if err := st.Fold(); err == nil {
		t.Fatal("fold during injected segment-write fault reported success")
	}
	faultinject.Reset()
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) == 0 {
		t.Fatal("injected fold crash left no partial temp file")
	}

	_, got := openRecovered(t, dir, Options{})
	tmps, _ = filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Errorf("open left orphan temp files behind: %v", tmps)
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestSegmentChecksumHardError corrupts a committed segment: the source
// of truth for its range is gone, so recovery must refuse loudly rather
// than serve wrong results.
func TestSegmentChecksumHardError(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	for _, rec := range testRecords(t, st.mo, 10) {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+sealedExt))
	if err != nil || len(segs) != 1 {
		t.Fatalf("expected one segment file, got %v (%v)", segs, err)
	}
	flipByte(t, segs[0], 60)

	st2, err := Open(dir, base(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(context.Background(), testCtx()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recover over corrupt segment: err = %v, want ErrCorrupt", err)
	}
}

// TestChecksumFaultPoint arms the checksum point, which fires on the
// snapshot (the one artifact with a whole-file checksum): recovery must
// succeed anyway, replaying the log with the columns rebuilt instead of
// installed.
func TestChecksumFaultPoint(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	recs := writeFoldedStoreWithColumns(t, dir)

	before := mSnapshotRejects.Value()
	faultinject.Enable(faultinject.ChecksumMismatch, nil)
	_, got := openRecovered(t, dir, Options{})
	faultinject.Reset()
	if hasColumn(got, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Error("columns installed despite checksum fault")
	}
	if mSnapshotRejects.Value() == before {
		t.Error("snapshot reject counter did not advance")
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestCheckpointCorruptionSoft flips a byte in the snapshot's columns
// section: the image fails its checksum and is rejected whole, like any
// damaged snapshot, so recovery replays the log and rebuilds columns.
func TestCheckpointCorruptionSoft(t *testing.T) {
	dir := t.TempDir()
	recs := writeFoldedStoreWithColumns(t, dir)
	man, _, err := loadManifest(dir)
	if err != nil || man.Snapshot == nil {
		t.Fatalf("expected a snapshot: %+v (%v)", man, err)
	}
	path := filepath.Join(dir, man.Snapshot.File)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	img, err := decodeSnapshot(b, fingerprintMO(base(t)), base(t), testCtx())
	if err != nil || len(img.cols) == 0 {
		t.Fatalf("expected an image with columns: %d columns (%v)", len(img.cols), err)
	}
	flipByte(t, path, len(b)-4-columnsLen(img)/2)

	before := mSnapshotRejects.Value()
	_, got := openRecovered(t, dir, Options{})
	if hasColumn(got, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Error("a column of a corrupt image was installed")
	}
	if mSnapshotRejects.Value() == before {
		t.Error("snapshot reject counter did not advance")
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestCheckpointContextDrift reopens a folded store under a different
// reference date: the persisted columns were computed under the old
// context and must be rejected, while the rest of the snapshot (whose
// pairs are context-independent) still restores and recovers correctly
// under the new one.
func TestCheckpointContextDrift(t *testing.T) {
	dir := t.TempDir()
	recs := writeFoldedStoreWithColumns(t, dir)

	drifted := dimension.CurrentContext(testRef + 500)
	st, err := Open(dir, base(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	restores, rejects := mSnapshotRestores.Value(), mCheckpointRejects.Value()
	got, err := st.Recover(context.Background(), drifted)
	if err != nil {
		t.Fatal(err)
	}
	if mSnapshotRestores.Value() != restores+1 {
		t.Error("context drift kept the snapshot from restoring")
	}
	if mCheckpointRejects.Value() != rejects+1 {
		t.Errorf("context drift counted %d column rejects, want 1", mCheckpointRejects.Value()-rejects)
	}
	if hasColumn(got, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Error("checkpoint from a different context was installed")
	}

	m := base(t)
	for _, rec := range recs {
		if err := applyPairs(m, rec); err != nil {
			t.Fatal(err)
		}
	}
	m.EnsureTotal() // the store records omitted dimensions as ⊤
	want, err := storage.BuildEngine(context.Background(), m, drifted)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for _, dc := range testCats {
		g, err1 := got.CountDistinctByContext(ctx, dc[0], dc[1])
		w, err2 := want.CountDistinctByContext(ctx, dc[0], dc[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("count %s/%s: %v / %v", dc[0], dc[1], err1, err2)
		}
		if !reflect.DeepEqual(g, w) {
			t.Errorf("count %s/%s diverges under drifted context", dc[0], dc[1])
		}
	}
}

// TestCheckpointInstalledParity recovers a folded store and requires the
// columns installed from its snapshot to answer like the closure-bitmap
// path and a from-scratch rebuild, and to keep doing so through an append
// after the restore (AppendFact maintains an installed column as it does
// a built one).
func TestCheckpointInstalledParity(t *testing.T) {
	dir := t.TempDir()
	recs := writeFoldedStoreWithColumns(t, dir)
	ctx := context.Background()

	st, eng := openRecovered(t, dir, Options{})
	if !hasColumn(eng, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Fatal("checkpoint columns were not installed")
	}
	closure := rebuildReference(t, recs) // no columns: the bitmap path
	for _, dc := range testCats {
		col, err1 := eng.CountByColumn(ctx, dc[0], dc[1])
		bm, err2 := closure.CountDistinctByContext(ctx, dc[0], dc[1])
		if err1 != nil || err2 != nil {
			t.Fatalf("count %s/%s: %v / %v", dc[0], dc[1], err1, err2)
		}
		if col != nil && !reflect.DeepEqual(col, bm) {
			t.Errorf("installed column diverges from the closure kernel at %s/%s", dc[0], dc[1])
		}
	}
	assertEngineEqual(t, eng, closure)

	extra := testRecords(t, st.mo, len(recs)+1)[len(recs)]
	if err := st.Append(extra); err != nil {
		t.Fatal(err)
	}
	if !hasColumn(eng, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Fatal("column vanished after append")
	}
	assertEngineEqual(t, eng, rebuildReference(t, append(recs, extra)))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestBaseMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	other := casestudy.MustGenerate(func() casestudy.GenConfig {
		cfg := casestudy.DefaultGen()
		cfg.Patients = 20
		return cfg
	}())
	if _, err := Open(dir, other, Options{}); !errors.Is(err, ErrBaseMismatch) {
		t.Fatalf("open with a different base: err = %v, want ErrBaseMismatch", err)
	}
}

func TestOpenRejectsWALWithoutManifest(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, walName), []byte("MWALgarbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, base(t), Options{}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open with orphan WAL: err = %v, want ErrCorrupt", err)
	}
}

// TestSegmentBackgroundFolder exercises the FoldEvery path: appends
// trigger folds without explicit calls, and recovery still matches.
func TestSegmentBackgroundFolder(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, base(t), Options{FoldEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(context.Background(), testCtx()); err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, st.mo, 30)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, ok, err := loadManifest(dir)
	if err != nil || !ok {
		t.Fatalf("manifest after folds: %v ok=%v", err, ok)
	}
	if man.FoldedSeq != 30 || len(man.Segments) == 0 {
		t.Fatalf("expected everything folded, got folded_seq=%d segments=%d", man.FoldedSeq, len(man.Segments))
	}
	// A folded directory is the manifest, the live log, the sealed
	// segments and one snapshot: nothing else.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	snaps := 0
	for _, ent := range ents {
		switch name := ent.Name(); {
		case name == manifestName, name == walName, strings.HasPrefix(name, "seg-") && strings.HasSuffix(name, sealedExt):
		case strings.HasPrefix(name, "snap-") && strings.HasSuffix(name, ".msnp"):
			snaps++
		default:
			t.Errorf("folded directory holds %s", name)
		}
	}
	if snaps != 1 {
		t.Errorf("folded directory holds %d snapshots, want 1", snaps)
	}
	_, got := openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestSegmentAppendRaceWithQueries races appends (with background
// folding) against queries on the recovered engine — the store-level
// version of the storage package's append/query race tests.
func TestSegmentAppendRaceWithQueries(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, base(t), Options{FoldEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	eng, err := st.Recover(context.Background(), testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, st.mo, 40)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, rec := range recs {
			if err := st.Append(rec); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ctx := context.Background()
			for i := 0; i < 20; i++ {
				if _, err := eng.CountDistinctByContext(ctx, casestudy.DimDiagnosis, casestudy.CatGroup); err != nil {
					t.Errorf("query during appends: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestDecodeCorruptionSweep flips every byte of each artifact image in
// turn: the whole-file checksums must catch every flip with a typed
// error — no panic, no silent acceptance.
func TestDecodeCorruptionSweep(t *testing.T) {
	m := base(t)
	recs := testRecords(t, m, 6)
	for i := range recs {
		recs[i].Seq = uint64(i)
	}
	seg := sealSegment(0xabcd, 0, recs)
	se := segEntry{File: "seg-test.wal", From: 0, To: 6}
	for i := range seg {
		mut := append([]byte(nil), seg...)
		mut[i] ^= 0x40
		for _, decode := range []bool{true, false} {
			if _, err := readSealed(mut, 0xabcd, se, decode); err == nil {
				t.Fatalf("segment byte flip at %d went undetected (decode=%v)", i, decode)
			} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBaseMismatch) {
				t.Fatalf("segment byte flip at %d: untyped error %v", i, err)
			}
		}
	}

	eng, err := storage.BuildEngine(context.Background(), m, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	fp := fingerprintMO(m)
	snap := encodeSnapshot(fp, 0, m, eng)
	for i := 0; i < len(snap); i += 3 {
		mut := append([]byte(nil), snap...)
		mut[i] ^= 0x40
		if _, err := decodeSnapshot(mut, fp, m, testCtx()); err == nil {
			t.Fatalf("snapshot byte flip at %d went undetected", i)
		} else if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrBaseMismatch) {
			t.Fatalf("snapshot byte flip at %d: untyped error %v", i, err)
		}
	}

	wal := encodeWALHeader(walHeader{baseFP: 0xabcd, startSeq: 0})
	for _, rec := range recs {
		wal = append(wal, encodeFrame(encodeRecord(rec))...)
	}
	for i := range wal {
		mut := append([]byte(nil), wal...)
		mut[i] ^= 0x40
		scan, err := scanWAL(mut, 0xabcd, true)
		if i < walHeaderSize {
			if err == nil {
				t.Fatalf("WAL header byte flip at %d went undetected", i)
			}
			continue
		}
		if err != nil {
			t.Fatalf("WAL body byte flip at %d: unexpected hard error %v", i, err)
		}
		if !scan.torn || len(scan.recs) >= len(recs) {
			t.Fatalf("WAL body byte flip at %d: not detected as torn (%d recs)", i, len(scan.recs))
		}
	}
}

// writeFoldedStoreWithColumns builds a store whose single fold wrote a
// snapshot carrying warmed columns, then closes it cleanly.
func writeFoldedStoreWithColumns(t *testing.T, dir string) []FactAppend {
	t.Helper()
	st, err := Open(dir, base(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := st.Recover(context.Background(), testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, st.mo, 15)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	return recs
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(b) {
		off = len(b) / 2
	}
	b[off] ^= 0x40
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStoreLifecycleErrors pins the misuse surface: appends and folds
// before Recover, everything after Close, and double Close.
func TestStoreLifecycleErrors(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, base(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Append(FactAppend{FactID: "x", Pairs: []Pair{{Dim: casestudy.DimDiagnosis, Value: "whatever"}}}); err == nil {
		t.Error("append before Recover accepted")
	}
	if err := st.Fold(); err == nil {
		t.Error("fold before Recover accepted")
	}
	if st.Engine() != nil {
		t.Error("engine non-nil before Recover")
	}
	if _, err := st.Recover(context.Background(), testCtx()); err != nil {
		t.Fatal(err)
	}
	if st.Engine() == nil {
		t.Error("engine nil after Recover")
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Errorf("second close: %v", err)
	}
	if err := st.Append(FactAppend{}); !errors.Is(err, errClosed) {
		t.Errorf("append after close: %v", err)
	}
	if _, err := st.Recover(context.Background(), testCtx()); !errors.Is(err, errClosed) {
		t.Errorf("recover after close: %v", err)
	}
	if err := st.Fold(); !errors.Is(err, errClosed) {
		t.Errorf("fold after close: %v", err)
	}
}

// TestManifestValidation rejects gap and version damage in the commit
// record.
func TestManifestValidation(t *testing.T) {
	dir := t.TempDir()
	write := func(s string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("{not json")
	if _, _, err := loadManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad json: %v", err)
	}
	write(`{"version": 99}`)
	if _, _, err := loadManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("bad version: %v", err)
	}
	write(fmt.Sprintf(`{"version": %d, "folded_seq": 10, "segments": [{"file":"a","from":0,"to":4}]}`, formatVersion))
	if _, _, err := loadManifest(dir); !errors.Is(err, ErrCorrupt) {
		t.Errorf("segment gap: %v", err)
	}
	write(fmt.Sprintf(`{"version": %d, "folded_seq": 4, "segments": [{"file":"a","from":0,"to":4}]}`, formatVersion))
	if _, ok, err := loadManifest(dir); err != nil || !ok {
		t.Errorf("valid manifest rejected: %v", err)
	}
	if !strings.Contains(dir, string(os.PathSeparator)) {
		t.Fatal("sanity")
	}
}

// TestSegmentAppendRejectsUnreplayableRecord pins that the store never
// acknowledges a record the log scan would read back as a torn tail: one
// past a decoder cap (an element of more than maxIntervals intervals), or
// one whose payload is longer than a frame may be. Neither is logged, and
// the append after them survives a crash and reopen.
func TestSegmentAppendRejectsUnreplayableRecord(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.mo, 1)
	disjoint := func(n int) dimension.Annot {
		ivs := make([]temporal.Interval, n)
		for i := range ivs {
			ivs[i] = temporal.Interval{Start: temporal.Chronon(4 * i), End: temporal.Chronon(4*i + 1)}
		}
		return dimension.Annot{
			Time: temporal.Bitemporal{Valid: temporal.NewElement(ivs...), Trans: temporal.AlwaysElement()},
			Prob: 1,
		}
	}
	diag := recs[0].Pairs[0]
	overCap := FactAppend{FactID: "many-intervals", Pairs: []Pair{
		{Dim: diag.Dim, Value: diag.Value, Annot: disjoint(maxIntervals + 10)},
	}}
	big := disjoint(maxIntervals - 1) // each element decodes; nine of them overflow a frame
	tooLong := FactAppend{FactID: "too-long"}
	for i := 0; i < 9; i++ {
		tooLong.Pairs = append(tooLong.Pairs, Pair{Dim: diag.Dim, Value: diag.Value, Annot: big})
	}
	walPath := filepath.Join(dir, walName)
	for _, rec := range []FactAppend{overCap, tooLong} {
		before, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Append(rec); err == nil {
			t.Fatalf("%s: unreplayable append acknowledged", rec.FactID)
		}
		after, err := os.Stat(walPath)
		if err != nil {
			t.Fatal(err)
		}
		if after.Size() != before.Size() {
			t.Fatalf("%s: rejected append logged %d bytes", rec.FactID, after.Size()-before.Size())
		}
	}
	if seq, err := st.AppendSeq(recs[0]); err != nil || seq != 0 {
		t.Fatalf("append after the rejections: seq %d, err %v", seq, err)
	}
	// No Close: the process "crashes" with the record in the log.
	st2, got := openRecovered(t, dir, Options{})
	if st2.Seq() != 1 {
		t.Fatalf("recovered seq %d, want 1", st2.Seq())
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestSegmentAppendRecordsOmittedDimensionsAsTop pins the paper's rule
// that an unknown characterization is ⊤: a record naming only some
// dimensions is completed with (f, ⊤) for the rest before it is logged,
// so the MO validates after the append, after replaying the log, and
// after restoring from a fold.
func TestSegmentAppendRecordsOmittedDimensionsAsTop(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	rec := testRecords(t, st.mo, 1)[0]
	rec.Pairs = rec.Pairs[:1] // Diagnosis only
	if err := st.Append(rec); err != nil {
		t.Fatal(err)
	}
	if len(rec.Pairs) != 1 {
		t.Fatalf("append rewrote the caller's record: %d pairs", len(rec.Pairs))
	}
	check := func(stage string, m *core.MO) {
		t.Helper()
		if err := m.Validate(); err != nil {
			t.Fatalf("%s: %v", stage, err)
		}
		for _, dim := range m.Schema().DimensionNames() {
			if dim == casestudy.DimDiagnosis {
				continue
			}
			if got := m.Relation(dim).ValuesOf(rec.FactID); !reflect.DeepEqual(got, []string{dimension.TopValue}) {
				t.Fatalf("%s: %s values of %s = %v, want [⊤]", stage, dim, rec.FactID, got)
			}
		}
	}
	check("after append", st.MO())
	st2, _ := openRecovered(t, dir, Options{}) // replays the log
	check("after replay", st2.MO())
	if err := st2.Close(); err != nil { // seals the segment, writes the snapshot
		t.Fatal(err)
	}
	st3, _ := openRecovered(t, dir, Options{})
	check("after restore", st3.MO())
}

// TestSegmentFormatVersionRefused pins that a directory written in an
// older layout is refused at Open with a version error, and left as it
// was: there is no migration. Version 1 wrote segments in the retired
// MSEG format; version 2 wrote the columns to a separate MCOL checkpoint
// beside the snapshot.
func TestSegmentFormatVersionRefused(t *testing.T) {
	m := base(t)
	dirs := []struct {
		version int
		extra   string // manifest entries past the segments
		files   map[string]string
	}{
		{1, "", map[string]string{"seg-000000000000-000000000002.mseg": "MSEG\x01\x00\x00\x00"}},
		{2, `, "columns": {"file": "col-000000000002.mcol", "facts": 4, "seq": 2}, ` +
			`"snapshot": {"file": "snap-000000000002.msnp", "facts": 4, "seq": 2}`,
			map[string]string{
				"seg-000000000000-000000000002.wal": "MWAL\x02\x00\x00\x00",
				"col-000000000002.mcol":             "MCOL\x02\x00\x00\x00",
				"snap-000000000002.msnp":            "MSNP\x02\x00\x00\x00",
			}},
	}
	for _, d := range dirs {
		t.Run(fmt.Sprintf("version-%d", d.version), func(t *testing.T) {
			dir := t.TempDir()
			var seg string
			for name, body := range d.files {
				if strings.HasPrefix(name, "seg-") {
					seg = name
				}
				if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			man := fmt.Sprintf(`{"version": %d, "base_fp": "%016x", "base_facts": %d, "folded_seq": 2, `+
				`"segments": [{"file": %q, "from": 0, "to": 2}]%s}`, d.version, fingerprintMO(m), m.Facts().Len(), seg, d.extra)
			if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(man), 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := Open(dir, m, Options{})
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("version %d", d.version)) {
				t.Fatalf("open over a version-%d directory: %v, want a version error", d.version, err)
			}
			for name := range d.files {
				if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
					t.Fatalf("refused open touched %s: %v", name, err)
				}
			}
		})
	}
}

// TestSegmentBytesGaugeSumsStores pins that the mddm_segment_bytes
// gauges sum over every open store: each store moves them by its own
// change, and a closed store takes its share back out.
func TestSegmentBytesGaugeSumsStores(t *testing.T) {
	gauges := func() sizes {
		return sizes{mBytesSegments.Value(), mBytesWAL.Value(), mBytesSnapshot.Value()}
	}
	onDisk := func(dir string) sizes {
		t.Helper()
		ents, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		var sz sizes
		for _, ent := range ents {
			info, err := ent.Info()
			if err != nil {
				t.Fatal(err)
			}
			switch name := ent.Name(); {
			case name == walName:
				sz.wal += info.Size()
			case strings.HasSuffix(name, sealedExt):
				sz.segments += info.Size()
			case strings.HasSuffix(name, ".msnp"):
				sz.snapshot += info.Size()
			}
		}
		return sz
	}
	sum := func(ss ...sizes) sizes {
		var out sizes
		for _, s := range ss {
			out.segments += s.segments
			out.wal += s.wal
			out.snapshot += s.snapshot
		}
		return out
	}
	before := gauges()
	dirA, dirB := t.TempDir(), t.TempDir()
	a, _ := openRecovered(t, dirA, Options{})
	b, _ := openRecovered(t, dirB, Options{})
	for _, rec := range testRecords(t, a.mo, 5) {
		if err := a.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.Fold(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(t, b.mo, 3) {
		if err := b.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := gauges(), sum(before, onDisk(dirA), onDisk(dirB)); got != want {
		t.Fatalf("two open stores: gauges %+v, want %+v", got, want)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := gauges(), sum(before, onDisk(dirB)); got != want {
		t.Fatalf("one store closed: gauges %+v, want %+v", got, want)
	}
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if got := gauges(); got != before {
		t.Fatalf("both stores closed: gauges %+v, want %+v", got, before)
	}
}

// TestRecoverFactOrderMatchesLive recovers one store from its log alone
// and another whose image is rejected, so both replay every record, and
// holds them to the engine that took the appends live: the same dense
// fact order, and bit-identical EXPECTED(*) and SUM(Age) folds. The
// appended facts' ids sort before every base id, so a replay that sorted
// them in among the base facts would fold the probabilities in another
// order.
func TestRecoverFactOrderMatchesLive(t *testing.T) {
	dir := t.TempDir()
	st, live := openRecovered(t, dir, Options{})
	probs := []float64{0.1, 0.7, 0.3, 0.9, 0.2, 0.6, 0.45}
	recs := testRecords(t, st.MO(), 40)
	for i := range recs {
		recs[i].FactID = fmt.Sprintf("0app%03d", i)
		recs[i].Pairs[0].Annot = dimension.Always().WithProb(probs[i%len(probs)])
		if err := st.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	walOnly := t.TempDir()
	copyDir(t, dir, walOnly) // the open store has folded nothing yet
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := loadManifest(dir)
	if err != nil || man.Snapshot == nil || len(man.Segments) == 0 {
		t.Fatalf("expected a segment and an image after Close: %+v (%v)", man, err)
	}
	rejected := t.TempDir()
	copyDir(t, dir, rejected)
	flipByte(t, filepath.Join(rejected, man.Snapshot.File), 60)

	want := recoveryFolds(t, live)
	for _, c := range []struct {
		name, dir string
		rejects   int64
	}{{"wal-only", walOnly, 0}, {"image-rejected", rejected, 1}} {
		before := mSnapshotRejects.Value()
		_, got := openRecovered(t, c.dir, Options{})
		if n := mSnapshotRejects.Value() - before; n != c.rejects {
			t.Fatalf("%s: %d snapshot rejects, want %d", c.name, n, c.rejects)
		}
		if g, w := got.ExportFacts(), live.ExportFacts(); !reflect.DeepEqual(g, w) {
			t.Errorf("%s: fact order\n%v\nlive\n%v", c.name, g, w)
		}
		if g := recoveryFolds(t, got); !reflect.DeepEqual(g, want) {
			t.Errorf("%s: folds\n%v\nlive\n%v", c.name, g, want)
		}
	}
}

// recoveryFolds renders the exact bits of EXPECTED(*) and SUM(Age) per
// diagnosis group, both folded in the engine's fact order.
func recoveryFolds(t *testing.T, eng *storage.Engine) []string {
	t.Helper()
	v, _ := eng.View(eng.Answers(), true)
	scan, err := v.ScanLeg(context.Background(), casestudy.DimDiagnosis, casestudy.CatGroup,
		[]storage.SharedScanMember{{Prob: agg.ProbValue}, {ArgDim: casestudy.DimAge}})
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for j, val := range scan.Values {
		e, s := scan.Members[0].Folds[j].Sum, scan.Members[1].Folds[j].Sum
		out = append(out, fmt.Sprintf("%s: EXPECTED %x SUM %x", val, math.Float64bits(e), math.Float64bits(s)))
	}
	return out
}

// copyDir copies the regular files of src into dst.
func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestStoreGolden pins every byte a store writes: a fixed script — open,
// warm the columns, append 40, fold, append 30, fold, append 30, close —
// leaves exactly these files with exactly these digests. Any change to
// how a fold seals, commits or rotates that is not byte-neutral shows
// here first.
func TestStoreGolden(t *testing.T) {
	dir := t.TempDir()
	st, eng := openRecovered(t, dir, Options{})
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, st.MO(), 100)
	for i, n := range []int{40, 30, 30} {
		for _, rec := range recs[:n] {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		recs = recs[n:]
		if i < 2 {
			if err := st.Fold(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	want := map[string]string{
		"MANIFEST":                          "087ec543d9db0663a375245c254f0e149ed5a181a27119f7a09f85792f140c9b",
		"seg-000000000000-000000000040.wal": "27d13eb051861876fcce9420e8c669b93411d52ecaa7f1c5567ce70fcd835a22",
		"seg-000000000040-000000000070.wal": "9dd746de9adbd2bc7b9f013ecf9ba0bce2fcdf227572e35b061dcf0f038a9648",
		"seg-000000000070-000000000100.wal": "69e7a74fda68359ce4e029519281b4474839d4ce4110e4e7ce036c6742de147e",
		"snap-000000000100.msnp":            "831f0b6917af421137184ebe18b60a84318ab0d0fe1c42f5a4e4a06eea7b9cd6",
		"wal.log":                           "57f27185790fe577d56e487307c0ec25330175b9481f01084952c87d1f1990d2",
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, ent := range ents {
		b, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		got[ent.Name()] = fmt.Sprintf("%x", sha256.Sum256(b))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("store files differ from the golden digests:\n got %v\nwant %v", got, want)
	}
}
