package segment

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// TestDecodeTruncationSweep restamps every proper prefix of each
// checksummed artifact body with a valid CRC, so the structural decoders
// — not the checksum — must catch the damage; a sealed segment's frames
// carry their own CRCs, so its prefixes are read as they are. Every
// prefix must produce a typed error.
func TestDecodeTruncationSweep(t *testing.T) {
	seg := sealSegment(testFP, 0, sealedRecs(0, 2))
	se := segEntry{File: "seg-test.wal", From: 0, To: 2}
	for l := 0; l < len(seg); l++ {
		for _, decode := range []bool{true, false} {
			if _, err := readSealed(seg[:l], testFP, se, decode); err == nil {
				t.Fatalf("segment truncated to %d bytes read successfully (decode=%v)", l, decode)
			} else if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("segment truncated to %d (decode=%v): err = %v, want ErrCorrupt", l, decode, err)
			}
		}
	}

	m := base(t)
	img := snapWithCols(m, 1, func(e *enc) {
		e.str("D")
		e.str("C")
		e.u32(1)
		e.str("a")
		e.u32(2) // overflow
		e.u32(0)
		e.u32(0)
		e.u32(0)
		e.u32(1)
		e.u32(3) // codes
		e.u32(0)
		e.u32(0)
		e.u32(0)
	})
	for l := 0; l < len(img); l++ {
		if _, err := decodeSnapshot(stamp(img[:l]), fingerprintMO(m), m, testCtx()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("snapshot truncated to %d bytes: err = %v, want ErrCorrupt", l, err)
		}
	}

	rec := encodeRecord(FactAppend{Seq: 1, FactID: "f", Pairs: []Pair{
		{Dim: "D", Value: "v", Annot: dimension.Annot{
			Time: temporal.Bitemporal{
				Valid: temporal.NewElement(temporal.Interval{Start: 1, End: 5}),
				Trans: temporal.AlwaysElement(),
			},
			Prob: 0.5,
		}},
	}})
	for l := 0; l < len(rec); l++ {
		if _, err := decodeRecord(rec[:l]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("record truncated to %d: err = %v, want ErrCorrupt", l, err)
		}
	}
}

func TestDictCountOverCap(t *testing.T) {
	m := base(t)
	img := stamp(snapWithCols(m, 1, func(e *enc) {
		e.str("D")
		e.str("C")
		e.u32(1<<24 + 1) // column dictionary count over the hard cap
	}))
	if _, err := decodeSnapshot(img, fingerprintMO(m), m, testCtx()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(t.TempDir(), nil, Options{}); err == nil {
		t.Error("open with nil base accepted")
	}
	file := filepath.Join(t.TempDir(), "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(filepath.Join(file, "sub"), base(t), Options{}); err == nil {
		t.Error("open under a plain file accepted")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte("{broken"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, base(t), Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("open over broken manifest: %v", err)
	}
}

// TestOpenCorruptWALHeader damages the header — the one part of the log
// with no intact prefix to fall back on — and expects a hard error.
func TestOpenCorruptWALHeader(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), []byte("garbage header"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, base(t), Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("open over corrupt WAL header: %v", err)
	}
}

// TestOpenWALMissingRange rejects a WAL whose startSeq jumps past the
// folded prefix — a committed range of history has no durable home.
func TestOpenWALMissingRange(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	fp := fingerprintMO(base(t))
	hdr := encodeWALHeader(walHeader{baseFP: fp, startSeq: 5})
	if err := os.WriteFile(filepath.Join(dir, walName), hdr, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, base(t), Options{}); !errors.Is(err, ErrCorrupt) {
		t.Errorf("open with a seq gap: %v", err)
	}
}

// TestOpenStaleWALAfterRotationCrash simulates a crash between the
// manifest commit of a fold and the WAL rotation: the surviving log is
// entirely pre-fold, every record in it already lives in a segment, and
// replay must dedup by sequence number.
func TestOpenStaleWALAfterRotationCrash(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.mo, 6)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil { // folds all 6 into a segment
		t.Fatal(err)
	}
	// Resurrect the pre-rotation log holding the first two records.
	fp := fingerprintMO(base(t))
	stale := encodeWALHeader(walHeader{baseFP: fp, startSeq: 0})
	for i, rec := range recs[:2] {
		rec.Seq = uint64(i)
		stale = append(stale, encodeFrame(encodeRecord(rec))...)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), stale, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, got := openRecovered(t, dir, Options{})
	if st2.Seq() != 6 {
		t.Fatalf("seq after stale-WAL open = %d, want 6", st2.Seq())
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// walWithRecord writes a store whose log tail holds one hand-crafted
// record, bypassing Append's validation — the shape a corrupted or
// tampered log would present.
func walWithRecord(t *testing.T, dir string, rec FactAppend) {
	t.Helper()
	st, _ := openRecovered(t, dir, Options{})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(filepath.Join(dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write(encodeFrame(encodeRecord(rec))); err != nil {
		t.Fatal(err)
	}
}

func TestRecoverRejectsUnreplayableRecords(t *testing.T) {
	t.Run("duplicate-base-fact", func(t *testing.T) {
		dir := t.TempDir()
		m := base(t)
		existing := m.Facts().IDs()[0]
		lows := m.Dimension(casestudy.DimDiagnosis).CategoryAt(casestudy.CatLowLevel, testCtx())
		walWithRecord(t, dir, FactAppend{Seq: 0, FactID: existing, Pairs: []Pair{
			{Dim: casestudy.DimDiagnosis, Value: lows[0]},
		}})
		st, err := Open(dir, base(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Recover(context.Background(), testCtx()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("recover over re-appended fact: %v", err)
		}
	})
	t.Run("unknown-dimension", func(t *testing.T) {
		dir := t.TempDir()
		walWithRecord(t, dir, FactAppend{Seq: 0, FactID: "ghost", Pairs: []Pair{
			{Dim: "NoSuchDim", Value: "v"},
		}})
		st, err := Open(dir, base(t), Options{})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		if _, err := st.Recover(context.Background(), testCtx()); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("recover over unknown dimension: %v", err)
		}
	})
}

// TestRecoverMissingSegment deletes a committed segment file: its range
// is unrecoverable and Recover must fail rather than skip it.
func TestRecoverMissingSegment(t *testing.T) {
	dir := t.TempDir()
	writeFoldedStoreWithColumns(t, dir)
	segs, _ := filepath.Glob(filepath.Join(dir, "*"+sealedExt))
	if len(segs) != 1 {
		t.Fatalf("segments: %v", segs)
	}
	if err := os.Remove(segs[0]); err != nil {
		t.Fatal(err)
	}
	st, err := Open(dir, base(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Recover(context.Background(), testCtx()); err == nil {
		t.Fatal("recover with a missing committed segment succeeded")
	}
}

// TestRecoverSegmentManifestDisagreement swaps the file names of two
// committed segments in the manifest: each file's self-described range
// then contradicts the manifest and Recover must refuse.
func TestRecoverSegmentManifestDisagreement(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.mo, 10)
	for i, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i == 4 {
			if err := st.Fold(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, ok, err := loadManifest(dir)
	if err != nil || !ok || len(man.Segments) != 2 {
		t.Fatalf("expected two segments: %v ok=%v err=%v", man, ok, err)
	}
	man.Segments[0].File, man.Segments[1].File = man.Segments[1].File, man.Segments[0].File
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}
	st2, err := Open(dir, base(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(context.Background(), testCtx()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recover over swapped segments: %v", err)
	}
}

// TestCheckpointMissingFileSoft deletes the image that carries the
// column checkpoint: a derived cache, so recovery proceeds without it.
func TestCheckpointMissingFileSoft(t *testing.T) {
	checkpointLostSoft(t, func(t *testing.T, path string) {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	})
}

// TestCheckpointEmptyFileSoft truncates the image that carries the
// column checkpoint to zero bytes; the decoder rejects it and recovery
// proceeds without it.
func TestCheckpointEmptyFileSoft(t *testing.T) {
	checkpointLostSoft(t, func(t *testing.T, path string) {
		if err := os.Truncate(path, 0); err != nil {
			t.Fatal(err)
		}
	})
}

// checkpointLostSoft folds a store with warmed columns, loses its image
// through lose, and requires recovery to replay the whole log with a
// counted reject and no column installed. The checkpoint then
// regenerates: columns warmed again are folded into a fresh image that
// the next open installs.
func checkpointLostSoft(t *testing.T, lose func(t *testing.T, path string)) {
	dir := t.TempDir()
	recs := writeFoldedStoreWithColumns(t, dir)
	man, _, err := loadManifest(dir)
	if err != nil || man.Snapshot == nil {
		t.Fatalf("expected a snapshot: %+v (%v)", man, err)
	}
	lose(t, filepath.Join(dir, man.Snapshot.File))

	before := mSnapshotRejects.Value()
	st, eng := openRecovered(t, dir, Options{})
	if mSnapshotRejects.Value() == before {
		t.Error("reject counter did not advance")
	}
	if n := len(eng.ExportColumns()); n != 0 {
		t.Errorf("%d columns installed without a checkpoint", n)
	}
	assertEngineEqual(t, eng, rebuildReference(t, recs))

	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	extra := testRecords(t, st.MO(), len(recs)+1)[len(recs)]
	if err := st.Append(extra); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	restores := mSnapshotRestores.Value()
	_, eng = openRecovered(t, dir, Options{})
	if mSnapshotRestores.Value() != restores+1 {
		t.Error("the regenerated image did not restore")
	}
	if !hasColumn(eng, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Error("the regenerated checkpoint installed no column")
	}
	assertEngineEqual(t, eng, rebuildReference(t, append(recs, extra)))
}

// TestCheckpointPerColumnRejects hand-writes an image whose columns are
// individually bad — a code array shorter than the image's facts, and a
// dictionary the engine rejects — while the envelope (checksum,
// fingerprint, context) is valid. Each bad column is skipped with a
// counted reject, the good one installs, and recovery holds.
func TestCheckpointPerColumnRejects(t *testing.T) {
	dir := t.TempDir()
	recs := writeFoldedStoreWithColumns(t, dir)
	man, ok, err := loadManifest(dir)
	if err != nil || !ok || man.Snapshot == nil {
		t.Fatalf("manifest: %v ok=%v err=%v", man, ok, err)
	}
	path := filepath.Join(dir, man.Snapshot.File)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m := base(t)
	img, err := decodeSnapshot(b, fingerprintMO(m), m, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	facts := len(img.ids)
	good := slices.IndexFunc(img.cols, func(c storage.ColumnData) bool {
		return c.Dim == casestudy.DimDiagnosis && c.Cat == casestudy.CatLowLevel
	})
	if good < 0 {
		t.Fatal("fold wrote no low-level diagnosis column")
	}

	// Keep the image up to its columns section, then write three columns.
	e := &enc{b: b[:len(b)-4-columnsLen(img)]}
	e.u32(3)
	// Column 1: codes shorter than the image's facts.
	e.str(casestudy.DimDiagnosis)
	e.str(casestudy.CatFamily)
	e.u32(1)
	e.str("x")
	e.u32(0) // overflow
	e.u32(1) // codes: just one
	e.u32(0)
	// Column 2: right length, but a dictionary the engine will reject.
	e.str(casestudy.DimDiagnosis)
	e.str(casestudy.CatGroup)
	e.u32(1)
	e.str("not-a-real-group")
	e.u32(0)
	e.u32(uint32(facts))
	for i := 0; i < facts; i++ {
		e.u32(0)
	}
	// Column 3: the fold's own, untouched.
	c := img.cols[good]
	e.str(c.Dim)
	e.str(c.Cat)
	e.u32(uint32(len(c.Vals)))
	for _, v := range c.Vals {
		e.str(v)
	}
	e.u32(uint32(len(c.Over)))
	for _, o := range c.Over {
		e.u32(uint32(o.Fact))
		e.u32(o.Vid)
	}
	e.u32(uint32(len(c.Codes)))
	for _, code := range c.Codes {
		e.u32(code)
	}
	if err := os.WriteFile(path, stamp(e.b), 0o644); err != nil {
		t.Fatal(err)
	}

	before, restores := mCheckpointRejects.Value(), mSnapshotRestores.Value()
	_, got := openRecovered(t, dir, Options{})
	if mSnapshotRestores.Value() != restores+1 {
		t.Fatal("an image with bad columns did not restore")
	}
	if mCheckpointRejects.Value() != before+2 {
		t.Errorf("expected two per-column rejects, counter advanced by %d", mCheckpointRejects.Value()-before)
	}
	if hasColumn(got, casestudy.DimDiagnosis, casestudy.CatFamily) ||
		hasColumn(got, casestudy.DimDiagnosis, casestudy.CatGroup) {
		t.Error("a rejected column was installed")
	}
	if !hasColumn(got, casestudy.DimDiagnosis, casestudy.CatLowLevel) {
		t.Error("the good column beside the bad ones was not installed")
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// columnsLen is the encoded size of img's column list: the bytes between
// the section's column count and the image's checksum.
func columnsLen(img *snapImage) int {
	n := 4
	for _, c := range img.cols {
		n += 4 + len(c.Dim) + 4 + len(c.Cat) + 4 + 4 + 8*len(c.Over) + 4 + 4*len(c.Codes)
		for _, v := range c.Vals {
			n += 4 + len(v)
		}
	}
	return n
}

// TestFoldErrors drives Fold against a poisoned store and against live
// WAL damage.
func TestFoldErrors(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	t.Run("poisoned", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openRecovered(t, dir, Options{})
		recs := testRecords(t, st.mo, 3)
		for _, rec := range recs[:2] {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		faultinject.Enable(faultinject.WALTear, nil)
		_ = st.Append(recs[2])
		faultinject.Reset()
		if err := st.Fold(); err == nil {
			t.Error("fold on a poisoned store succeeded")
		}
	})
	t.Run("torn-live-wal", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openRecovered(t, dir, Options{})
		for _, rec := range testRecords(t, st.mo, 3) {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, walName)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()-2); err != nil {
			t.Fatal(err)
		}
		if err := st.Fold(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("fold over torn live WAL: %v", err)
		}
	})
	t.Run("wal-missing-records", func(t *testing.T) {
		dir := t.TempDir()
		st, _ := openRecovered(t, dir, Options{})
		for _, rec := range testRecords(t, st.mo, 3) {
			if err := st.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
		fp := fingerprintMO(base(t))
		if err := os.WriteFile(filepath.Join(dir, walName),
			encodeWALHeader(walHeader{baseFP: fp, startSeq: 0}), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := st.Fold(); !errors.Is(err, ErrCorrupt) {
			t.Errorf("fold over emptied WAL: %v", err)
		}
	})
}

// TestRecoverSealedSegmentDamage damages a committed sealed segment and
// recovers on both paths: covered by the snapshot (the frame-only walk)
// and, with the snapshot gone, replayed (the decoded read). Each damage
// is a hard ErrCorrupt naming the file, and the file is left as found:
// only the live log is ever truncated.
func TestRecoverSealedSegmentDamage(t *testing.T) {
	reseal := func(t *testing.T, path string, se segEntry, from uint64, keep int, shift uint64) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fp := fingerprintMO(base(t))
		recs, err := readSealed(b, fp, se, true)
		if err != nil {
			t.Fatal(err)
		}
		recs = recs[:keep]
		for i := range recs {
			recs[i].Seq += shift
		}
		if err := os.WriteFile(path, sealSegment(fp, from, recs), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	damages := []struct {
		name   string
		damage func(t *testing.T, path string, se segEntry)
	}{
		{"flipped-byte", func(t *testing.T, path string, _ segEntry) {
			flipByte(t, path, walHeaderSize+frameHeader+9)
		}},
		{"truncated-frame", func(t *testing.T, path string, _ segEntry) {
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-3); err != nil {
				t.Fatal(err)
			}
		}},
		{"frame-count", func(t *testing.T, path string, se segEntry) {
			reseal(t, path, se, se.From, int(se.To-se.From)-1, 0)
		}},
		{"start-seq", func(t *testing.T, path string, se segEntry) {
			reseal(t, path, se, se.From+1, int(se.To-se.From), 1)
		}},
	}
	for _, d := range damages {
		for _, path := range []string{"covered", "replayed"} {
			t.Run(d.name+"-"+path, func(t *testing.T) {
				dir := t.TempDir()
				writeFoldedStoreWithColumns(t, dir)
				if old, _ := filepath.Glob(filepath.Join(dir, "*.mseg")); len(old) != 0 {
					t.Fatalf("fold wrote retired MSEG files: %v", old)
				}
				man, _, err := loadManifest(dir)
				if err != nil || len(man.Segments) != 1 || man.Snapshot == nil {
					t.Fatalf("setup: %+v, %v", man, err)
				}
				if path == "replayed" {
					if err := os.Remove(filepath.Join(dir, man.Snapshot.File)); err != nil {
						t.Fatal(err)
					}
				}
				se := man.Segments[0]
				segPath := filepath.Join(dir, se.File)
				d.damage(t, segPath, se)
				damaged, err := os.ReadFile(segPath)
				if err != nil {
					t.Fatal(err)
				}
				st, err := Open(dir, base(t), Options{})
				if err != nil {
					t.Fatal(err)
				}
				defer st.Close()
				_, err = st.Recover(context.Background(), testCtx())
				if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), se.File) {
					t.Fatalf("recover over a damaged segment: %v, want ErrCorrupt naming %s", err, se.File)
				}
				if after, _ := os.ReadFile(segPath); !bytes.Equal(after, damaged) {
					t.Fatal("recovery rewrote a sealed segment")
				}
			})
		}
	}
}

// hasColumn reports whether eng has the (dim, cat) column built.
func hasColumn(eng *storage.Engine, dim, cat string) bool {
	return slices.ContainsFunc(eng.ExportColumns(), func(c storage.ColumnData) bool { return c.Dim == dim && c.Cat == cat })
}
