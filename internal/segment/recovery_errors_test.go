package segment

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
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

	ck := ckBody(1, func(e *enc) {
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
		e.pad8()
		e.u32(0)
		e.u32(0)
		e.u32(0)
	})
	for l := 0; l < len(ck); l++ {
		if _, _, _, err := decodeCheckpoint(stamp(ck[:l]), testFP, testFP+1, false); err == nil {
			t.Fatalf("checkpoint truncated to %d bytes decoded successfully", l)
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
	img := stamp(ckBody(1, func(e *enc) {
		e.str("D")
		e.str("C")
		e.u32(1<<24 + 1) // column dictionary count over the hard cap
	}))
	if _, _, _, err := decodeCheckpoint(img, testFP, testFP+1, false); !errors.Is(err, ErrCorrupt) {
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

// TestCheckpointMissingFileSoft deletes the committed checkpoint file:
// a derived cache, so recovery proceeds without it. Exercised under both
// the heap and the mmap open paths.
func TestCheckpointMissingFileSoft(t *testing.T) {
	for _, opts := range []Options{{}, {MMap: true}} {
		dir := t.TempDir()
		recs := writeFoldedStoreWithColumns(t, dir)
		cols, _ := filepath.Glob(filepath.Join(dir, "*.mcol"))
		if len(cols) != 1 {
			t.Fatalf("checkpoints: %v", cols)
		}
		if err := os.Remove(cols[0]); err != nil {
			t.Fatal(err)
		}
		before := mCheckpointRejects.Value()
		_, got := openRecovered(t, dir, opts)
		if mCheckpointRejects.Value() == before {
			t.Error("reject counter did not advance")
		}
		assertEngineEqual(t, got, rebuildReference(t, recs))
	}
}

// TestCheckpointEmptyFileSoft truncates the checkpoint to zero bytes —
// the mmap path returns an empty mapping and the decoder rejects it.
func TestCheckpointEmptyFileSoft(t *testing.T) {
	dir := t.TempDir()
	recs := writeFoldedStoreWithColumns(t, dir)
	cols, _ := filepath.Glob(filepath.Join(dir, "*.mcol"))
	if err := os.Truncate(cols[0], 0); err != nil {
		t.Fatal(err)
	}
	before := mCheckpointRejects.Value()
	_, got := openRecovered(t, dir, Options{MMap: true})
	if mCheckpointRejects.Value() == before {
		t.Error("reject counter did not advance")
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestCheckpointPerColumnRejects hand-writes a checkpoint whose columns
// are individually bad — a code array shorter than the fact prefix, and
// a dictionary the engine rejects — while the envelope (checksum, both
// fingerprints) is valid. Each bad column is skipped; recovery holds.
func TestCheckpointPerColumnRejects(t *testing.T) {
	dir := t.TempDir()
	recs := writeFoldedStoreWithColumns(t, dir)
	man, ok, err := loadManifest(dir)
	if err != nil || !ok || man.Columns == nil {
		t.Fatalf("manifest: %v ok=%v err=%v", err, ok, err)
	}
	facts := man.Columns.Facts
	fp := fingerprintMO(base(t))
	ctxFP := fingerprintCtx(testCtx())

	e := &enc{}
	e.b = append(e.b, ckMagic...)
	e.u32(formatVersion)
	e.u64(fp)
	e.u64(ctxFP)
	e.u64(uint64(facts))
	e.u64(man.Columns.Seq)
	e.u32(2)
	// Column 1: codes shorter than the fact prefix.
	e.str(casestudy.DimDiagnosis)
	e.str(casestudy.CatLowLevel)
	e.u32(1)
	e.str("x")
	e.u32(0) // overflow
	e.u32(1) // codes: just one
	e.pad8()
	e.u32(0)
	// Column 2: right length, but a dictionary the engine will reject.
	e.str(casestudy.DimDiagnosis)
	e.str(casestudy.CatGroup)
	e.u32(1)
	e.str("not-a-real-group")
	e.u32(0)
	e.u32(uint32(facts))
	e.pad8()
	for i := 0; i < facts; i++ {
		e.u32(0)
	}
	img := append(e.b, 0, 0, 0, 0)
	binary.LittleEndian.PutUint32(img[len(img)-4:], crc32.Checksum(img[:len(img)-4], castagnoli))
	if err := os.WriteFile(filepath.Join(dir, man.Columns.File), img, 0o644); err != nil {
		t.Fatal(err)
	}

	before := mCheckpointRejects.Value()
	_, got := openRecovered(t, dir, Options{})
	if mCheckpointRejects.Value() < before+2 {
		t.Errorf("expected two per-column rejects, counter advanced by %d", mCheckpointRejects.Value()-before)
	}
	if got.HasColumn(casestudy.DimDiagnosis, casestudy.CatLowLevel) ||
		got.HasColumn(casestudy.DimDiagnosis, casestudy.CatGroup) {
		t.Error("a rejected column was installed")
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
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
