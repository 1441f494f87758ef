package segment

import (
	"context"
	"errors"
	"testing"

	"mddm/internal/dimension"
	"mddm/internal/storage"
)

// fuzzSealed is the manifest entry fuzzed bytes are read against as a
// sealed segment.
var fuzzSealed = segEntry{File: "seg-fuzz.wal", From: 5, To: 10}

// FuzzSegmentDecode throws arbitrary bytes at every persisted-artifact
// decoder. The contract under fuzz is the package's untrusted-bytes
// contract: a typed error or a successful parse — never a panic, never
// an unbounded allocation. A snapshot that parses is restored into a
// fresh base and every column it carries is installed: each step
// succeeds or fails with ErrCorrupt or storage.ErrBadColumn. The seed
// corpus is real encoded artifacts (record, sealed segment, WAL image,
// and the snapshots of a warmed engine with and without appended facts,
// so the fuzzer starts inside the columns section) instead of bouncing
// off the magic numbers.
func FuzzSegmentDecode(f *testing.F) {
	rec := FactAppend{Seq: 3, FactID: "pat-f", Pairs: []Pair{
		{Dim: "Diagnosis", Value: "d1", Annot: dimension.Always()},
		{Dim: "Residence", Value: "a1", Annot: dimension.Annot{Time: dimension.Always().Time, Prob: 0.5}},
	}}
	f.Add(encodeRecord(rec))

	m := base(f)
	recs := testRecords(f, m, 5)
	for i := range recs {
		recs[i].Seq = uint64(i)
	}
	sealed := make([]FactAppend, len(recs))
	for i, r := range recs {
		r.Seq = fuzzSealed.From + uint64(i)
		sealed[i] = r
	}
	f.Add(sealSegment(testFP, fuzzSealed.From, sealed))

	wal := encodeWALHeader(walHeader{baseFP: testFP, startSeq: 0})
	for _, r := range recs {
		wal = append(wal, encodeFrame(encodeRecord(r))...)
	}
	f.Add(wal)

	grown := base(f)
	for _, r := range recs {
		if err := applyPairs(grown, r); err != nil {
			f.Fatal(err)
		}
	}
	grown.EnsureTotal()
	eng, err := storage.BuildEngine(context.Background(), grown, testCtx())
	if err != nil {
		f.Fatal(err)
	}
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		f.Fatal(err)
	}
	fp := fingerprintMO(m)
	f.Add(encodeSnapshot(fp, uint64(len(recs)), grown, eng))

	baseEng, err := storage.BuildEngine(context.Background(), m, testCtx())
	if err != nil {
		f.Fatal(err)
	}
	if err := baseEng.WarmColumns(context.Background(), 2); err != nil {
		f.Fatal(err)
	}
	f.Add(encodeSnapshot(fp, 0, m, baseEng))

	f.Fuzz(func(t *testing.T, b []byte) {
		if _, err := decodeRecord(b); err == nil {
			// A successful parse must re-encode decodably (canonical
			// annotations make this a fixpoint, not an identity).
			rec, _ := decodeRecord(b)
			if _, err := decodeRecord(encodeRecord(rec)); err != nil {
				t.Fatalf("decoded record does not re-encode: %v", err)
			}
		}
		if recs, err := readSealed(b, testFP, fuzzSealed, true); err == nil {
			// Whatever the decoded read accepts, the frame-only walk of a
			// snapshot-covered segment accepts too.
			if len(recs) != int(fuzzSealed.To-fuzzSealed.From) {
				t.Fatalf("sealed read returned %d records", len(recs))
			}
			if _, err := readSealed(b, testFP, fuzzSealed, false); err != nil {
				t.Fatalf("frame-only walk rejects a segment the decoded read accepts: %v", err)
			}
		}
		// Each image decodes against a fresh base, the MO it restores into:
		// the image's fact ids are numbered in that MO's dictionary.
		mo := base(t)
		if img, err := decodeSnapshot(b, fp, mo, testCtx()); err == nil {
			// A successful parse promises a complete, validated image:
			// materializing every deferred relation must not panic, it
			// restores into its base, and each of its columns installs or
			// is refused with a typed error.
			for _, r := range img.rels {
				_ = r.Len()
			}
			restored, err := restoreImage(mo, img, testCtx())
			if err != nil {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("restore of a decoded image: untyped error %v", err)
				}
				return
			}
			for _, c := range img.cols {
				if err := restored.InstallColumn(c.Dim, c.Cat, c.Vals, c.Codes, c.Over); err != nil && !errors.Is(err, storage.ErrBadColumn) {
					t.Fatalf("install of a decoded column: untyped error %v", err)
				}
			}
		}
		if s, err := scanWAL(b, testFP, true); err == nil {
			// Intact frames must carry contiguous seqs from the header.
			for i, r := range s.recs {
				if r.Seq != s.header.startSeq+uint64(i) {
					t.Fatalf("scan returned out-of-sequence record %d at %d", r.Seq, i)
				}
			}
		}
	})
}
