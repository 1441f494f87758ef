package segment

import (
	"bytes"
	"crypto/sha256"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// The fold seals the live log by giving it the segment's name as a hard
// link, commits the manifest, and only then gives the log a new file.
// Each test here builds one disk state a crash or a failure between
// those steps leaves, directly, and opens it.

// appendAll appends recs to st.
func appendAll(t *testing.T, st *Store, recs []FactAppend) {
	t.Helper()
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
}

// fileSum is the sha256 of the file at path.
func fileSum(t *testing.T, path string) [32]byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(b)
}

// liveLogStart reads the start seq from the live log's header in dir.
func liveLogStart(t *testing.T, dir string) uint64 {
	t.Helper()
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	h, err := decodeWALHeader(b)
	if err != nil {
		t.Fatal(err)
	}
	return h.startSeq
}

// sameFile reports whether the paths a and b name one file.
func sameFile(t *testing.T, a, b string) bool {
	t.Helper()
	sa, err := os.Stat(a)
	if err != nil {
		t.Fatal(err)
	}
	sb, err := os.Stat(b)
	if err != nil {
		t.Fatal(err)
	}
	return os.SameFile(sa, sb)
}

// TestFoldCrashLinkedNotCommitted is a crash after the link and before
// the manifest commit: the log also carries the segment's name, which no
// commit names. The open deletes that name, and every record recovers
// from the log.
func TestFoldCrashLinkedNotCommitted(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 9)
	appendAll(t, st, recs)
	crashed := t.TempDir()
	copyDir(t, dir, crashed) // the open store has folded nothing
	orphan := filepath.Join(crashed, "seg-000000000000-000000000009"+sealedExt)
	if err := os.Link(filepath.Join(crashed, walName), orphan); err != nil {
		t.Fatal(err)
	}
	st2, got := openRecovered(t, crashed, Options{})
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("open kept the uncommitted segment name: %v", err)
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
	more := append(recs, testRecords(t, st2.MO(), 12)[9:]...)
	appendAll(t, st2, more[9:])
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got = openRecovered(t, crashed, Options{})
	assertEngineEqual(t, got, rebuildReference(t, more))
}

// TestFoldCrashCommittedNotRotated is a crash after the manifest commit
// and before the rotation: the live log is the committed segment's file
// under a second name. The open must not append to it or truncate it —
// it gets a new file — so appends, a fold and a re-open later, every
// record recovers and the segment's bytes are the ones committed.
func TestFoldCrashCommittedNotRotated(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 14)
	appendAll(t, st, recs[:8])
	if err := st.Fold(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := loadManifest(dir)
	if err != nil || len(man.Segments) != 1 {
		t.Fatalf("setup: %+v, %v", man, err)
	}
	segPath, walPath := filepath.Join(dir, man.Segments[0].File), filepath.Join(dir, walName)
	if err := os.Remove(walPath); err != nil {
		t.Fatal(err)
	}
	if err := os.Link(segPath, walPath); err != nil {
		t.Fatal(err)
	}
	sealed := fileSum(t, segPath)

	st2, got := openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs[:8]))
	if sameFile(t, walPath, segPath) {
		t.Fatal("open kept appending to the committed segment's file")
	}
	if start := liveLogStart(t, dir); start != 8 {
		t.Fatalf("live log starts at seq %d, want 8", start)
	}
	appendAll(t, st2, recs[8:11])
	if err := st2.Fold(); err != nil {
		t.Fatal(err)
	}
	appendAll(t, st2, recs[11:])
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	if fileSum(t, segPath) != sealed {
		t.Fatal("the committed segment's bytes changed")
	}
	_, got = openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestRecoverRemnantPastFoldedSeq opens a rotation-crash remnant that
// holds records past the folded sequence, as a store that kept appending
// to an unrotated log could leave it: every record recovers, and the
// open leaves a log that starts at the folded sequence and holds exactly
// the records past it.
func TestRecoverRemnantPastFoldedSeq(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 9)
	appendAll(t, st, recs[:6])
	if err := st.Close(); err != nil { // folds [0, 6)
		t.Fatal(err)
	}
	remnant := encodeWALHeader(walHeader{baseFP: fingerprintMO(base(t)), startSeq: 0})
	for i, rec := range recs[:8] {
		rec.Seq = uint64(i)
		remnant = append(remnant, encodeFrame(encodeRecord(rec))...)
	}
	if err := os.WriteFile(filepath.Join(dir, walName), remnant, 0o644); err != nil {
		t.Fatal(err)
	}
	st2, got := openRecovered(t, dir, Options{})
	if st2.Seq() != 8 {
		t.Fatalf("seq after the remnant's open = %d, want 8", st2.Seq())
	}
	assertEngineEqual(t, got, rebuildReference(t, recs[:8]))
	if start := liveLogStart(t, dir); start != 6 {
		t.Fatalf("live log starts at seq %d, want 6", start)
	}
	b, err := os.ReadFile(filepath.Join(dir, walName))
	if err != nil {
		t.Fatal(err)
	}
	if want := sealSegment(st2.baseFP, 6, decodeAll(t, remnant)[6:]); !bytes.Equal(b, want) {
		t.Fatal("the fresh log is not the header at seq 6 plus the remnant's records past it")
	}
	appendAll(t, st2, recs[8:])
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	_, got = openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// decodeAll decodes every record of a log image.
func decodeAll(t *testing.T, img []byte) []FactAppend {
	t.Helper()
	scan, err := scanWAL(img, fingerprintMO(base(t)), true)
	if err != nil || scan.torn {
		t.Fatalf("log image: torn %v, %v", scan.torn, err)
	}
	return scan.recs
}

// TestFoldSealFailureKeepsCommit fails the seal itself: an entry that
// cannot be removed sits at the segment's name. The fold returns the
// error, the manifest is unchanged, the store is not poisoned, and with
// the entry gone a retry with no append in between seals and commits.
func TestFoldSealFailureKeepsCommit(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 7)
	appendAll(t, st, recs)
	commit, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	blocker := filepath.Join(dir, "seg-000000000000-000000000007"+sealedExt)
	if err := os.MkdirAll(filepath.Join(blocker, "keep"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Fold(); err == nil {
		t.Fatal("fold over an unremovable entry at the segment's name succeeded")
	}
	if after, _ := os.ReadFile(filepath.Join(dir, manifestName)); !bytes.Equal(after, commit) {
		t.Fatal("a failed seal changed the manifest")
	}
	if st.poisoned {
		t.Fatal("a failed seal poisoned the store")
	}
	if err := os.RemoveAll(blocker); err != nil {
		t.Fatal(err)
	}
	if err := st.Fold(); err != nil {
		t.Fatal(err)
	}
	man, _, err := loadManifest(dir)
	if err != nil || man.FoldedSeq != 7 || len(man.Segments) != 1 {
		t.Fatalf("retry committed %+v, %v", man, err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestFoldAllocsIndependentOfTail pins that a fold copies no log bytes:
// one that does not refresh the image allocates the same whether the
// tail it seals holds 100 records or 1 000. Each fold starts with empty
// pools, and each size takes the fewest allocations of a few folds run,
// as testing.AllocsPerRun runs, on one P: a blocking fsync can start an
// OS thread, whose bookkeeping the runtime counts as allocations too.
func TestFoldAllocsIndependentOfTail(t *testing.T) {
	const prelude = 9000 // enough facts that a 1 000-record tail stays under a tenth
	seed := t.TempDir()
	st, _ := openRecovered(t, seed, Options{})
	recs := testRecords(t, st.MO(), prelude+1000)
	appendAll(t, st, recs[:prelude])
	if err := st.Close(); err != nil { // folds the prelude and writes its image
		t.Fatal(err)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	allocs := map[int]uint64{}
	for _, n := range []int{100, 1000} {
		for range 3 {
			dir := t.TempDir()
			copyDir(t, seed, dir)
			st, _ := openRecovered(t, dir, Options{})
			appendAll(t, st, recs[prelude:prelude+n])
			snap := st.man.Snapshot
			var before, after runtime.MemStats
			runtime.GC() // twice empties every sync.Pool, victim cache included
			runtime.GC()
			runtime.ReadMemStats(&before)
			if err := st.Fold(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if st.man.Snapshot != snap {
				t.Fatalf("%d-record tail: the fold refreshed the image", n)
			}
			if a := after.Mallocs - before.Mallocs; allocs[n] == 0 || a < allocs[n] {
				allocs[n] = a
			}
		}
	}
	t.Logf("fold allocations by tail records: %v", allocs)
	if allocs[100] != allocs[1000] {
		t.Fatalf("a fold allocates %d times at 100 tail records and %d at 1 000", allocs[100], allocs[1000])
	}
}
