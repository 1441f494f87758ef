package segment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/storage"
)

// encodeSnapshot is the whole snapshot image writeSnapshot streams.
func encodeSnapshot(baseFP, seq uint64, m *core.MO, eng *storage.Engine) []byte {
	var b bytes.Buffer
	if err := writeSnapshot(&b, baseFP, seq, m, eng); err != nil {
		panic(err) // a bytes.Buffer write does not fail
	}
	return b.Bytes()
}

// decodeSnapshot is readSnapshot over an in-memory image.
func decodeSnapshot(b []byte, baseFP uint64, m *core.MO, ectx dimension.Context) (*snapImage, error) {
	return readSnapshot(bytes.NewReader(b), int64(len(b)), baseFP, m, ectx)
}

// sealSegment is a sealed segment's image: the live log a store writes
// from seq from on holding recs, which a fold seals as it stands.
func sealSegment(baseFP, from uint64, recs []FactAppend) []byte {
	b := encodeWALHeader(walHeader{baseFP: baseFP, startSeq: from})
	for _, rec := range recs {
		b = append(b, encodeFrame(encodeRecord(rec))...)
	}
	return b
}

// scanWAL is scanLog over an in-memory log image.
func scanWAL(b []byte, baseFP uint64, decode bool) (walScan, error) {
	return scanLog(bytes.NewReader(b), baseFP, decode)
}

// readSealed is readSealedFrom over an in-memory segment image.
func readSealed(b []byte, baseFP uint64, se segEntry, decode bool) ([]FactAppend, error) {
	return readSealedFrom(bytes.NewReader(b), baseFP, se, decode)
}

// chunkWriter collects what it is given and the length of every call.
type chunkWriter struct {
	bytes.Buffer
	calls []int
}

func (w *chunkWriter) Write(p []byte) (int, error) {
	w.calls = append(w.calls, len(p))
	return w.Buffer.Write(p)
}

// failAt passes the first k bytes of a stream through to w and fails the
// write that would pass byte k, as a full disk would.
type failAt struct {
	w    io.Writer
	k, n int
}

var errDiskFull = errors.New("injected write failure")

func (f *failAt) Write(p []byte) (int, error) {
	if f.n+len(p) <= f.k {
		n, err := f.w.Write(p)
		f.n += n
		return n, err
	}
	n, _ := f.w.Write(p[:f.k-f.n])
	f.n += n
	return n, errDiskFull
}

// bigStore opens a store in dir with warmed columns and appends n test
// records, enough for a snapshot image larger than the stream buffer.
func bigStore(t *testing.T, dir string, n int) (*Store, *storage.Engine, []FactAppend) {
	t.Helper()
	st, eng := openRecovered(t, dir, Options{})
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, st.MO(), n)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	return st, eng, recs
}

// TestSnapshotStreamSameBytes pins that where the stream flushes does not
// change what it writes: streamed in a few odd-sized bytes per write, a
// snapshot image is the image written whole into a bytes.Buffer. Every
// write but the checksummed tail carries at least the flush size.
func TestSnapshotStreamSameBytes(t *testing.T) {
	st, eng, _ := bigStore(t, t.TempDir(), 12)
	want := encodeSnapshot(st.baseFP, st.Seq(), st.MO(), eng)
	for _, flushAt := range []int{1, 3, 7, 13, 61} {
		var w chunkWriter
		e := newStream(&w)
		e.flushAt = flushAt
		e.snapshot(st.baseFP, st.Seq(), st.MO(), eng)
		if err := e.sum(); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w.Bytes(), want) {
			t.Fatalf("flush every %d B: image of %d B differs from the whole image of %d B", flushAt, w.Len(), len(want))
		}
		for i, n := range w.calls[:len(w.calls)-2] { // the body's rest, then the checksum
			if n < flushAt {
				t.Fatalf("flush every %d B: write %d carried %d B", flushAt, i, n)
			}
		}
	}
}

// TestSnapshotStreamDecodeWindows decodes one image through read buffers
// of a few odd sizes, so that nearly every value straddles a refill and
// fact ids outgrow the buffer: the image decoded is the one the full
// buffer decodes, and a damaged copy fails with the same error.
func TestSnapshotStreamDecodeWindows(t *testing.T) {
	st, _, _ := bigStore(t, t.TempDir(), 300)
	img := encodeSnapshot(st.baseFP, st.Seq(), st.MO(), st.Engine())
	fresh := base(t)
	want, err := decodeSnapshot(img, st.baseFP, fresh, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	// Both damaged copies carry a valid checksum, so their parse fails.
	damaged := slices.Clone(img[:len(img)-4])
	damaged[len(damaged)/3] ^= 0x40
	damaged = stamp(damaged)
	_, wantErr := decodeSnapshot(damaged, st.baseFP, fresh, testCtx())
	short := stamp(slices.Clone(img[:len(img)-4-9]))
	_, wantShortErr := decodeSnapshot(short, st.baseFP, fresh, testCtx())
	if wantErr == nil || wantShortErr == nil {
		t.Fatalf("damaged images decoded: %v, %v", wantErr, wantShortErr)
	}
	t.Logf("damaged: %v; truncated: %v", wantErr, wantShortErr)
	defer func(n int) { readBuf = n }(readBuf)
	for _, n := range []int{1, 3, 7, 13, 61} {
		readBuf = n
		got, err := decodeSnapshot(img, st.baseFP, fresh, testCtx())
		if err != nil {
			t.Fatalf("%d B buffer: %v", n, err)
		}
		if got.seq != want.seq || !slices.Equal(got.ids, want.ids) || got.ctxFP != want.ctxFP ||
			!reflect.DeepEqual(got.cols, want.cols) {
			t.Fatalf("%d B buffer: facts or columns differ", n)
		}
		for dim, r := range want.rels {
			if !got.rels[dim].Equal(r) {
				t.Fatalf("%d B buffer: relation %s differs", n, dim)
			}
			if len(got.direct[dim]) != len(want.direct[dim]) {
				t.Fatalf("%d B buffer: dimension %s has %d direct bitmaps, want %d", n, dim, len(got.direct[dim]), len(want.direct[dim]))
			}
			for v, bm := range want.direct[dim] {
				if !got.direct[dim][v].Equal(bm) {
					t.Fatalf("%d B buffer: direct bitmap %s/%s differs", n, dim, v)
				}
			}
		}
		if _, err := decodeSnapshot(damaged, st.baseFP, fresh, testCtx()); fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%d B buffer: damaged image fails with %v, want %v", n, err, wantErr)
		}
		if _, err := decodeSnapshot(short, st.baseFP, fresh, testCtx()); fmt.Sprint(err) != fmt.Sprint(wantShortErr) {
			t.Fatalf("%d B buffer: truncated image fails with %v, want %v", n, err, wantShortErr)
		}
	}
}

// TestSnapshotStreamRoundTrip restores an image several stream buffers
// long: the restored engine answers as a rebuild does, its columns are
// installed rather than rebuilt, and they equal the live engine's.
func TestSnapshotStreamRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, live, recs := bigStore(t, dir, 1500)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	info, err := os.Stat(filepath.Join(dir, man.Snapshot.File))
	if err != nil {
		t.Fatal(err)
	}
	if info.Size() <= 2*streamBuf {
		t.Fatalf("test setup: image of %d B spans fewer than two stream buffers", info.Size())
	}
	restores, rejects := mSnapshotRestores.Value(), mSnapshotRejects.Value()+mCheckpointRejects.Value()
	_, got := openRecovered(t, dir, Options{})
	if mSnapshotRestores.Value() != restores+1 || mSnapshotRejects.Value()+mCheckpointRejects.Value() != rejects {
		t.Fatal("the streamed image did not restore whole")
	}
	assertEngineEqual(t, got, rebuildReference(t, recs))
	gotCols, liveCols := got.ExportColumns(), live.ExportColumns()
	if len(gotCols) == 0 || len(gotCols) != len(liveCols) {
		t.Fatalf("restored %d columns, live engine has %d", len(gotCols), len(liveCols))
	}
	for i, g := range gotCols {
		l := liveCols[i]
		if g.Dim != l.Dim || g.Cat != l.Cat || !slices.Equal(g.Vals, l.Vals) ||
			!slices.Equal(g.Codes, l.Codes) || !slices.Equal(g.Over, l.Over) {
			t.Errorf("restored column %s/%s differs from the live engine's", g.Dim, g.Cat)
		}
	}
	if !reflect.DeepEqual(got.ExportFacts(), live.ExportFacts()) {
		t.Fatal("restored fact order differs from the live engine's")
	}
}

// TestFoldWriteFailureKeepsCommit fails a fold's image write at byte k,
// for several k — at the start, around a stream flush, and inside the
// snapshot's trailing checksum. (The segment is the live log itself,
// sealed by a link: no segment bytes are written to fail; a failing seal
// is TestFoldSealFailureKeepsCommit's case.) The fold returns
// the error, the manifest is unchanged, the store is not poisoned, and a
// copy of the directory opens to every record.
func TestFoldWriteFailureKeepsCommit(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	st, _, first := bigStore(t, dir, 5)
	if err := st.Fold(); err != nil {
		t.Fatal(err)
	}
	recs := append(first, testRecords(t, st.MO(), 1505)[5:]...)
	for _, rec := range recs[len(first):] {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	commit, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	snapLen := len(encodeSnapshot(st.baseFP, st.Seq(), st.MO(), st.Engine()))
	if snapLen <= streamBuf+1 {
		t.Fatalf("test setup: image of %d B fits one stream buffer", snapLen)
	}
	cases := []struct {
		prefix string
		k      int
	}{
		{"snap-", 0}, {"snap-", 1}, {"snap-", streamBuf - 1}, {"snap-", streamBuf}, {"snap-", streamBuf + 1},
		{"snap-", snapLen - 5}, {"snap-", snapLen - 4}, {"snap-", snapLen - 2}, {"snap-", snapLen - 1},
	}
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s%d", c.prefix, c.k), func(t *testing.T) {
			st.wrapArtifact = func(name string, w io.Writer) io.Writer {
				if strings.HasPrefix(name, c.prefix) {
					return &failAt{w: w, k: c.k}
				}
				return w
			}
			defer func() { st.wrapArtifact = nil }()
			if err := st.Fold(); !errors.Is(err, errDiskFull) {
				t.Fatalf("fold through a failing write: %v, want the write's error", err)
			}
			after, err := os.ReadFile(filepath.Join(dir, manifestName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(after, commit) {
				t.Fatal("a failed fold changed the manifest")
			}
			if st.poisoned {
				t.Fatal("a failed artifact write poisoned the store")
			}
			cp := t.TempDir()
			copyDir(t, dir, cp)
			_, got := openRecovered(t, cp, Options{})
			assertEngineEqual(t, got, rebuildReference(t, recs))
		})
	}
	// With the writer healthy again the same store folds and reopens.
	if err := st.Fold(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	_, got := openRecovered(t, dir, Options{})
	assertEngineEqual(t, got, rebuildReference(t, recs))
}

// TestRecoverReplaysSegmentsThroughOneBuffer replays several sealed
// segments, each read into the buffer the one before it used: no
// replayed record may keep bytes of a segment read earlier.
func TestRecoverReplaysSegmentsThroughOneBuffer(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 30)
	for i, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
		if i%10 == 9 {
			if err := st.Fold(); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) < 3 {
		t.Fatalf("test setup: %d segments", len(man.Segments))
	}
	// A rejected snapshot makes every segment replay.
	faultinject.Enable(faultinject.ChecksumMismatch, nil)
	_, got := openRecovered(t, dir, Options{})
	faultinject.Reset()
	assertEngineEqual(t, got, rebuildReference(t, recs))
	gotFacts, want := got.ExportFacts(), rebuildReference(t, recs).ExportFacts()
	slices.Sort(gotFacts)
	slices.Sort(want)
	if !slices.Equal(gotFacts, want) {
		t.Fatal("replayed fact ids differ from the records'")
	}
}
