package segment

import (
	"context"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/storage"
)

// snapHeader starts a snapshot body for base m at seq, up to but not
// including the facts section.
func snapHeader(m *core.MO, seq uint64) *enc {
	e := &enc{}
	e.b = append(e.b, snapMagic...)
	e.u32(formatVersion)
	e.u64(fingerprintMO(m))
	e.u64(seq)
	return e
}

// snapFacts writes the fact section: every base fact plus extras.
func snapFacts(e *enc, m *core.MO, extra ...string) []string {
	ids := append(m.Facts().IDs(), extra...)
	e.u32(uint32(len(ids)))
	for _, f := range ids {
		e.str(f)
	}
	return ids
}

// snapDims writes an empty dimension section per schema dimension.
func snapDims(e *enc, m *core.MO) {
	names := m.Schema().DimensionNames()
	e.u32(uint32(len(names)))
	for _, n := range names {
		e.str(n)
		e.u32(0) // dict
		e.u32(0) // groups
	}
}

// snapCols writes the columns section's header for ncols columns under
// the test context, then hands the column region to mutate.
func snapCols(e *enc, ncols uint32, mutate func(e *enc)) {
	e.u64(fingerprintCtx(testCtx()))
	e.u32(ncols)
	if mutate != nil {
		mutate(e)
	}
}

// snapValid is the minimal decodable snapshot: all base facts, no
// appended records, every dimension empty, no columns.
func snapValid(m *core.MO) []byte {
	return snapWithCols(m, 0, nil)
}

// snapWithCols is snapValid with ncols columns written by mutate.
func snapWithCols(m *core.MO, ncols uint32, mutate func(e *enc)) []byte {
	e := snapHeader(m, 0)
	snapFacts(e, m)
	snapDims(e, m)
	snapCols(e, ncols, mutate)
	return e.b
}

func TestDecodeSnapshotValidation(t *testing.T) {
	m := base(t)
	fp := fingerprintMO(m)
	if _, err := decodeSnapshot(stamp(snapValid(m)), fp, m, testCtx()); err != nil {
		t.Fatalf("minimal valid snapshot rejected: %v", err)
	}

	// One dimension populated: the first schema dimension gets one value
	// and one single-pair group for fact index 0.
	names := m.Schema().DimensionNames()
	someVal := func(name string) string {
		vs := m.Dimension(name).Values()
		if len(vs) == 0 {
			t.Fatalf("dimension %q has no values", name)
		}
		return vs[0]
	}
	withGroup := func(mutate func(e *enc, name string)) []byte {
		e := snapHeader(m, 0)
		snapFacts(e, m)
		e.u32(uint32(len(names)))
		for i, n := range names {
			e.str(n)
			if i == 0 {
				mutate(e, n)
				continue
			}
			e.u32(0)
			e.u32(0)
		}
		snapCols(e, 0, nil)
		return e.b
	}
	goodGroup := func(e *enc, name string) {
		e.u32(1)
		e.str(someVal(name))
		e.u32(1) // one group
		e.u32(0) // fact 0
		e.u32(1) // one pair
		e.u32(0) // value 0
		e.byte(annotAlways)
	}
	img, err := decodeSnapshot(stamp(withGroup(goodGroup)), fp, m, testCtx())
	if err != nil {
		t.Fatalf("populated snapshot rejected: %v", err)
	}
	if got := img.rels[names[0]].ValuesOf(m.Facts().Dict().At(img.ids[0])); len(got) != 1 || got[0] != someVal(names[0]) {
		t.Fatalf("decoded relation pairs: %v", got)
	}
	if bm := img.direct[names[0]][someVal(names[0])]; bm == nil || !bm.Has(0) {
		t.Fatal("decoded direct bitmap missing the admitted pair")
	}

	cases := []struct {
		name string
		img  []byte
		want error
	}{
		{"truncated", []byte("MSNP"), ErrCorrupt},
		{"bad-magic", stamp(append([]byte("XSNP"), snapValid(m)[4:]...)), ErrCorrupt},
		{"bad-version", stamp(func() []byte {
			b := snapValid(m)
			binary.LittleEndian.PutUint32(b[4:], 9)
			return b
		}()), ErrCorrupt},
		{"fp-mismatch", stamp(func() []byte {
			b := snapValid(m)
			binary.LittleEndian.PutUint64(b[8:], fp+1)
			return b
		}()), ErrBaseMismatch},
		{"fact-count-vs-seq", stamp(func() []byte {
			// seq 1 demands one appended fact; only the base is present.
			e := snapHeader(m, 1)
			snapFacts(e, m)
			snapDims(e, m)
			return e.b
		}()), ErrCorrupt},
		{"implausible-facts", stamp(func() []byte {
			e := snapHeader(m, 0)
			e.u32(1<<30 + 1) // fact count over the hard cap
			return e.b
		}()), ErrCorrupt},
		{"fact-count-lies", stamp(func() []byte {
			e := snapHeader(m, 0)
			e.u32(1 << 29) // facts claimed with no bytes behind them
			return e.b
		}()), ErrCorrupt},
		{"empty-fact-id", stamp(func() []byte {
			e := snapHeader(m, 1)
			ids := m.Facts().IDs()
			e.u32(uint32(len(ids) + 1))
			e.str("")
			for _, f := range ids {
				e.str(f)
			}
			snapDims(e, m)
			return e.b
		}()), ErrCorrupt},
		{"dup-fact", stamp(func() []byte {
			e := snapHeader(m, 1)
			ids := m.Facts().IDs()
			e.u32(uint32(len(ids) + 1))
			for _, f := range ids {
				e.str(f)
			}
			e.str(ids[0])
			snapDims(e, m)
			return e.b
		}()), ErrCorrupt},
		{"base-fact-missing", stamp(func() []byte {
			// Right total, but a base fact was swapped for a second new id:
			// appended coverage no longer matches seq.
			e := snapHeader(m, 1)
			ids := m.Facts().IDs()
			e.u32(uint32(len(ids) + 1))
			e.str("zz-new-a")
			e.str("zz-new-b")
			for _, f := range ids[1:] {
				e.str(f)
			}
			snapDims(e, m)
			return e.b
		}()), ErrCorrupt},
		{"dim-count-mismatch", stamp(func() []byte {
			e := snapHeader(m, 0)
			snapFacts(e, m)
			e.u32(uint32(len(names) + 1))
			return e.b
		}()), ErrCorrupt},
		{"dim-name-mismatch", stamp(func() []byte {
			e := snapHeader(m, 0)
			snapFacts(e, m)
			e.u32(uint32(len(names)))
			e.str("NoSuchDimension")
			e.u32(0)
			e.u32(0)
			return e.b
		}()), ErrCorrupt},
		{"unknown-value", stamp(withGroup(func(e *enc, name string) {
			e.u32(1)
			e.str("no-such-value")
			e.u32(0)
		})), ErrCorrupt},
		{"value-count-lies", stamp(withGroup(func(e *enc, name string) {
			e.u32(1 << 23) // values claimed with no bytes behind them
		})), ErrCorrupt},
		{"repeated-dict-value", stamp(withGroup(func(e *enc, name string) {
			e.u32(2)
			e.str(someVal(name))
			e.str(someVal(name))
			e.u32(0)
		})), ErrCorrupt},
		{"dict-over-dimension", stamp(withGroup(func(e *enc, name string) {
			n := m.Dimension(name).NumValues() + 1
			e.u32(uint32(n))
			for i := 0; i < n; i++ {
				e.str(someVal(name))
			}
			e.u32(0)
		})), ErrCorrupt},
		{"groups-over-facts", stamp(withGroup(func(e *enc, name string) {
			e.u32(1)
			e.str(someVal(name))
			e.u32(uint32(m.Facts().Len() + 1))
		})), ErrCorrupt},
		{"group-fact-out-of-range", stamp(withGroup(func(e *enc, name string) {
			e.u32(1)
			e.str(someVal(name))
			e.u32(1)
			e.u32(uint32(m.Facts().Len())) // one past the end
			e.u32(1)
			e.u32(0)
			e.byte(annotAlways)
		})), ErrCorrupt},
		{"dup-group-fact", stamp(withGroup(func(e *enc, name string) {
			e.u32(1)
			e.str(someVal(name))
			e.u32(2)
			for i := 0; i < 2; i++ {
				e.u32(0) // fact 0 twice
				e.u32(1)
				e.u32(0)
				e.byte(annotAlways)
			}
		})), ErrCorrupt},
		{"zero-pair-group", stamp(withGroup(func(e *enc, name string) {
			e.u32(1)
			e.str(someVal(name))
			e.u32(1)
			e.u32(0)
			e.u32(0) // no pairs
		})), ErrCorrupt},
		{"pair-value-out-of-range", stamp(withGroup(func(e *enc, name string) {
			e.u32(1)
			e.str(someVal(name))
			e.u32(1)
			e.u32(0)
			e.u32(1)
			e.u32(7) // value index 7, dict has 1
			e.byte(annotAlways)
		})), ErrCorrupt},
		{"dup-value-in-group", stamp(withGroup(func(e *enc, name string) {
			e.u32(1)
			e.str(someVal(name))
			e.u32(1)
			e.u32(0)
			e.u32(2)
			for i := 0; i < 2; i++ {
				e.u32(0) // value 0 twice
				e.byte(annotAlways)
			}
		})), ErrCorrupt},
		{"columns-missing", stamp(func() []byte {
			e := snapHeader(m, 0)
			snapFacts(e, m)
			snapDims(e, m)
			return e.b
		}()), ErrCorrupt},
		{"trailing-bytes", stamp(append(snapValid(m), 0xbe)), ErrCorrupt},
		{"flipped-bit", func() []byte {
			b := stamp(snapValid(m))
			b[25] ^= 1
			return b
		}(), ErrCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeSnapshot(c.img, fp, m, testCtx()); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// TestDecodeCheckpointValidation reads the column checkpoint, the
// snapshot's columns section. The decoder checks only that the section
// is well formed: whether a column fits the engine is InstallColumn's
// call, and whether the context matches is the installer's, so the
// fingerprint is recorded as written. Any damage to an image that
// carries columns rejects the image whole, columns included.
func TestDecodeCheckpointValidation(t *testing.T) {
	m := base(t)
	fp := fingerprintMO(m)
	img, err := decodeSnapshot(stamp(snapWithCols(m, 0, nil)), fp, m, testCtx())
	if err != nil || len(img.cols) != 0 {
		t.Fatalf("empty checkpoint: %v", err)
	}
	oneCol := func(e *enc) {
		e.str("D")
		e.str("C")
		e.u32(2) // dict
		e.str("a")
		e.str("b")
		e.u32(2) // overflow
		e.u32(0)
		e.u32(0)
		e.u32(0)
		e.u32(1)
		e.u32(3) // codes
		e.u32(storage.ColSentinelMulti)
		e.u32(1)
		e.u32(storage.ColSentinelNone)
	}
	withCol := snapWithCols(m, 1, oneCol)
	img, err = decodeSnapshot(stamp(withCol), fp, m, testCtx())
	if err != nil || len(img.cols) != 1 {
		t.Fatalf("one-column checkpoint: %v", err)
	}
	if c := img.cols[0]; c.Dim != "D" || c.Cat != "C" || len(c.Vals) != 2 || len(c.Over) != 2 ||
		len(c.Codes) != 3 || c.Codes[1] != 1 || c.Over[1] != (storage.OverflowEntry{Fact: 0, Vid: 1}) {
		t.Fatalf("decoded column mangled: %+v", c)
	}
	if img.ctxFP != fingerprintCtx(testCtx()) {
		t.Fatalf("context fingerprint %016x, wrote %016x", img.ctxFP, fingerprintCtx(testCtx()))
	}
	t.Run("ctx-mismatch", func(t *testing.T) {
		drifted := append([]byte(nil), withCol...)
		ctxAt := len(snapWithCols(m, 0, nil)) - 12
		binary.LittleEndian.PutUint64(drifted[ctxAt:], 9)
		if img, err := decodeSnapshot(stamp(drifted), fp, m, testCtx()); err != nil || img.ctxFP != 9 || len(img.cols) != 1 {
			t.Fatalf("a columns section from another context must decode, its fingerprint recorded: %v", err)
		}
	})

	damaged := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), withCol...)
		mutate(b)
		return stamp(b)
	}
	cases := []struct {
		name string
		img  []byte
		want error
	}{
		{"truncated", stamp(withCol[:len(withCol)-6]), ErrCorrupt}, // cut inside the codes
		{"bad-magic", damaged(func(b []byte) { copy(b, "XSNP") }), ErrCorrupt},
		{"bad-version", damaged(func(b []byte) {
			binary.LittleEndian.PutUint32(b[4:], formatVersion+1)
		}), ErrCorrupt},
		{"fp-mismatch", damaged(func(b []byte) {
			binary.LittleEndian.PutUint64(b[8:], fp+1)
		}), ErrBaseMismatch},
		{"implausible-facts", stamp(snapWithCols(m, 1, func(e *enc) {
			e.str("D")
			e.str("C")
			e.u32(0)         // dict
			e.u32(0)         // overflow
			e.u32(1<<30 + 1) // one code per fact, over the fact cap
		})), ErrCorrupt},
		{"column-count-over-cap", stamp(snapWithCols(m, 1<<16+1, nil)), ErrCorrupt},
		{"overflow-count-lies", stamp(snapWithCols(m, 1, func(e *enc) {
			e.str("D")
			e.str("C")
			e.u32(0)       // dict
			e.u32(1 << 27) // overflow count with no bytes behind it
		})), ErrCorrupt},
		{"code-count-lies", stamp(snapWithCols(m, 1, func(e *enc) {
			e.str("D")
			e.str("C")
			e.u32(0)       // dict
			e.u32(0)       // overflow
			e.u32(1 << 29) // codes count with no bytes behind it
		})), ErrCorrupt},
		{"trailing-bytes", stamp(append(append([]byte(nil), withCol...), 0)), ErrCorrupt},
		{"flipped-bit", func() []byte {
			b := stamp(withCol)
			b[len(b)-4-8] ^= 1 // inside the codes, under the checksum
			return b
		}(), ErrCorrupt},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := decodeSnapshot(c.img, fp, m, testCtx()); !errors.Is(err, c.want) {
				t.Fatalf("err = %v, want %v", err, c.want)
			}
		})
	}
}

// TestSnapshotRoundTrip encodes a live engine's state and decodes it
// against a fresh base: facts, appended ids, relations, and admitted
// bitmaps must all survive the trip.
func TestSnapshotRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, eng := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 9)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	img := encodeSnapshot(st.baseFP, st.Seq(), st.MO(), eng)

	fresh := base(t)
	dec, err := decodeSnapshot(img, st.baseFP, fresh, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if dec.seq != uint64(len(recs)) {
		t.Fatalf("seq %d, want %d", dec.seq, len(recs))
	}
	if len(dec.ids) != fresh.Facts().Len()+len(recs) {
		t.Fatalf("facts %d", len(dec.ids))
	}
	for _, name := range fresh.Schema().DimensionNames() {
		if !dec.rels[name].Equal(st.MO().Relation(name)) {
			t.Errorf("relation %q did not round-trip", name)
		}
	}
	// Spot-check a bitmap: the first record's diagnosis pair must be
	// admitted for its fact position.
	pos := -1
	for i, id := range dec.ids {
		if fresh.Facts().Dict().At(id) == recs[0].FactID {
			pos = i
		}
	}
	if pos < 0 {
		t.Fatal("appended fact missing from snapshot order")
	}
	bm := dec.direct[casestudy.DimDiagnosis][recs[0].Pairs[0].Value]
	if bm == nil || !bm.Has(pos) {
		t.Fatal("admitted diagnosis pair missing from direct bitmap")
	}
	// The image's ids are numbered in fresh's dictionary: another MO, even
	// one whose dictionary numbers the base alike, refuses it untouched.
	other := base(t)
	n := other.Facts().Len()
	if _, err := restoreImage(other, dec, testCtx()); !errors.Is(err, ErrCorrupt) || other.Facts().Len() != n {
		t.Fatalf("restore into another MO: %v, facts %d → %d", err, n, other.Facts().Len())
	}
}

// TestSnapshotRestoreFastPath pins that a reopen of a folded store goes
// through the snapshot (restore counter advances, no checkpoint or
// snapshot rejects) and answers queries identically to a from-scratch
// rebuild.
func TestSnapshotRestoreFastPath(t *testing.T) {
	dir := t.TempDir()
	st, eng := openRecovered(t, dir, Options{})
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, st.MO(), 20)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	restores, rejects, ckRejects := mSnapshotRestores.Value(), mSnapshotRejects.Value(), mCheckpointRejects.Value()
	_, eng2 := openRecovered(t, dir, Options{})
	if mSnapshotRestores.Value() != restores+1 {
		t.Error("recovery did not restore from the snapshot")
	}
	if mSnapshotRejects.Value() != rejects || mCheckpointRejects.Value() != ckRejects {
		t.Error("clean recovery counted a reject")
	}
	assertEngineEqual(t, eng2, rebuildReference(t, recs))
}

// TestSnapshotCorruptionSoft damages the snapshot in every way a disk
// can (corrupt bytes, truncation, an empty or missing file) and requires
// recovery to fall back to full replay with a counted reject — no column
// of the image installed, bit-identical answers, no error surfaced.
func TestSnapshotCorruptionSoft(t *testing.T) {
	damage := []struct {
		name string
		hit  func(t *testing.T, path string)
	}{
		{"byte-flip", func(t *testing.T, path string) { flipByte(t, path, 60) }},
		{"truncated", func(t *testing.T, path string) {
			if err := os.Truncate(path, 40); err != nil {
				t.Fatal(err)
			}
		}},
		{"empty", func(t *testing.T, path string) {
			if err := os.Truncate(path, 0); err != nil {
				t.Fatal(err)
			}
		}},
		{"missing", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			recs := writeFoldedStoreWithColumns(t, dir)
			man, _, err := loadManifest(dir)
			if err != nil {
				t.Fatal(err)
			}
			if man.Snapshot == nil {
				t.Fatal("close-time fold wrote no snapshot")
			}
			d.hit(t, filepath.Join(dir, man.Snapshot.File))

			rejects := mSnapshotRejects.Value()
			_, eng := openRecovered(t, dir, Options{})
			if mSnapshotRejects.Value() != rejects+1 {
				t.Error("damaged snapshot was not counted rejected")
			}
			if n := len(eng.ExportColumns()); n != 0 {
				t.Errorf("%d columns installed from a damaged image", n)
			}
			assertEngineEqual(t, eng, rebuildReference(t, recs))
		})
	}
}

// TestSnapshotManifestDisagreement rejects a snapshot whose commit-record
// entry disagrees with the decoded file — and falls back to replay.
func TestSnapshotManifestDisagreement(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 8)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	man.Snapshot.Seq++
	if err := saveManifest(dir, man); err != nil {
		t.Fatal(err)
	}

	rejects := mSnapshotRejects.Value()
	_, eng := openRecovered(t, dir, Options{})
	if mSnapshotRejects.Value() != rejects+1 {
		t.Error("disagreeing snapshot was not counted rejected")
	}
	assertEngineEqual(t, eng, rebuildReference(t, recs))
}

// TestSnapshotFactOrderPreserved is the permutation regression: appended
// ids that sort BEFORE every base id make the rebuild order differ from
// the fold-time engine order, which is exactly the case the snapshot's
// persisted order (and the columns positional over it) must survive.
func TestSnapshotFactOrderPreserved(t *testing.T) {
	dir := t.TempDir()
	st, eng := openRecovered(t, dir, Options{})
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	recs := testRecords(t, st.MO(), 10)
	for i := range recs {
		// "AAA..." sorts before every base fact id.
		recs[i].FactID = strings.Replace(recs[i].FactID, "newpat", "AAApat", 1)
		if err := st.Append(recs[i]); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, eng2 := openRecovered(t, dir, Options{})
	// The restored order must be the fold-time order: base facts first,
	// appended after — not the sorted order a rebuild would produce.
	facts := eng2.ExportFacts()
	if facts[0] == recs[0].FactID {
		t.Fatal("restored engine sorted appended facts first: fold-time order lost")
	}
	if got := facts[len(facts)-len(recs)]; got != recs[0].FactID {
		t.Fatalf("appended facts not in append order: %q", got)
	}
	// And the installed columns must agree with a from-scratch reference
	// on every kernel answer.
	if len(eng2.ExportColumns()) == 0 {
		t.Fatal("columns did not install on the snapshot path")
	}
	assertEngineEqual(t, eng2, rebuildReference(t, recs))
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestDeferredRelationMaterializes pins that a restored MO's relations,
// though lazily built, behave identically to eagerly built ones for
// every accessor — including the write paths appends use.
func TestDeferredRelationMaterializes(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 6)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, _ := openRecovered(t, dir, Options{})
	want := base(t)
	for _, rec := range recs {
		if err := applyPairs(want, rec); err != nil {
			t.Fatal(err)
		}
	}
	want.EnsureTotal() // the store records omitted dimensions as ⊤
	for _, name := range want.Schema().DimensionNames() {
		got, ref := st2.MO().Relation(name), want.Relation(name)
		if got.Len() != ref.Len() {
			t.Fatalf("relation %q: %d pairs, want %d", name, got.Len(), ref.Len())
		}
		if !got.Equal(ref) {
			t.Errorf("relation %q diverges from eager build", name)
		}
	}
	// The restored store keeps accepting appends through the same path.
	extra := testRecords(t, st2.MO(), 8)[7]
	if err := st2.Append(extra); err != nil {
		t.Fatal(err)
	}
	if !st2.MO().Relation(casestudy.DimDiagnosis).Has(extra.FactID, extra.Pairs[0].Value) {
		t.Fatal("append after restore missing from relation")
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRestoredRelationHeapBudget holds a restored relation, after its
// first access, to the budget TestGenerateHeapBudget sets for a generated
// one: ≤ 375 B and ≤ 2 heap objects per fact at 10 k patients. It fails
// if a materialized relation keeps its group bytes or the decode slab
// adoptGroups fills, or holds a pointer per pair.
func TestRestoredRelationHeapBudget(t *testing.T) {
	const bytesPerFact, objectsPerFact = 375, 2
	heap := func() runtime.MemStats {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms
	}
	cfg := casestudy.DefaultGen()
	cfg.Patients = 10000
	m := casestudy.MustGenerate(cfg)
	eng, err := storage.BuildEngine(context.Background(), m, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	fp := fingerprintMO(m)
	b := encodeSnapshot(fp, 0, m, eng)
	eng = nil

	before := heap()
	img, err := decodeSnapshot(b, fp, m, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	rels := img.rels
	img = nil
	pairs := 0
	for _, r := range rels {
		pairs += r.Len() // the first access runs the deferred fill
	}
	after := heap()
	runtime.KeepAlive(b)
	runtime.KeepAlive(m)
	runtime.KeepAlive(rels)

	perFact := float64(after.HeapAlloc-before.HeapAlloc) / float64(cfg.Patients)
	objsPerFact := float64(after.HeapObjects-before.HeapObjects) / float64(cfg.Patients)
	t.Logf("restored relations keep %.0f B in %.2f objects per fact live (%d pairs)", perFact, objsPerFact, pairs)
	if perFact > bytesPerFact {
		t.Errorf("restored relations keep %.0f B per fact live, budget %d", perFact, bytesPerFact)
	}
	if objsPerFact > objectsPerFact {
		t.Errorf("restored relations keep %.2f heap objects per fact live, budget %d", objsPerFact, objectsPerFact)
	}
}

// TestSnapshotWriteHeapBudget holds one snapshot image write of a 40 k
// fact generated engine with warmed columns to ≤ 2 MB and ≤ 200 heap
// objects allocated, whatever the image's size: the image streams
// through one buffer, the fact order and the columns are the engine's
// own, and an annotation's intervals are encoded in place. It fails if
// the write holds the image whole, copies a column or the fact order,
// or allocates per pair.
func TestSnapshotWriteHeapBudget(t *testing.T) {
	const maxBytes, maxObjects = 2 << 20, 200
	cfg := casestudy.DefaultGen()
	cfg.Patients = 40000
	m := casestudy.MustGenerate(cfg)
	eng, err := storage.BuildEngine(context.Background(), m, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmColumns(context.Background(), 2); err != nil {
		t.Fatal(err)
	}
	fp := fingerprintMO(m)
	var w countingWriter
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if err := writeSnapshot(&w, fp, 0, m, eng); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("a %.1f MB image allocates %.2f MB in %d objects", float64(w.n)/(1<<20), float64(bytes)/(1<<20), objects)
	if w.n < 4<<20 {
		t.Fatalf("test setup: image of %d B is too small to show a whole-image buffer", w.n)
	}
	if bytes > maxBytes {
		t.Errorf("writing the image allocates %d B, budget %d", bytes, maxBytes)
	}
	if objects > maxObjects {
		t.Errorf("writing the image allocates %d objects, budget %d", objects, maxObjects)
	}
}

// TestSnapshotLoadAllocBudget holds what one cold start allocates — Open,
// then Recover restoring a 40 k-fact image that carries warmed columns,
// then the WarmColumns a server runs, which finds them installed — to a
// multiple of the image's size. The image streams through one buffer and
// only each dimension's group bytes are copied out, into slices of their
// own; a restore that read the file whole, or copied the groups out of
// such a read, goes over.
func TestSnapshotLoadAllocBudget(t *testing.T) {
	const budget = 2.4 // bytes allocated per image byte
	bg := context.Background()
	cfg := casestudy.DefaultGen()
	cfg.Patients = 40000
	dir := t.TempDir()
	st, err := Open(dir, casestudy.MustGenerate(cfg), Options{})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := st.Recover(bg, testCtx())
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmColumns(bg, 2); err != nil {
		t.Fatal(err)
	}
	for _, rec := range testRecords(t, st.MO(), 10) {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
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

	m := casestudy.MustGenerate(cfg)
	restores, rejects := mSnapshotRestores.Value(), mSnapshotRejects.Value()+mCheckpointRejects.Value()
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err = Open(dir, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if eng, err = st.Recover(bg, testCtx()); err != nil {
		t.Fatal(err)
	}
	if err := eng.WarmColumns(bg, 2); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if mSnapshotRestores.Value() != restores+1 || mSnapshotRejects.Value()+mCheckpointRejects.Value() != rejects {
		t.Fatal("the cold start did not restore the image whole")
	}
	bytes, objects := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	ratio := float64(bytes) / float64(info.Size())
	t.Logf("a cold start from a %.1f MB image allocates %.1f MB in %d objects: %.2f× the image",
		float64(info.Size())/(1<<20), float64(bytes)/(1<<20), objects, ratio)
	if ratio > budget {
		t.Errorf("a cold start allocates %.2f× its image's size, budget %.2f×", ratio, budget)
	}
}

// countingWriter discards what it is given and counts it.
type countingWriter struct{ n int }

func (w *countingWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}

// TestShallowSegmentVerification pins that snapshot-covered segments are
// still integrity-checked at open: corruption under the snapshot is a
// hard error, not silently skipped.
func TestShallowSegmentVerification(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 10)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	man, _, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(man.Segments) == 0 || man.Snapshot == nil || man.Snapshot.Seq < man.Segments[0].To {
		t.Fatal("test setup: segment not covered by the snapshot")
	}
	flipByte(t, filepath.Join(dir, man.Segments[0].File), 60)

	st2, err := Open(dir, base(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if _, err := st2.Recover(context.Background(), testCtx()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("recovery over a corrupt covered segment: %v, want ErrCorrupt", err)
	}
}

// TestSnapshotOrphanSweep pins that unreferenced .msnp files are crash
// debris and removed at open.
func TestSnapshotOrphanSweep(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 3)
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(dir, "snap-999999999999.msnp")
	if err := os.WriteFile(orphan, []byte("debris"), 0o644); err != nil {
		t.Fatal(err)
	}
	st2, _ := openRecovered(t, dir, Options{})
	defer st2.Close()
	if _, err := os.Stat(orphan); !os.IsNotExist(err) {
		t.Fatalf("orphan snapshot survived open: %v", err)
	}
	man, _, err := loadManifest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, man.Snapshot.File)); err != nil {
		t.Fatalf("live snapshot swept: %v", err)
	}
}

// TestAnnotationsSurviveSnapshot pins that non-Always annotations
// (probability, bounded valid time) round-trip the snapshot path: the
// restored engine must answer a context-sensitive query identically to a
// rebuild, which only holds if every annotation decoded exactly.
func TestAnnotationsSurviveSnapshot(t *testing.T) {
	dir := t.TempDir()
	st, _ := openRecovered(t, dir, Options{})
	recs := testRecords(t, st.MO(), 15) // every third record: prob 0.9, bounded valid time
	for _, rec := range recs {
		if err := st.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, eng := openRecovered(t, dir, Options{})
	assertEngineEqual(t, eng, rebuildReference(t, recs))
	// Annotation-level check, beyond the aggregate differential: the
	// restored relation must hold the probabilistic bounded-time annotation
	// bit-for-bit.
	m2 := base(t)
	for _, rec := range recs {
		if err := applyPairs(m2, rec); err != nil {
			t.Fatal(err)
		}
	}
	m2.EnsureTotal() // the store records omitted dimensions as ⊤
	got, ok1 := st2.MO().Relation(casestudy.DimDiagnosis).Annot(recs[1].FactID, recs[1].Pairs[0].Value)
	ref, ok2 := m2.Relation(casestudy.DimDiagnosis).Annot(recs[1].FactID, recs[1].Pairs[0].Value)
	if !ok1 || !ok2 || got.Prob != ref.Prob || !got.Time.Valid.Equal(ref.Time.Valid) || !got.Time.Trans.Equal(ref.Time.Trans) {
		t.Fatalf("annotation did not survive: got %+v ok=%v, want %+v ok=%v", got, ok1, ref, ok2)
	}
}
