package segment

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"

	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/faultinject"
	"mddm/internal/storage"
)

// Options configures a Store.
type Options struct {
	// Sync fsyncs the WAL after every append. Off, durability of the
	// newest appends rides on the OS page cache (a machine crash may lose
	// the tail; a process crash cannot), which is the right trade for
	// bulk loads and benchmarks.
	Sync bool
	// FoldEvery folds the log into a new segment in the background once
	// this many unfolded appends accumulate (0 = fold only on Close or
	// explicit Fold calls).
	FoldEvery int
}

// Store persists the append history of one MO on top of a deterministic
// base. All methods are safe for concurrent use; Append serializes
// writers while readers keep querying the engine lock-free.
type Store struct {
	dir    string
	opts   Options
	baseFP uint64

	mu        sync.Mutex
	man       *manifest
	wal       *os.File
	seq       uint64 // next append ordinal
	tail      []FactAppend
	mo        *core.MO
	eng       *storage.Engine
	recovered bool
	poisoned  bool // an injected or real mid-write fault; disk needs re-open recovery
	closed    bool
	bytes     sizes // this store's share of the mddm_segment_bytes gauges
	// wrapArtifact, when set, wraps the temp file each artifact streams
	// into; tests use it to fail a fold's write at a chosen byte.
	wrapArtifact func(name string, w io.Writer) io.Writer

	foldC chan struct{}
	stopC chan struct{}
	wg    sync.WaitGroup
}

var errClosed = errors.New("segment: store closed")

// ErrRejected reports an append the store refused before logging it,
// because of the record itself: it fails validation, names a fact that
// already exists, or would not read back from the log. Nothing was
// written and the store is unchanged. Every other Append error is the
// store's own: a failed log write or fsync, a poisoned or closed store.
var ErrRejected = errors.New("segment: append rejected")

// Open opens (or initializes) the store in dir for the given base MO.
// The base must be exactly the data the store was created over — it is
// fingerprinted (schema dimension names + sorted base fact ids) and a
// mismatch is ErrBaseMismatch before anything is applied. Open repairs
// crash damage that is repairable (torn WAL tail → truncate, orphaned
// temp and unreferenced artifact files → delete, a log left unrotated by
// a fold → replaced) and rejects damage that is not (corrupt manifest or
// WAL header, missing committed segments).
// The returned store holds base and will mutate it during Recover and
// Append; the caller must not mutate it independently.
func Open(dir string, base *core.MO, opts Options) (*Store, error) {
	if base == nil {
		return nil, errors.New("segment: open: nil base MO")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:    dir,
		opts:   opts,
		baseFP: fingerprintMO(base),
		mo:     base,
		foldC:  make(chan struct{}, 1),
		stopC:  make(chan struct{}),
	}
	man, ok, err := loadManifest(dir)
	if err != nil {
		return nil, err
	}
	if !ok {
		// A WAL without a manifest means the manifest was lost, not that
		// the store is fresh — initializing would silently discard history.
		if _, err := os.Stat(filepath.Join(dir, walName)); err == nil {
			return nil, fmt.Errorf("%w: %s has a WAL but no manifest", ErrCorrupt, dir)
		}
		man = &manifest{
			Version:   formatVersion,
			BaseFP:    fmt.Sprintf("%016x", s.baseFP),
			BaseFacts: base.Facts().Len(),
		}
		if err := saveManifest(dir, man); err != nil {
			return nil, err
		}
	} else if man.BaseFP != fmt.Sprintf("%016x", s.baseFP) || man.BaseFacts != base.Facts().Len() {
		return nil, fmt.Errorf("%w: store holds history of base %s (%d facts), caller provided %016x (%d facts)",
			ErrBaseMismatch, man.BaseFP, man.BaseFacts, s.baseFP, base.Facts().Len())
	}
	s.man = man
	if err := cleanOrphans(dir, man); err != nil {
		return nil, err
	}
	if err := s.openWAL(); err != nil {
		return nil, err
	}
	if opts.FoldEvery > 0 {
		s.wg.Add(1)
		go s.folder()
	}
	return s, nil
}

// fingerprintMO hashes the identity of the base MO — schema dimension
// names in schema order, the fact count, and every base fact id in
// sorted order. Two runs that derive the same base data agree on it;
// a store opened over different data is rejected with ErrBaseMismatch
// before any record is applied. The order is the fact set's Dense,
// which BuildEngine then reads without sorting again.
func fingerprintMO(m *core.MO) uint64 {
	h := fnv.New64a()
	for _, name := range m.Schema().DimensionNames() {
		h.Write([]byte(name))
		h.Write([]byte{0})
	}
	dense, dict := m.Facts().Dense(), m.Facts().Dict()
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(dense)))
	h.Write(n[:])
	for _, i := range dense {
		h.Write([]byte(dict.At(i)))
		h.Write([]byte{0})
	}
	return h.Sum64()
}

// cleanOrphans deletes temp files and segment/snapshot files the
// manifest does not name — leftovers of a crash mid-fold. Their records
// are safe: the WAL only rotates after the manifest naming a segment is
// durable, so an unnamed segment's range is still in the log (whose
// file it may be, under a second name).
func cleanOrphans(dir string, man *manifest) error {
	live := map[string]bool{manifestName: true, walName: true}
	for _, se := range man.Segments {
		live[se.File] = true
	}
	if man.Snapshot != nil {
		live[man.Snapshot.File] = true
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		name := ent.Name()
		if ent.IsDir() || live[name] {
			continue
		}
		if strings.HasSuffix(name, ".tmp") || strings.HasSuffix(name, sealedExt) ||
			strings.HasSuffix(name, ".msnp") {
			if err := os.Remove(filepath.Join(dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}

// openWAL reads, validates, and repairs the log, leaving the handle
// positioned for appends and the unfolded tail records staged for
// Recover. On return the live log starts at FoldedSeq: a rotation-crash
// remnant, which may be a committed segment's file, is replaced by a
// fresh log instead of being truncated or appended to.
func (s *Store) openWAL() error {
	path := filepath.Join(s.dir, walName)
	s.seq = s.man.FoldedSeq
	if _, err := os.Stat(path); os.IsNotExist(err) {
		return s.freshWAL(nil)
	} else if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	scan, err := scanLog(f, s.baseFP, true)
	f.Close()
	if err != nil {
		return err
	}
	if scan.header.startSeq > s.man.FoldedSeq {
		return fmt.Errorf("%w: WAL starts at seq %d but only %d are folded — a log range is missing",
			ErrCorrupt, scan.header.startSeq, s.man.FoldedSeq)
	}
	for _, rec := range scan.recs {
		if rec.Seq >= s.man.FoldedSeq {
			s.tail = append(s.tail, rec)
		}
	}
	s.seq += uint64(len(s.tail))
	if scan.header.startSeq < s.man.FoldedSeq {
		return s.freshWAL(s.tail)
	}
	if scan.torn {
		if err := os.Truncate(path, scan.good); err != nil {
			return err
		}
		mRecoveryTruncations.Inc()
	}
	s.wal, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	return err
}

// freshWAL publishes a new log file starting at FoldedSeq and holding
// recs' frames — at first open, for a remnant, and as a fold's rotation
// — and makes it the append handle; the file it replaces is never
// written again.
func (s *Store) freshWAL(recs []FactAppend) error {
	b := encodeWALHeader(walHeader{baseFP: s.baseFP, startSeq: s.man.FoldedSeq})
	for _, rec := range recs {
		b = append(b, encodeFrame(encodeRecord(rec))...)
	}
	if err := atomicWrite(s.dir, walName, b); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, walName), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	old := s.wal
	s.wal = f
	if old != nil {
		return old.Close()
	}
	return nil
}

// Recover reconstructs the engine from disk. The fast path restores the
// engine snapshot — the base MO absorbs every persisted pair in one
// validated bulk load, the engine comes back with its fact order and
// direct bitmaps intact, O(facts) instead of O(history replay), and the
// image's columns install into it — then applies only the records the
// snapshot postdates, through AppendFact, which maintains every
// installed column. Snapshot-covered segments are still
// integrity-checked (header, fingerprint, every frame's length, CRC and
// seq, the frame count) without being decoded: they remain the source of
// truth, the snapshot is acceleration. Without a usable snapshot (none
// written yet, or rejected with a counter) recovery falls back to full
// replay: the engine is built over the base MO, every persisted record is
// applied through the AppendFact call a live append makes, and columns
// build lazily. Either way the engine's fact order is the live one: base
// facts sorted, then appended facts in log order. Idempotent: a second
// call returns the same engine.
func (s *Store) Recover(ctx context.Context, ectx dimension.Context) (*storage.Engine, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, errClosed
	}
	if s.recovered {
		return s.eng, nil
	}
	var (
		eng     *storage.Engine
		snapSeq uint64
	)
	if img := s.loadSnapshot(ectx); img != nil {
		e, err := restoreImage(s.mo, img, ectx)
		if err != nil {
			return nil, err
		}
		installColumns(e, img)
		eng, snapSeq = e, img.seq
		mSnapshotRestores.Inc()
	} else {
		e, err := storage.BuildEngine(ctx, s.mo, ectx)
		if err != nil {
			return nil, err
		}
		eng = e
	}
	// Every segment streams through one read buffer: a covered one is only
	// walked, and a replayed one's records copy what they keep.
	br := bufio.NewReaderSize(nil, streamBuf)
	for _, se := range s.man.Segments {
		recs, err := s.readSegment(br, se, se.To > snapSeq)
		if err != nil {
			return nil, err
		}
		for _, rec := range recs {
			if err := replayRecord(eng, rec, snapSeq); err != nil {
				return nil, fmt.Errorf("replaying segment %s: %w", se.File, err)
			}
		}
	}
	for _, rec := range s.tail {
		if err := replayRecord(eng, rec, snapSeq); err != nil {
			return nil, fmt.Errorf("replaying log: %w", err)
		}
	}
	s.eng = eng
	s.recovered = true
	s.tail = nil
	mSegmentsOpen.Add(int64(len(s.man.Segments)))
	s.updateBytes()
	return eng, nil
}

// readSegment checks the sealed segment se through br, returning its
// records when decode is set (see readSealedFrom).
func (s *Store) readSegment(br *bufio.Reader, se segEntry, decode bool) ([]FactAppend, error) {
	f, err := os.Open(filepath.Join(s.dir, se.File))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br.Reset(f)
	return readSealedFrom(br, s.baseFP, se, decode)
}

// replayRecord applies one persisted record during recovery through the
// call a live append makes, skipping records the snapshot already covers
// (their pairs and index entries arrived with the restore).
func replayRecord(eng *storage.Engine, rec FactAppend, snapSeq uint64) error {
	if rec.Seq < snapSeq {
		return nil
	}
	if err := eng.AppendFact(rec.FactID, rec.Pairs...); err != nil {
		return fmt.Errorf("%w: record %d: %v", ErrCorrupt, rec.Seq, err)
	}
	return nil
}

// loadSnapshot streams and fully validates the manifest's engine
// snapshot from its file (readSnapshot). Every failure here is soft and
// rejects the whole image — counted, and recovery falls back to
// replaying the history the snapshot merely accelerates. A nil return
// with no counter just means no snapshot has been written yet.
func (s *Store) loadSnapshot(ectx dimension.Context) *snapImage {
	sn := s.man.Snapshot
	if sn == nil {
		return nil
	}
	img, err := s.readSnapshotFile(sn.File, ectx)
	if err != nil {
		mSnapshotRejects.Inc()
		return nil
	}
	if img.seq != sn.Seq || len(img.ids) != sn.Facts || img.seq > s.man.FoldedSeq {
		// The file disagrees with the commit record that named it, or
		// claims records no segment holds.
		mSnapshotRejects.Inc()
		return nil
	}
	return img
}

// readSnapshotFile decodes the snapshot file name of the store's
// directory.
func (s *Store) readSnapshotFile(name string, ectx dimension.Context) (*snapImage, error) {
	f, err := os.Open(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	return readSnapshot(f, fi.Size(), s.baseFP, s.mo, ectx)
}

// restoreImage installs a validated snapshot into m: the relations
// replace the base MO's wholesale (the base pairs are a subset of the
// snapshot's by the decoder's coverage check), the appended facts join
// the fact set, and the engine is restored over the persisted order and
// bitmaps. decodeSnapshot validated everything against the live MO
// already, so a failure here means the model mutated underneath us
// mid-recovery — and since the MO is no longer the pristine base the
// replay fallback requires, it is a hard ErrCorrupt, not a soft reject.
func restoreImage(m *core.MO, img *snapImage, ectx dimension.Context) (*storage.Engine, error) {
	if img.dict != m.Facts().Dict() {
		return nil, fmt.Errorf("%w: snapshot decoded against another model", ErrCorrupt)
	}
	for _, id := range img.ids { // a base fact is a member already
		if err := m.Facts().AddDense(id); err != nil {
			return nil, fmt.Errorf("%w: snapshot fact: %v", ErrCorrupt, err)
		}
	}
	for name, rel := range img.rels {
		if err := m.SetRelation(name, rel); err != nil {
			return nil, fmt.Errorf("%w: snapshot relation %q: %v", ErrCorrupt, name, err)
		}
	}
	eng, err := storage.RestoreEngine(m, ectx, img.ids, img.direct)
	if err != nil {
		return nil, fmt.Errorf("%w: snapshot restore: %v", ErrCorrupt, err)
	}
	return eng, nil
}

// installColumns installs the image's columns into the engine the same
// image just restored, before any record the image postdates replays:
// each later fact then reaches every column through AppendFact's own
// maintenance. A columns section built under another evaluation context
// is skipped whole; a single column the engine refuses (codes that do
// not cover exactly the image's facts, a dictionary that drifted from
// the live category) is skipped alone. Each skip counts one checkpoint
// reject, and what was skipped builds from the closure bitmaps when
// first needed.
func installColumns(eng *storage.Engine, img *snapImage) {
	if img.ctxFP != fingerprintCtx(eng.Context()) {
		mCheckpointRejects.Inc()
		return
	}
	for _, c := range img.cols {
		if err := eng.InstallColumn(c.Dim, c.Cat, c.Vals, c.Codes, c.Over); err != nil {
			mCheckpointRejects.Inc()
		}
	}
}

// Append durably logs one new fact and then applies it: validate it,
// complete it with ⊤ for every dimension it omits, and check that its
// frame reads back (so a logged record can always replay), then frame it
// into the WAL, fsync when Options.Sync, and mutate the MO and the
// engine. A crash after the
// write and before the apply is exactly what recovery replays. The
// record's Seq is assigned by the store; the caller's value is ignored.
func (s *Store) Append(rec FactAppend) error {
	_, err := s.AppendSeq(rec)
	return err
}

// AppendSeq is Append returning the sequence number the record was
// logged under — the durable acknowledgment an API can hand back to a
// client.
func (s *Store) AppendSeq(rec FactAppend) (uint64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, errClosed
	}
	if s.poisoned {
		return 0, errors.New("segment: store poisoned by a write fault; re-open to recover")
	}
	if !s.recovered {
		return 0, errors.New("segment: store not recovered; call Recover before Append")
	}
	if err := s.validate(rec); err != nil {
		return 0, err
	}
	rec.Seq = s.seq
	rec.Pairs = s.complete(rec)
	payload := encodeRecord(rec)
	if err := replayable(payload); err != nil {
		return 0, fmt.Errorf("%w: fact %q: %v", ErrRejected, rec.FactID, err)
	}
	frame := encodeFrame(payload)
	if err := faultinject.Check(faultinject.WALTear); err != nil {
		// Simulate a crash mid-append: half a frame reaches the disk and
		// this process stops. In-memory state is untouched — the record
		// was never acknowledged.
		_, _ = s.wal.Write(frame[:len(frame)/2])
		_ = s.wal.Sync()
		s.poisoned = true
		return 0, fmt.Errorf("segment: wal append: %w", err)
	}
	if _, err := s.wal.Write(frame); err != nil {
		s.poisoned = true
		return 0, fmt.Errorf("segment: wal append: %w", err)
	}
	if s.opts.Sync {
		if err := s.wal.Sync(); err != nil {
			s.poisoned = true
			return 0, fmt.Errorf("segment: wal fsync: %w", err)
		}
		mWALFsyncs.Inc()
	}
	mWALAppends.Inc()
	sz := s.bytes
	sz.wal += int64(len(frame))
	s.reportBytes(sz)
	// The record is durable; the apply cannot fail validation again, so
	// in-memory state and the log stay in lockstep.
	if err := s.eng.AppendFact(rec.FactID, rec.Pairs...); err != nil {
		return 0, fmt.Errorf("segment: apply after log: %w", err)
	}
	s.seq++
	if s.opts.FoldEvery > 0 && s.seq-s.man.FoldedSeq >= uint64(s.opts.FoldEvery) {
		select {
		case s.foldC <- struct{}{}:
		default:
		}
	}
	return rec.Seq, nil
}

// validate rejects, with ErrRejected, a record the replay path could
// not apply — the check runs before the WAL write so the log never holds
// an unreplayable record.
func (s *Store) validate(rec FactAppend) error {
	if rec.FactID == "" {
		return fmt.Errorf("%w: empty fact id", ErrRejected)
	}
	if err := s.mo.CheckInsert(rec.FactID, rec.Pairs...); err != nil {
		return fmt.Errorf("%w: %v", ErrRejected, err)
	}
	if len(rec.Pairs) == 0 {
		return fmt.Errorf("%w: fact %q has no characterizations", ErrRejected, rec.FactID)
	}
	return nil
}

// complete returns rec's pairs plus (f, ⊤) for every schema dimension
// the record does not name: the model has no missing values, and an
// unknown characterization is ⊤ (§3.1). The log then carries the whole
// record, so replay needs no schema knowledge to restore it.
func (s *Store) complete(rec FactAppend) []Pair {
	pairs := slices.Clip(rec.Pairs) // never append into the caller's array
	for _, dim := range s.mo.Schema().DimensionNames() {
		if !slices.ContainsFunc(rec.Pairs, func(p Pair) bool { return p.Dim == dim }) {
			pairs = append(pairs, Pair{Dim: dim, Value: dimension.TopValue, Annot: dimension.Always()})
		}
	}
	return pairs
}

// replayable reports why a record payload could not be read back by the
// log scan: longer than a frame may be, or past a decoder cap. The
// decoder is the one statement of those limits; a record it would read
// as a torn tail must never be acknowledged.
func replayable(payload []byte) error {
	if len(payload) > maxRecord {
		return fmt.Errorf("record of %d bytes exceeds the %d-byte limit", len(payload), maxRecord)
	}
	if _, err := decodeRecord(payload); err != nil {
		return fmt.Errorf("record would not replay: %w", err)
	}
	return nil
}

// Fold seals the unfolded log tail into a new immutable segment,
// refreshes the engine snapshot when the tail has grown enough, commits
// both through the manifest, and rotates the WAL. The segment is the
// live log's file, hard-linked to the segment's name: no byte is copied.
// Crash-safe at every step: until the manifest rename lands the old
// commit is intact (the link is an orphan the next open deletes), and
// after it lands a lost rotation leaves a log starting before the
// folded sequence, which the next open replaces.
func (s *Store) Fold() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errClosed
	}
	return s.foldLocked()
}

func (s *Store) foldLocked() error {
	if s.poisoned {
		return errors.New("segment: store poisoned by a write fault; re-open to recover")
	}
	if !s.recovered {
		return errors.New("segment: store not recovered; call Recover before Fold")
	}
	from, to := s.man.FoldedSeq, s.seq
	if from == to {
		return nil
	}
	// Seal what is durable, not what is resident: the log must pass
	// recovery's check of a segment before a segment name points at it.
	if _, err := s.readSegment(bufio.NewReaderSize(nil, streamBuf), segEntry{File: walName, From: from, To: to}, false); err != nil {
		return err
	}
	if err := s.wal.Sync(); err != nil {
		s.poisoned = true
		return fmt.Errorf("segment: wal fsync: %w", err)
	}
	segName := fmt.Sprintf("seg-%012d-%012d%s", from, to, sealedExt)
	man2 := *s.man
	man2.Segments = append(append([]segEntry(nil), s.man.Segments...), segEntry{File: segName, From: from, To: to})
	man2.FoldedSeq = to
	// Skipping the snapshot refresh while the tail since the last one
	// stays under a tenth of the engine keeps steady-state folds O(tail)
	// instead of O(facts); the final flush always refreshes so a graceful
	// shutdown leaves the fastest possible next open.
	refresh := s.closed || s.man.Snapshot == nil ||
		(to-s.man.Snapshot.Seq)*10 >= uint64(s.eng.NumFacts())
	var oldSnap *snapEntry
	if refresh {
		snapName := fmt.Sprintf("snap-%012d.msnp", to)
		if err := s.writeArtifact(snapName, func(w io.Writer) error { return writeSnapshot(w, s.baseFP, to, s.mo, s.eng) }); err != nil {
			return err
		}
		man2.Snapshot = &snapEntry{File: snapName, Facts: s.eng.NumFacts(), Seq: to}
		oldSnap = s.man.Snapshot
	}
	// A fold that failed before its commit may have left the name.
	segPath := filepath.Join(s.dir, segName)
	if err := os.Remove(segPath); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("segment: sealing %s: %w", segName, err)
	}
	if err := os.Link(filepath.Join(s.dir, walName), segPath); err != nil {
		return fmt.Errorf("segment: sealing %s: %w", segName, err)
	}
	if err := syncDir(s.dir); err != nil {
		return err
	}
	if err := saveManifest(s.dir, &man2); err != nil {
		return err
	}
	s.man = &man2
	if oldSnap != nil && oldSnap.File != man2.Snapshot.File {
		_ = os.Remove(filepath.Join(s.dir, oldSnap.File))
	}
	// The log's file is now the committed segment's: until a re-open
	// replaces it, nothing may append to it.
	if err := s.freshWAL(nil); err != nil {
		s.poisoned = true
		return err
	}
	mFolds.Inc()
	mSegmentsOpen.Add(1)
	s.updateBytes()
	return nil
}

// writeArtifact atomically publishes the immutable artifact write
// streams out. A failed write leaves the old commit intact and at worst
// an orphaned temp file. The SegmentWrite faultinject point instead
// leaves the partial temp file a crash mid-fold would: the artifact
// streamed whole, then cut to half its length.
func (s *Store) writeArtifact(name string, write func(io.Writer) error) error {
	if s.wrapArtifact != nil {
		inner := write
		write = func(w io.Writer) error { return inner(s.wrapArtifact(name, w)) }
	}
	if err := faultinject.Check(faultinject.SegmentWrite); err != nil {
		if f, ferr := os.Create(filepath.Join(s.dir, name+".tmp")); ferr == nil {
			if write(f) == nil {
				if n, serr := f.Seek(0, io.SeekCurrent); serr == nil {
					_ = f.Truncate(n / 2)
				}
			}
			f.Close()
		}
		s.poisoned = true
		return fmt.Errorf("segment: writing %s: %w", name, err)
	}
	if err := atomicWriteFunc(s.dir, name, write); err != nil {
		return fmt.Errorf("segment: writing %s: %w", name, err)
	}
	return nil
}

// folder is the background compaction loop; Append signals it when the
// unfolded tail reaches Options.FoldEvery.
func (s *Store) folder() {
	defer s.wg.Done()
	for {
		select {
		case <-s.stopC:
			return
		case <-s.foldC:
			// A fold error is not actionable here; a poisoned store
			// refuses further work and Close reports the final flush.
			_ = s.Fold()
		}
	}
}

// Close stops the background folder, folds the remaining tail (the
// graceful-shutdown flush), fsyncs, and closes the log. The recovered
// engine stays valid — it owns only heap state.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	close(s.stopC)
	s.wg.Wait()
	s.mu.Lock()
	defer s.mu.Unlock()
	var err error
	if s.recovered && !s.poisoned {
		err = s.foldLocked()
	}
	if s.wal != nil {
		if serr := s.wal.Sync(); err == nil && serr != nil {
			err = serr
		}
		if cerr := s.wal.Close(); err == nil && cerr != nil {
			err = cerr
		}
		s.wal = nil
	}
	if s.recovered {
		mSegmentsOpen.Add(-int64(len(s.man.Segments)))
	}
	s.reportBytes(sizes{})
	return err
}

// Seq returns the next append ordinal (equivalently: how many records
// the store has ever acknowledged).
func (s *Store) Seq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seq
}

// Engine returns the recovered engine (nil before Recover).
func (s *Store) Engine() *storage.Engine {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.eng
}

// MO returns the recovered model — the base plus every replayed and
// appended record. It is owned by the store: mutate it only through
// Append, or replay determinism is gone.
func (s *Store) MO() *core.MO {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.mo
}

// sizes is one store's artifact bytes by kind.
type sizes struct{ segments, wal, snapshot int64 }

// updateBytes reports the live artifact set's sizes.
func (s *Store) updateBytes() {
	var sz sizes
	size := func(name string) int64 {
		if st, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			return st.Size()
		}
		return 0
	}
	for _, se := range s.man.Segments {
		sz.segments += size(se.File)
	}
	if s.man.Snapshot != nil {
		sz.snapshot = size(s.man.Snapshot.File)
	}
	sz.wal = size(walName)
	s.reportBytes(sz)
}

// reportBytes moves the process-wide gauges by this store's change since
// its last report, so with several stores open each gauge is their sum.
func (s *Store) reportBytes(sz sizes) {
	mBytesSegments.Add(sz.segments - s.bytes.segments)
	mBytesWAL.Add(sz.wal - s.bytes.wal)
	mBytesSnapshot.Add(sz.snapshot - s.bytes.snapshot)
	s.bytes = sz
}
