// Package segment is the persistence subsystem: a CRC-framed append log
// whose folds seal the log file itself into an immutable segment, plus
// one engine snapshot — the cold-start image — so a process
// can recover a storage.Engine from disk instead of rebuilding it from
// scratch.
//
// A Store persists the append history of one MO on top of a
// deterministic base (the paper's case study, a seeded generator, or a
// CSV load): the base is re-derived by the caller at open and
// fingerprint-checked, and everything appended through Store.Append is
// durably logged before it mutates in-memory state. A background folder
// seals the log into immutable segment files and writes the engine's
// state — its fact order, every pair, and its characterization columns —
// into a snapshot the next open restores without replaying history or
// recomputing any rollup closure. See docs/PERSISTENCE.md
// for the format layout, the WAL protocol, and the recovery invariants.
//
// Every decoder in this package treats its input as untrusted bytes: a
// corrupt or truncated artifact yields a typed error (ErrCorrupt,
// ErrBaseMismatch), never a panic and never a half-applied state.
package segment

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"mddm/internal/dimension"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// ErrCorrupt reports a persisted artifact that failed structural
// validation: a bad magic number, a failed checksum, a truncated or
// over-long field, or an impossible cross-reference. The artifact is
// unusable; whether that is fatal depends on its role (see Recover).
var ErrCorrupt = errors.New("segment: corrupt artifact")

// ErrBaseMismatch reports a store whose persisted base fingerprint does
// not match the base MO the caller provided: the append history on disk
// belongs to different data and applying it would corrupt the engine.
var ErrBaseMismatch = errors.New("segment: base MO mismatch")

// formatVersion versions every on-disk artifact; readers reject versions
// they do not understand rather than guessing. Version 2 sealed segments
// as log files; version 3 carries the engine's columns inside the
// snapshot. An older directory is refused at Open, not migrated.
const formatVersion = 3

// Decoder resource caps: arbitrary bytes must not be able to request an
// absurd allocation before validation catches them.
const (
	maxString    = 1 << 20 // longest id/value/dimension name
	maxPairs     = 1 << 16 // fact–dimension pairs per record
	maxIntervals = 1 << 16 // intervals per temporal element
	maxRecord    = 4 << 20 // WAL frame payload bytes
)

// castagnoli is the CRC-32C polynomial table every artifact checksum
// uses (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Pair is one annotated fact–dimension characterization of an appended
// fact: (dimension, value, annotation). It is the engine's own pair, so a
// record's pairs go to storage.Engine.AppendFact as they are.
type Pair = storage.Pair

// FactAppend is one durable append record: a new fact and its
// characterizations. Seq is the store-assigned append ordinal (the
// record's identity for folding and replay dedup); callers leave it
// zero.
type FactAppend struct {
	Seq    uint64
	FactID string
	Pairs  []Pair
}

// enc is an append-only little-endian encoder. Without a writer it
// accumulates every byte in b. With one (newStream) it streams: once b
// holds flushAt bytes they are added to a running CRC-32C, written out,
// and b is reused, so an artifact of any size passes through one buffer.
type enc struct {
	b       []byte
	w       io.Writer
	flushAt int
	crc     uint32 // CRC-32C of every byte written to w so far
	err     error  // the first write error; the bytes after it are dropped
}

// streamBuf is the buffer an artifact streams through.
const streamBuf = 64 << 10

// newStream returns an encoder that streams to w in writes of about
// streamBuf bytes each. The buffer's slack holds what one encoder call
// appends past the flush point, so it does not grow.
func newStream(w io.Writer) *enc {
	return &enc{b: make([]byte, 0, streamBuf+streamBuf/16), w: w, flushAt: streamBuf}
}

func (e *enc) u32(v uint32)   { e.b = binary.LittleEndian.AppendUint32(e.b, v); e.spill() }
func (e *enc) u64(v uint64)   { e.b = binary.LittleEndian.AppendUint64(e.b, v); e.spill() }
func (e *enc) i32(v int32)    { e.u32(uint32(v)) }
func (e *enc) byte(v byte)    { e.b = append(e.b, v); e.spill() }
func (e *enc) bytes(b []byte) { e.b = append(e.b, b...); e.spill() }
func (e *enc) str(s string)   { e.u32(uint32(len(s))); e.b = append(e.b, s...); e.spill() }
func (e *enc) spill() {
	if e.w != nil && len(e.b) >= e.flushAt {
		e.flush()
	}
}

// flush writes the buffered bytes out and returns the first write error.
func (e *enc) flush() error {
	if e.err == nil && len(e.b) > 0 {
		e.crc = crc32.Update(e.crc, castagnoli, e.b)
		_, e.err = e.w.Write(e.b)
	}
	e.b = e.b[:0]
	return e.err
}

// sum ends a checksummed artifact: the CRC-32C of every byte before it.
// A write error is sticky, so the last flush reports any earlier one.
func (e *enc) sum() error {
	e.flush()
	e.u32(e.crc)
	return e.flush()
}

// dict interns strings in first-seen order.
type dict struct {
	id    map[string]uint32
	order []string
}

func newDict() *dict { return &dict{id: map[string]uint32{}} }

// reset empties d, keeping its storage for the next dictionary.
func (d *dict) reset() {
	clear(d.id)
	d.order = d.order[:0]
}

func (d *dict) add(s string) {
	if _, ok := d.id[s]; !ok {
		d.id[s] = uint32(len(d.order))
		d.order = append(d.order, s)
	}
}

// dec is a bounds-checked little-endian decoder over untrusted bytes.
// Every read method reports failure through a typed error; none panics.
//
// Without a source it decodes b whole. With one (newStreamDec) b is a
// window of a stream of known size, refilled through one buffer as the
// reads reach its end: remaining counts against the stream's size, so
// every bound checked against it holds as it would over the whole image,
// and every byte consumed is added to a running CRC-32C (see sync).
type dec struct {
	b   []byte
	off int

	src    io.Reader
	pos    int64  // stream offset of b[0]
	size   int64  // stream length
	summed int    // b[:summed] is in crc
	crc    uint32 // CRC-32C of the stream before b[summed]
	// While marking, the bytes consumed are summed into markCRC too.
	marking bool
	markCRC uint32
}

// readBuf is the buffer a streaming decoder reads through. Tests shrink
// it so that values straddle its refills.
var readBuf = streamBuf

// newStreamDec returns a decoder over the size bytes src yields, read
// through a buffer of readBuf bytes.
func newStreamDec(src io.Reader, size int64) *dec {
	return &dec{b: make([]byte, 0, readBuf), src: src, size: size}
}

// at is the stream offset of the next byte to decode.
func (d *dec) at() int64 { return d.pos + int64(d.off) }

func (d *dec) remaining() int {
	if d.src == nil {
		return len(d.b) - d.off
	}
	return int(d.size - d.at())
}

func (d *dec) need(n int) error {
	if n >= 0 && n <= len(d.b)-d.off {
		return nil
	}
	if n < 0 || d.remaining() < n {
		return fmt.Errorf("%w: need %d bytes at offset %d, have %d", ErrCorrupt, n, d.at(), d.remaining())
	}
	return d.fill(n)
}

// fill slides the window past the bytes consumed and reads until it
// holds at least n, as much more as the buffer and the stream allow. A
// value longer than the buffer grows it.
func (d *dec) fill(n int) error {
	d.sync()
	rest := copy(d.b[:cap(d.b)], d.b[d.off:])
	d.pos += int64(d.off)
	d.off, d.summed = 0, 0
	if n > cap(d.b) {
		d.b = append(d.b[:rest], make([]byte, n-rest)...)
	}
	want := int(min(int64(cap(d.b)), d.size-d.pos))
	got, err := io.ReadAtLeast(d.src, d.b[rest:want], n-rest)
	d.b = d.b[:rest+got]
	if err != nil {
		return fmt.Errorf("%w: reading at offset %d: %v", ErrCorrupt, d.pos+int64(rest+got), err)
	}
	return nil
}

// sync adds the bytes consumed since the last sync to the running CRC
// and, while marking, to the mark's.
func (d *dec) sync() {
	seen := d.b[d.summed:d.off]
	d.crc = crc32.Update(d.crc, castagnoli, seen)
	if d.marking {
		d.markCRC = crc32.Update(d.markCRC, castagnoli, seen)
	}
	d.summed = d.off
}

// mark starts summing the bytes consumed from here on into a CRC of
// their own, and returns the stream offset it starts at.
func (d *dec) mark() int64 {
	d.sync()
	d.marking, d.markCRC = true, 0
	return d.at()
}

// unmark ends a mark and returns the CRC-32C of the bytes it covered.
func (d *dec) unmark() uint32 {
	d.sync()
	d.marking = false
	return d.markCRC
}

// drain consumes the rest of the stream, summing it.
func (d *dec) drain() error {
	d.off = len(d.b)
	for d.remaining() > 0 {
		if err := d.fill(1); err != nil {
			return err
		}
		d.off = len(d.b)
	}
	d.sync()
	return nil
}

func (d *dec) u32() (uint32, error) {
	if err := d.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v, nil
}

func (d *dec) u64() (uint64, error) {
	if err := d.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v, nil
}

// u32s decodes len(out) consecutive u32s into out, a window at a time.
func (d *dec) u32s(out []uint32) error {
	for j := 0; j < len(out); {
		if err := d.need(4); err != nil {
			return err
		}
		k := min(len(out)-j, (len(d.b)-d.off)/4)
		for i := range out[j : j+k] {
			out[j+i] = binary.LittleEndian.Uint32(d.b[d.off+4*i:])
		}
		d.off += 4 * k
		j += k
	}
	return nil
}

func (d *dec) i32() (int32, error) {
	v, err := d.u32()
	return int32(v), err
}

func (d *dec) readByte() (byte, error) {
	if err := d.need(1); err != nil {
		return 0, err
	}
	v := d.b[d.off]
	d.off++
	return v, nil
}

func (d *dec) str() (string, error) {
	n, err := d.u32()
	if err != nil {
		return "", err
	}
	if n > maxString {
		return "", fmt.Errorf("%w: string length %d exceeds cap at offset %d", ErrCorrupt, n, d.at())
	}
	if err := d.need(int(n)); err != nil {
		return "", err
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s, nil
}

// count reads a u32 element count capped at max — the cap bounds the
// allocation an adversarial length prefix can request.
func (d *dec) count(max uint32, what string) (int, error) {
	n, err := d.u32()
	if err != nil {
		return 0, err
	}
	if n > max {
		return 0, fmt.Errorf("%w: %s count %d exceeds cap %d", ErrCorrupt, what, n, max)
	}
	return int(n), nil
}

func (d *dec) dictStrings(what string) ([]string, error) {
	n, err := d.count(1<<24, what)
	if err != nil {
		return nil, err
	}
	// Each entry costs at least a length prefix; reject counts the
	// remaining bytes cannot possibly hold before allocating.
	if n*4 > d.remaining() {
		return nil, fmt.Errorf("%w: %s dictionary count %d exceeds remaining bytes", ErrCorrupt, what, n)
	}
	out := make([]string, n)
	for i := range out {
		if out[i], err = d.str(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// annotAlways is the flag byte for the ubiquitous Always() annotation
// (probability 1, bitemporally unconstrained) — one byte instead of a
// serialized pair of elements.
const (
	annotAlways byte = 1
	annotFull   byte = 0
)

// alwaysAnnot is the one shared decode result for annotAlways flags:
// annotations are immutable values, and minting fresh temporal elements
// for every pair of a bulk replay is pure allocator churn.
var alwaysAnnot = dimension.Always()

func (e *enc) annot(a dimension.Annot) {
	if a.Prob == 1 &&
		a.Time.Valid.Equal(temporal.AlwaysElement()) &&
		a.Time.Trans.Equal(temporal.AlwaysElement()) {
		e.byte(annotAlways)
		return
	}
	e.byte(annotFull)
	e.u64(math.Float64bits(a.Prob))
	e.element(a.Time.Valid)
	e.element(a.Time.Trans)
}

func (e *enc) element(el temporal.Element) {
	n := el.NumIntervals()
	e.u32(uint32(n))
	for i := 0; i < n; i++ {
		iv := el.IntervalAt(i)
		e.i32(int32(iv.Start))
		e.i32(int32(iv.End))
	}
}

func (d *dec) annot() (dimension.Annot, error) {
	a, _, err := d.annotIn(nil)
	return a, err
}

// annotIn decodes one annotation, building its elements in buf's storage
// (temporal.Canonicalize), and returns buf grown. The annotation aliases
// buf: a caller that keeps it passes a buf nothing else writes, as annot
// does, and one that only judges it may reuse buf for the next.
func (d *dec) annotIn(buf []temporal.Interval) (dimension.Annot, []temporal.Interval, error) {
	flag, err := d.readByte()
	if err != nil {
		return dimension.Annot{}, buf, err
	}
	switch flag {
	case annotAlways:
		return alwaysAnnot, buf, nil
	case annotFull:
		bits, err := d.u64()
		if err != nil {
			return dimension.Annot{}, buf, err
		}
		prob := math.Float64frombits(bits)
		if math.IsNaN(prob) || prob < 0 || prob > 1 {
			return dimension.Annot{}, buf, fmt.Errorf("%w: annotation probability %v out of [0,1]", ErrCorrupt, prob)
		}
		if buf, err = d.intervals(buf); err != nil {
			return dimension.Annot{}, buf, err
		}
		nValid := len(buf)
		if buf, err = d.intervals(buf); err != nil {
			return dimension.Annot{}, buf, err
		}
		// Canonicalizing sorts and coalesces in place, so no byte
		// sequence can smuggle a non-canonical element into the model.
		valid := temporal.Canonicalize(buf[:nValid:nValid])
		trans := temporal.Canonicalize(buf[nValid:])
		return dimension.Annot{Time: temporal.Bitemporal{Valid: valid, Trans: trans}, Prob: prob}, buf, nil
	default:
		return dimension.Annot{}, buf, fmt.Errorf("%w: unknown annotation flag %d", ErrCorrupt, flag)
	}
}

// intervals appends one element's intervals to buf.
func (d *dec) intervals(buf []temporal.Interval) ([]temporal.Interval, error) {
	n, err := d.count(maxIntervals, "interval")
	if err != nil {
		return buf, err
	}
	for i := 0; i < n; i++ {
		s, err := d.i32()
		if err != nil {
			return buf, err
		}
		e, err := d.i32()
		if err != nil {
			return buf, err
		}
		buf = append(buf, temporal.Interval{Start: temporal.Chronon(s), End: temporal.Chronon(e)})
	}
	return buf, nil
}

// encodeRecord serializes one append record as a WAL frame payload.
func encodeRecord(rec FactAppend) []byte {
	e := &enc{}
	e.record(rec)
	return e.b
}

func (e *enc) record(rec FactAppend) {
	e.u64(rec.Seq)
	e.str(rec.FactID)
	e.u32(uint32(len(rec.Pairs)))
	for _, p := range rec.Pairs {
		e.str(p.Dim)
		e.str(p.Value)
		e.annot(p.Annot)
	}
}

// decodeRecord parses a WAL frame payload. The payload must be consumed
// exactly — trailing bytes mean the frame length lied.
func decodeRecord(b []byte) (FactAppend, error) {
	d := &dec{b: b}
	rec, err := d.record()
	if err != nil {
		return FactAppend{}, err
	}
	if d.remaining() != 0 {
		return FactAppend{}, fmt.Errorf("%w: %d trailing bytes after record", ErrCorrupt, d.remaining())
	}
	return rec, nil
}

func (d *dec) record() (FactAppend, error) {
	var rec FactAppend
	var err error
	if rec.Seq, err = d.u64(); err != nil {
		return rec, err
	}
	if rec.FactID, err = d.str(); err != nil {
		return rec, err
	}
	if rec.FactID == "" {
		return rec, fmt.Errorf("%w: record with empty fact id", ErrCorrupt)
	}
	n, err := d.count(maxPairs, "pair")
	if err != nil {
		return rec, err
	}
	if n == 0 {
		return rec, fmt.Errorf("%w: record %q with no pairs", ErrCorrupt, rec.FactID)
	}
	rec.Pairs = make([]Pair, n)
	for i := range rec.Pairs {
		if rec.Pairs[i].Dim, err = d.str(); err != nil {
			return rec, err
		}
		if rec.Pairs[i].Value, err = d.str(); err != nil {
			return rec, err
		}
		if rec.Pairs[i].Annot, err = d.annot(); err != nil {
			return rec, err
		}
	}
	return rec, nil
}
