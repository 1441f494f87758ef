package segment

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"

	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/fact"
	"mddm/internal/faultinject"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// An engine snapshot is the O(facts) cold-start image: the store's
// entire materialized state — the dense fact order, every fact–dimension
// pair of every relation, and the engine's built characterization
// columns — written at fold time so the next open can reconstruct the MO
// relations, the engine's direct bitmaps and its columns without
// replaying history record by record, re-scanning the pair space or
// recomputing any rollup closure. It is derived acceleration, not a
// source of truth: a damaged image is rejected whole with a counter and
// recovery falls back to the replay path, whose input (segments + WAL)
// the snapshot never replaces.
//
// The pairs are context-independent facts of the model; the direct
// bitmaps are re-derived at decode time under the opening context's
// Admits filter, exactly as BuildEngine would. The columns are not: they
// were computed under the fold-time evaluation context, whose
// fingerprint heads the columns section, and a restore under another
// context skips the section while the rest of the image still restores.
// Column codes are positional over the image's own fact list, so they
// are only ever installed into the engine that list restored.
//
//	"MSNP" | version u32 | baseFP u64 | seq u64
//	facts:  u32 n, n × str                  (engine dense order)
//	dims:   u32 nd, per schema dimension (schema order):
//	        name str
//	        dict:   u32 nv, nv × str        (value ids, first-seen order)
//	        groups: u32 ng, ng × (factIdx u32 | u32 nvals |
//	                nvals × (valIdx u32 | annot))
//	cols:   ctxFP u64 | u32 nc, per column:
//	        dim str | cat str
//	        dict:     u32 n, n × str        (CategoryAt order)
//	        overflow: u32 n, n × (fact u32 | vid u32)
//	        codes:    u32 n, n × u32
//	crc32c u32 over everything above
//
// Groups cover only facts with at least one pair in the dimension, each
// fact at most once.

const snapMagic = "MSNP"

// snapImage is a decoded, fully validated snapshot, ready to install
// into the MO it was decoded against: apart from that MO's fact
// dictionary, nothing in it aliases the store's live state or the image
// bytes, so a caller that rejects it leaves the MO's facts and relations
// untouched.
type snapImage struct {
	seq    uint64
	dict   *fact.Dict                            // the decoding MO's fact dictionary
	ids    []uint32                              // engine dense order, in dict
	rels   map[string]*fact.Relation             // per dimension: every pair
	direct map[string]map[string]*storage.Bitmap // per dimension: admitted-pair bitmaps
	ctxFP  uint64                                // the evaluation context the columns were built under
	cols   []storage.ColumnData
}

// writeSnapshot streams the store's materialized state at seq to w: the
// engine's dense fact order, per schema dimension the relation's pairs in
// a dictionary-interned group form, and the engine's built columns. The
// image passes through one stream buffer and is never held whole; the
// columns are the engine's own slices and the fact order its own array.
func writeSnapshot(w io.Writer, baseFP, seq uint64, m *core.MO, eng *storage.Engine) error {
	e := newStream(w)
	e.snapshot(baseFP, seq, m, eng)
	return e.sum()
}

// snapshot encodes the image up to its checksum.
func (e *enc) snapshot(baseFP, seq uint64, m *core.MO, eng *storage.Engine) {
	facts, order := m.Facts().Dict(), eng.ExportOrder()
	e.b = append(e.b, snapMagic...)
	e.u32(formatVersion)
	e.u64(baseFP)
	e.u64(seq)
	e.u32(uint32(len(order)))
	for _, id := range order {
		e.str(facts.At(id))
	}
	names := m.Schema().DimensionNames()
	e.u32(uint32(len(names)))
	vals := newDict()
	for _, name := range names {
		e.str(name)
		r := m.Relation(name)
		// A dimension's value dictionary and group count precede its
		// groups, so one walk of the relation learns them and a second
		// writes the groups.
		vals.reset()
		ng := 0
		if r != nil {
			for _, id := range order {
				grouped := false
				r.RangeValues(facts.At(id), func(v string, _ dimension.Annot) bool {
					vals.add(v)
					grouped = true
					return true
				})
				if grouped {
					ng++
				}
			}
		}
		e.u32(uint32(len(vals.order)))
		for _, v := range vals.order {
			e.str(v)
		}
		e.u32(uint32(ng))
		if r == nil {
			continue
		}
		for i, id := range order {
			f := facts.At(id)
			nv := r.ValuesLen(f)
			if nv == 0 {
				continue
			}
			e.u32(uint32(i))
			e.u32(uint32(nv))
			r.RangeValues(f, func(v string, a dimension.Annot) bool {
				e.u32(vals.id[v])
				e.annot(a)
				return true
			})
		}
	}
	e.u64(fingerprintCtx(eng.Context()))
	cols := eng.ExportColumns()
	e.u32(uint32(len(cols)))
	for _, c := range cols {
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
	}
}

// adoptGroups decodes one dimension's ng pair groups, npairs pairs in
// all, into r: one entry slab for the dimension, and a capacity-clamped
// window of it adopted per fact, ids naming the image's facts in dict.
// decodeSnapshot validated these bytes, so a decode error here can only
// be a bug.
func adoptGroups(r *fact.Relation, d *dec, ng, npairs int, vals []string, dict *fact.Dict, ids []uint32) {
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("segment: validated snapshot groups fail to decode: %v", err))
		}
	}
	ents := make([]fact.Entry, 0, npairs)
	for g := 0; g < ng; g++ {
		fi, err := d.u32()
		must(err)
		nvals, err := d.count(maxPairs, "snapshot pair")
		must(err)
		start := len(ents)
		for j := 0; j < nvals; j++ {
			vi, err := d.u32()
			must(err)
			a, err := d.annot()
			must(err)
			ents = append(ents, fact.Entry{ValueID: vals[vi], Annot: a})
		}
		r.AdoptPairs(dict.At(ids[fi]), ents[start:len(ents):len(ents)])
	}
}

// readSnapshot validates and parses the snapshot image of size bytes at
// the start of r against the live base MO and the opening context. The
// image streams through one buffer under a running CRC-32C; only each
// dimension's group bytes are read a second time, straight into a slice
// of their own, which must match the CRC the stream took of them. It
// builds the direct bitmaps a restore would install, deferred relations
// that decode their pairs on first access from those group bytes, and
// the columns with their codes copied out: nothing decoded keeps a
// buffer of the image alive. Every failure is a typed error and leaves
// m's facts and relations untouched — validation, the trailing checksum
// included, is complete before the caller applies anything; the fact
// ids are interned into m's dictionary, which the relations are built
// over, and a rejected image leaves ids there that nothing uses. A
// damaged image is reported as a checksum mismatch, whatever its parse
// ran into first, as if the checksum had been checked before it. Checks
// beyond the envelope (magic, version, fingerprint, CRC-32C): the
// dimension sections must name the schema's dimensions in schema order,
// every dictionary value must exist in its dimension, the fact list must
// extend the base's facts by exactly seq new ids with no duplicates,
// every group and pair reference must be in range with no fact or value
// repeated, and every count must fit the bytes left in the image.
// Whether a column fits the live engine is storage.InstallColumn's
// check, made when it is installed.
func readSnapshot(r io.ReaderAt, size int64, baseFP uint64, m *core.MO, ectx dimension.Context) (*snapImage, error) {
	if size < 4+4+8+8+4+4+8+4+4 {
		return nil, fmt.Errorf("%w: snapshot truncated at %d bytes", ErrCorrupt, size)
	}
	d := newStreamDec(io.NewSectionReader(r, 0, size-4), size-4)
	if err := d.need(4); err != nil {
		return nil, err
	}
	if magic := d.b[:4]; string(magic) != snapMagic {
		return nil, fmt.Errorf("%w: bad snapshot magic %q", ErrCorrupt, magic)
	}
	d.off = 4
	// The ChecksumMismatch faultinject point fires before any parse, so
	// corruption handling is testable without hand-crafting bit flips.
	if err := faultinject.Check(faultinject.ChecksumMismatch); err != nil {
		return nil, fmt.Errorf("snapshot file: %w: %v", ErrCorrupt, err)
	}
	img, err := decodeSnapshotBody(d, r, baseFP, m, ectx)
	if err != nil {
		if derr := d.drain(); derr != nil {
			return nil, derr
		}
	}
	var sum [4]byte
	if _, serr := r.ReadAt(sum[:], size-4); serr != nil {
		return nil, fmt.Errorf("%w: reading snapshot checksum: %v", ErrCorrupt, serr)
	}
	d.sync()
	if d.crc != binary.LittleEndian.Uint32(sum[:]) {
		return nil, fmt.Errorf("snapshot file: %w: checksum mismatch", ErrCorrupt)
	}
	if err != nil {
		return nil, err
	}
	return img, nil
}

// decodeSnapshotBody decodes the image after its magic, r being the
// image the stream d reads, for the group bytes.
func decodeSnapshotBody(d *dec, r io.ReaderAt, baseFP uint64, m *core.MO, ectx dimension.Context) (*snapImage, error) {
	ver, err := d.u32()
	if err != nil {
		return nil, err
	}
	if ver != formatVersion {
		return nil, fmt.Errorf("%w: snapshot format version %d, want %d", ErrCorrupt, ver, formatVersion)
	}
	fp, err := d.u64()
	if err != nil {
		return nil, err
	}
	if fp != baseFP {
		return nil, fmt.Errorf("%w: snapshot fingerprint %016x, base is %016x", ErrBaseMismatch, fp, baseFP)
	}
	img := &snapImage{
		rels:   map[string]*fact.Relation{},
		direct: map[string]map[string]*storage.Bitmap{},
	}
	if img.seq, err = d.u64(); err != nil {
		return nil, err
	}
	nf, err := d.count(1<<30, "snapshot fact")
	if err != nil {
		return nil, err
	}
	if nf*4 > d.remaining() {
		return nil, fmt.Errorf("%w: snapshot fact count %d exceeds remaining bytes", ErrCorrupt, nf)
	}
	baseLen := m.Facts().Len()
	if uint64(nf) != uint64(baseLen)+img.seq {
		return nil, fmt.Errorf("%w: snapshot holds %d facts, base %d + seq %d demand %d",
			ErrCorrupt, nf, baseLen, img.seq, uint64(baseLen)+img.seq)
	}
	facts := make([]string, nf)
	for i := range facts {
		if facts[i], err = d.str(); err != nil {
			return nil, err
		}
		if facts[i] == "" {
			return nil, fmt.Errorf("%w: snapshot fact %d has empty id", ErrCorrupt, i)
		}
	}
	// Interning the fact list is the largest single cost of a restore,
	// and nothing decoded after it reads the dictionary: it runs beside
	// the rest of the decode, which waits for it on every path out.
	img.dict, img.ids = m.Facts().Dict(), make([]uint32, nf)
	interned := make(chan error, 1)
	go func() { interned <- img.intern(m.Facts(), facts) }()
	err = img.decodePairs(d, r, m, ectx, facts)
	if ierr := <-interned; ierr != nil {
		return nil, ierr
	}
	if err != nil {
		return nil, err
	}
	return img, nil
}

// intern numbers the image's fact list in its MO's dictionary, checking
// that no fact repeats and that the list extends the base's facts by
// exactly seq new ones.
func (img *snapImage) intern(base *fact.Set, facts []string) error {
	copy(img.ids, img.dict.InternAll(facts))
	appended := 0
	seen := make([]bool, img.dict.Len()) // by dense id: a repeated fact id interns to the same
	for i, id := range img.ids {
		if seen[id] {
			return fmt.Errorf("%w: snapshot repeats fact %q", ErrCorrupt, facts[i])
		}
		seen[id] = true
		if !base.HasDense(id) {
			appended++
		}
	}
	if uint64(appended) != img.seq {
		// Equivalently: some base fact is missing (the counts above fix the
		// total, so extra appended ids means absent base ids).
		return fmt.Errorf("%w: snapshot covers %d appended facts, seq is %d — base coverage broken",
			ErrCorrupt, appended, img.seq)
	}
	return nil
}

// decodePairs decodes the image after its fact list: per schema
// dimension the pair groups, validated into the direct bitmaps and a
// deferred relation, then the columns section. It reads no fact
// dictionary: the fact list is interned beside it.
func (img *snapImage) decodePairs(d *dec, r io.ReaderAt, m *core.MO, ectx dimension.Context, facts []string) error {
	nf, alwaysAdmitted := len(facts), ectx.Admits(alwaysAnnot)
	names := m.Schema().DimensionNames()
	nd, err := d.count(1<<16, "snapshot dimension")
	if err != nil {
		return err
	}
	if nd != len(names) {
		return fmt.Errorf("%w: snapshot has %d dimensions, schema has %d", ErrCorrupt, nd, len(names))
	}
	for k := 0; k < nd; k++ {
		name, err := d.str()
		if err != nil {
			return err
		}
		if name != names[k] {
			return fmt.Errorf("%w: snapshot dimension %d is %q, schema says %q", ErrCorrupt, k, name, names[k])
		}
		dim := m.Dimension(name)
		if dim == nil {
			return fmt.Errorf("%w: schema dimension %q has no instance", ErrCorrupt, name)
		}
		nv, err := d.count(1<<24, "snapshot value")
		if err != nil {
			return err
		}
		if nv*4 > d.remaining() {
			return fmt.Errorf("%w: snapshot value count %d exceeds remaining bytes", ErrCorrupt, nv)
		}
		// The dictionary holds distinct values of the dimension, so it
		// has no more than the dimension does, and with it the direct
		// bitmaps below; the image's size does not bound them.
		if nv > dim.NumValues() {
			return fmt.Errorf("%w: snapshot dimension %q lists %d values, it has %d", ErrCorrupt, name, nv, dim.NumValues())
		}
		vals, listed := make([]string, nv), make(map[string]bool, nv)
		for vi := range vals {
			v, err := d.str()
			if err != nil {
				return err
			}
			if !dim.Has(v) {
				return fmt.Errorf("%w: snapshot dimension %q has no value %q", ErrCorrupt, name, v)
			}
			if listed[v] {
				return fmt.Errorf("%w: snapshot dimension %q lists value %q twice", ErrCorrupt, name, v)
			}
			vals[vi], listed[v] = v, true
		}
		ng, err := d.count(1<<30, "snapshot group")
		if err != nil {
			return err
		}
		if ng > nf {
			return fmt.Errorf("%w: snapshot dimension %q has %d groups over %d facts", ErrCorrupt, name, ng, nf)
		}
		// The groups are validated and the bitmaps the engine serves from
		// derived here; the relation's entries are decoded a second time,
		// from the same bytes read into a slice of their own, only when
		// something first accesses the relation. A restore that serves from
		// bitmaps and columns never allocates them at all.
		start, npairs := d.mark(), 0
		grouped := make([]bool, nf)
		var ivs []temporal.Interval      // the annotations' scratch, reused pair to pair
		valSeen := make([]uint32, nv)    // per-value marker: group index + 1
		admitted := make([][]uint32, nv) // per value: the facts it is admitted for
		for g := 0; g < ng; g++ {
			fi, err := d.u32()
			if err != nil {
				return err
			}
			if int(fi) >= nf {
				return fmt.Errorf("%w: snapshot group references fact %d of %d", ErrCorrupt, fi, nf)
			}
			if grouped[fi] {
				return fmt.Errorf("%w: snapshot dimension %q repeats fact %q", ErrCorrupt, name, facts[fi])
			}
			grouped[fi] = true
			nvals, err := d.count(maxPairs, "snapshot pair")
			if err != nil {
				return err
			}
			if nvals == 0 {
				return fmt.Errorf("%w: snapshot group for fact %q has no pairs", ErrCorrupt, facts[fi])
			}
			npairs += nvals
			for j := 0; j < nvals; j++ {
				vi, err := d.u32()
				if err != nil {
					return err
				}
				if int(vi) >= nv {
					return fmt.Errorf("%w: snapshot pair references value %d of %d", ErrCorrupt, vi, nv)
				}
				if valSeen[vi] == uint32(g+1) {
					return fmt.Errorf("%w: snapshot group for fact %q repeats value %q",
						ErrCorrupt, facts[fi], vals[vi])
				}
				valSeen[vi] = uint32(g + 1)
				// The direct bitmaps admit exactly what BuildEngine admits;
				// the common all-time annotation is judged once per image.
				admit := alwaysAdmitted
				if d.need(1) == nil && d.b[d.off] == annotAlways {
					d.off++
				} else {
					var a dimension.Annot
					if a, ivs, err = d.annotIn(ivs[:0]); err != nil {
						return err
					}
					admit = ectx.Admits(a)
				}
				if admit {
					admitted[vi] = append(admitted[vi], fi)
				}
			}
		}
		groups, err := readMarked(r, start, d)
		if err != nil {
			return fmt.Errorf("snapshot dimension %q: %w", name, err)
		}
		dict, ids := img.dict, img.ids
		img.rels[name] = fact.NewRelationDeferred(dict, func(r *fact.Relation) {
			adoptGroups(r, &dec{b: groups}, ng, npairs, vals, dict, ids)
		})
		// One value's bitmap at a time, while its freshly zeroed words are
		// in cache: setting bits in image order would miss on nearly every
		// pair, each touching another value's bitmap.
		bms := map[string]*storage.Bitmap{}
		for vi, fis := range admitted {
			if len(fis) > 0 {
				bm := storage.NewBitmap(nf)
				for _, fi := range fis {
					bm.Set(int(fi))
				}
				bms[vals[vi]] = bm
			}
		}
		img.direct[name] = bms
	}
	if img.ctxFP, err = d.u64(); err != nil {
		return err
	}
	if img.cols, err = d.columns(); err != nil {
		return err
	}
	if d.remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes after snapshot columns", ErrCorrupt, d.remaining())
	}
	return nil
}

// columns decodes the columns section after its context fingerprint,
// copying every code out of the image.
func (d *dec) columns() ([]storage.ColumnData, error) {
	ncols, err := d.count(1<<16, "column")
	if err != nil {
		return nil, err
	}
	cols := make([]storage.ColumnData, 0, ncols)
	for i := 0; i < ncols; i++ {
		var c storage.ColumnData
		if c.Dim, err = d.str(); err != nil {
			return nil, err
		}
		if c.Cat, err = d.str(); err != nil {
			return nil, err
		}
		if c.Vals, err = d.dictStrings("column value"); err != nil {
			return nil, err
		}
		nover, err := d.count(1<<28, "overflow")
		if err != nil {
			return nil, err
		}
		if nover*8 > d.remaining() {
			return nil, fmt.Errorf("%w: overflow count %d exceeds remaining bytes", ErrCorrupt, nover)
		}
		c.Over = make([]storage.OverflowEntry, nover)
		for j := range c.Over {
			f, err := d.u32()
			if err != nil {
				return nil, err
			}
			v, err := d.u32()
			if err != nil {
				return nil, err
			}
			c.Over[j] = storage.OverflowEntry{Fact: int(f), Vid: v}
		}
		ncodes, err := d.count(1<<30, "code")
		if err != nil {
			return nil, err
		}
		if ncodes*4 > d.remaining() {
			return nil, fmt.Errorf("%w: code count %d exceeds remaining bytes", ErrCorrupt, ncodes)
		}
		c.Codes = make([]uint32, ncodes)
		if err := d.u32s(c.Codes); err != nil {
			return nil, err
		}
		cols = append(cols, c)
	}
	return cols, nil
}

// readMarked ends d's mark, which started at stream offset start, and
// reads the bytes it covered from r into a slice of their own. They must
// be the bytes the stream summed: a file that changed between the two
// reads is corrupt.
func readMarked(r io.ReaderAt, start int64, d *dec) ([]byte, error) {
	sum := d.unmark()
	b := make([]byte, d.at()-start)
	if len(b) == 0 {
		return b, nil
	}
	if _, err := r.ReadAt(b, start); err != nil {
		return nil, fmt.Errorf("%w: reading back %d bytes at offset %d: %v", ErrCorrupt, len(b), start, err)
	}
	if crc32.Checksum(b, castagnoli) != sum {
		return nil, fmt.Errorf("%w: %d bytes at offset %d read back differently", ErrCorrupt, len(b), start)
	}
	return b, nil
}

// fingerprintCtx hashes the evaluation context an image's columns were
// computed under: the same store reopened with a different reference
// date, instant filter, or probability threshold must not install
// columns admitting a different pair set.
func fingerprintCtx(ctx dimension.Context) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	if ctx.Valid != nil {
		put(1)
		put(uint64(int64(*ctx.Valid)))
	} else {
		put(0)
	}
	if ctx.Trans != nil {
		put(1)
		put(uint64(int64(*ctx.Trans)))
	} else {
		put(0)
	}
	put(uint64(int64(ctx.Ref)))
	put(math.Float64bits(ctx.MinProb))
	return h.Sum64()
}
