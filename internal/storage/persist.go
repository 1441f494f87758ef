package storage

import (
	"errors"
	"fmt"
	"sort"

	"mddm/internal/core"
	"mddm/internal/dimension"
)

// This file is the persistence seam of the engine: it exports the built
// characterization columns in a stable, validated interchange form and
// installs persisted columns back into a freshly loaded engine. The
// on-disk format itself lives in internal/segment; storage only promises
// that ExportColumns → InstallColumn round-trips to an engine whose kernels
// answer bit-identically to one that built its columns from the closure
// bitmaps. Installation is defensive — persisted artifacts are untrusted
// input (a checksum match does not prove semantic fit against the live
// MO), so every invariant the kernels rely on is re-checked and a
// mismatch is a typed rejection, never a panic or a silently wrong
// column.

// ErrBadColumn reports persisted column data that does not fit the live
// engine (dictionary drift, out-of-range codes, unsorted or dangling
// overflow entries). Callers treat the artifact as invalid and fall back
// to building columns from the closure bitmaps.
var ErrBadColumn = errors.New("storage: persisted column rejected")

// ColSentinelNone and ColSentinelMulti are the persisted code sentinels,
// re-exported so the on-disk format and its fuzzers can name them.
const (
	ColSentinelNone  = colNone
	ColSentinelMulti = colMulti
)

// ExportFacts returns a copy of the engine's dense fact order — the
// positional frame of reference every persisted column and bitmap uses.
func (e *Engine) ExportFacts() []string { return e.SelectedFactIDs(nil) }

// ExportOrder is ExportFacts as ids of the MO's fact dictionary, without
// the copy: it returns the engine's own order, which an append only
// extends past the returned length, so it stays valid after the lock is
// released, but callers must not modify it.
func (e *Engine) ExportOrder() []uint32 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.order[:len(e.order):len(e.order)]
}

// RestoreEngine builds an engine from a persisted dense fact order, as
// ids of the MO's fact dictionary, and per-dimension direct bitmaps,
// skipping BuildEngine's full pair scan.
// The caller (the segment package's snapshot restore) guarantees the
// bitmaps were derived by admitting each persisted pair under ectx —
// exactly the filter BuildEngine applies — so a restored engine answers
// every query identically to a rebuilt one. What restore re-checks here
// is positional integrity: order must exactly cover the MO's fact set
// with no duplicates (a permuted or partial order would silently
// misattribute every bitmap bit), and every bitmap dimension must exist
// in the schema. order and dims are retained; the caller must not
// mutate them afterwards.
func RestoreEngine(m *core.MO, ectx dimension.Context, order []uint32, perDim map[string]map[string]*Bitmap) (*Engine, error) {
	if m.Facts().Len() != len(order) {
		return nil, fmt.Errorf("storage: restore: %d facts provided, MO holds %d", len(order), m.Facts().Len())
	}
	e := &Engine{
		mo:    m,
		ctx:   ectx,
		dict:  m.Facts().Dict(),
		order: order,
		dims:  map[string]*dimIndex{},
	}
	e.pos = make([]uint32, e.dict.Len())
	for i, id := range order {
		if !m.Facts().HasDense(id) {
			return nil, fmt.Errorf("storage: restore: fact %d not in the MO", id)
		}
		if e.pos[id] != 0 {
			return nil, fmt.Errorf("storage: restore: duplicate fact %q", e.dict.At(id))
		}
		e.pos[id] = uint32(i) + 1
	}
	names := m.Schema().DimensionNames()
	known := make(map[string]bool, len(names))
	for _, name := range names {
		known[name] = true
	}
	for name := range perDim {
		if !known[name] {
			return nil, fmt.Errorf("storage: restore: bitmaps for unknown dimension %q", name)
		}
	}
	for _, name := range names {
		direct := perDim[name]
		if direct == nil {
			direct = map[string]*Bitmap{}
		}
		e.dims[name] = &dimIndex{direct: direct, closure: map[string]*Bitmap{}}
	}
	e.bumpEpoch()
	mEngineBuilds.Inc()
	return e, nil
}

// ColumnData is one characterization column in interchange form, as
// ExportColumns returns it and InstallColumn takes it: the dictionary in
// CategoryAt order, the dense codes (one per engine fact, a value-id or
// ColSentinelNone/ColSentinelMulti), and the overflow side-table sorted
// by (Fact, Vid).
type ColumnData struct {
	Dim, Cat string
	Vals     []string
	Codes    []uint32
	Over     []OverflowEntry
}

// ExportColumns returns every built column, in (dimension, category)
// order, taken under one read lock. Vals, Codes and Over are the column's
// own slices, not copies: an append only ever extends a column past the
// returned length and never rewrites an element (a build sorts its
// overflow table before it publishes the column), so they stay valid
// after the lock is released, but callers must not modify them.
func (e *Engine) ExportColumns() []ColumnData {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]ColumnData, 0, len(e.cols))
	for _, col := range e.cols {
		out = append(out, ColumnData{Dim: col.dim, Cat: col.cat, Vals: col.vals, Codes: col.codes, Over: col.over})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dim != out[j].Dim {
			return out[i].Dim < out[j].Dim
		}
		return out[i].Cat < out[j].Cat
	})
	return out
}

// InstallColumn installs a persisted characterization column, validating
// it against the live engine first: the codes must cover exactly the
// engine's facts (a persisted column is installed before any later fact
// is appended, and AppendFact then maintains it), the dictionary must be
// exactly the category's CategoryAt order (dictionary drift would
// silently relabel every group), codes must be in-range or sentinels,
// and the overflow table must be sorted by (fact, vid) with every entry
// belonging to a colMulti fact and every colMulti fact owning at least
// two entries — the invariants the single-pass kernels assume.
// Installing over an already built column is a no-op (the built one is
// already correct). Violations return ErrBadColumn-wrapped errors and
// leave the engine untouched.
//
// codes and over are retained by the engine, capacity-clamped so that its
// appends never write into the caller's arrays; callers must not mutate
// them afterwards.
func (e *Engine) InstallColumn(dim, cat string, vals []string, codes []uint32, over []OverflowEntry) error {
	d := e.Dimension(dim)
	if d == nil {
		return fmt.Errorf("%w: unknown dimension %q", ErrBadColumn, dim)
	}
	want := e.categoryValues(d, cat)
	if len(want) != len(vals) {
		return fmt.Errorf("%w: %s/%s dictionary has %d values, category has %d",
			ErrBadColumn, dim, cat, len(vals), len(want))
	}
	for i, v := range want {
		if vals[i] != v {
			return fmt.Errorf("%w: %s/%s dictionary drift at %d: %q != %q",
				ErrBadColumn, dim, cat, i, vals[i], v)
		}
	}
	if uint64(len(vals)) >= uint64(colMulti) {
		return fmt.Errorf("%w: %s/%s: %d values exceed the uint32 dictionary", ErrBadColumn, dim, cat, len(vals))
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(codes) != len(e.order) {
		return fmt.Errorf("%w: %s/%s covers %d facts, engine has %d",
			ErrBadColumn, dim, cat, len(codes), len(e.order))
	}
	nv := uint32(len(vals))
	oc := 0
	multi := NewBitmap(len(codes))
	for i, c := range codes {
		switch {
		case c == colNone:
		case c == colMulti:
			multi.Set(i)
			// Every colMulti fact must own a sorted run of ≥2 in-range
			// overflow entries; the cursor walk also rejects entries for
			// non-multi facts (they would be skipped here and caught below).
			run := 0
			var prev uint32
			for oc < len(over) && over[oc].Fact == i {
				en := over[oc]
				if en.Vid >= nv {
					return fmt.Errorf("%w: %s/%s overflow vid %d out of range at fact %d",
						ErrBadColumn, dim, cat, en.Vid, i)
				}
				if run > 0 && en.Vid <= prev {
					return fmt.Errorf("%w: %s/%s overflow not sorted at fact %d", ErrBadColumn, dim, cat, i)
				}
				prev = en.Vid
				run++
				oc++
			}
			if run < 2 {
				return fmt.Errorf("%w: %s/%s fact %d is colMulti with %d overflow entries",
					ErrBadColumn, dim, cat, i, run)
			}
		case c >= nv:
			return fmt.Errorf("%w: %s/%s code %d out of range at fact %d", ErrBadColumn, dim, cat, c, i)
		}
		if oc < len(over) && over[oc].Fact <= i {
			return fmt.Errorf("%w: %s/%s overflow entry for non-multi or out-of-order fact %d",
				ErrBadColumn, dim, cat, over[oc].Fact)
		}
	}
	if oc != len(over) {
		return fmt.Errorf("%w: %s/%s has %d dangling overflow entries", ErrBadColumn, dim, cat, len(over)-oc)
	}
	if e.cols == nil {
		e.cols = map[string]*column{}
	}
	if e.cols[colKey(dim, cat)] != nil {
		return nil
	}
	col := &column{
		dim:    dim,
		cat:    cat,
		vals:   append([]string(nil), vals...),
		vid:    make(map[string]uint32, len(vals)),
		codes:  codes[:len(codes):len(codes)],
		multi:  multi,
		catVer: d.CategoryVersion(cat),
	}
	for j, v := range col.vals {
		col.vid[v] = uint32(j)
	}
	col.over = over[:len(over):len(over)]
	e.cols[colKey(dim, cat)] = col
	mColumnBuilds.Inc()
	return nil
}
