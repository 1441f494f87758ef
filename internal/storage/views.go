package storage

import (
	"fmt"
	"sort"
	"sync"

	"mddm/internal/dimension"
	"mddm/internal/obs"
	"mddm/internal/qos"
	"mddm/internal/temporal"
)

// This file implements context views: an Engine that answers under another
// evaluation context — a valid-time instant, a transaction-time instant, a
// probability threshold, another reference chronon — than the one its base
// engine was built under, without rebuilding a model. A view shares the
// base's dense fact order (the first n facts, n fixed when the view is
// made), model and schema; what it owns is whatever the context decides:
//
//   - its dimensions, sliced at the context's instants by the same
//     Dimension.SliceValid / SliceTrans the algebra's timeslice operators
//     call, each on first use, so every dimension-level question the planner
//     asks (category members, covering, representations, numeric values) is
//     asked of the object the algebra would ask, under the context the
//     algebra would pass (Engine.Context: reference chronon and threshold);
//   - per dimension, on first use, the closure bitmap of every value that
//     characterizes a fact, and the membership probabilities that are not 1,
//     from one walk of the base model's fact–dimension pairs
//     (indexViewDim);
//   - its characterization columns and measure columns, built lazily like
//     the base's, over those.
//
// Everything else — the kernels, the cross-tab, the strictness probe, the
// budget replay — runs over a view unchanged. Views are memoized on the
// base engine in a fixed-size table keyed by the context; AppendFact drops
// the table, and a lookup never returns a view of an older epoch, so a view
// is never seen to miss a fact its base has. A view is read-only: it
// captures no delta partials and refuses AppendFact.

// maxViews bounds the per-engine view table. A dashboard sweeping a year
// of month-ends with one threshold fits; past it the least recently
// resolved view is dropped and rebuilt on demand.
const maxViews = 16

// View-resolution outcomes, as returned by Engine.View and counted by
// mddm_storage_views_total.
const (
	ViewBuilt  = "built"
	ViewCached = "cached"
)

var (
	mViewsBuilt = obs.NewCounter("mddm_storage_views_total",
		"Context views of an engine, by what happened to them.", obs.Label{Key: "outcome", Value: ViewBuilt})
	mViewsCached = obs.NewCounter("mddm_storage_views_total",
		"Context views of an engine, by what happened to them.", obs.Label{Key: "outcome", Value: ViewCached})
	mViewsDropped = obs.NewCounter("mddm_storage_views_total",
		"Context views of an engine, by what happened to them.", obs.Label{Key: "outcome", Value: "dropped"})
)

// viewKey is an evaluation context by value.
type viewKey struct {
	valid, trans       temporal.Chronon
	hasValid, hasTrans bool
	ref                temporal.Chronon
	minProb            float64
}

func keyOf(c dimension.Context) viewKey {
	k := viewKey{ref: c.Ref, minProb: c.MinProb}
	if c.Valid != nil {
		k.valid, k.hasValid = *c.Valid, true
	}
	if c.Trans != nil {
		k.trans, k.hasTrans = *c.Trans, true
	}
	return k
}

// view is the part of an Engine only a context view has.
type view struct {
	base *Engine
	// full is the context the view answers under. The view's Engine.ctx is
	// what is left of it once the dimensions are sliced: Ref and MinProb.
	full dimension.Context
	mu   sync.Mutex // guards dims; a leaf lock
	dims map[string]*dimension.Dimension
}

// viewTable memoizes an engine's views. Entries belong to one epoch of the
// base; an older table is dropped whole.
type viewTable struct {
	mu    sync.Mutex
	epoch uint64
	tick  uint64
	slots [maxViews]viewSlot
}

type viewSlot struct {
	key  viewKey
	eng  *Engine
	used uint64
}

// drop empties the table and moves it to epoch; the caller holds t.mu.
func (t *viewTable) drop(epoch uint64) {
	for k := range t.slots {
		if t.slots[k].eng != nil {
			mViewsDropped.Inc()
		}
		t.slots[k] = viewSlot{}
	}
	t.epoch = epoch
}

// dropViews forgets every memoized view: AppendFact's one duty toward
// them. Views already handed to a query keep answering over the facts they
// were made with.
func (e *Engine) dropViews() {
	e.views.mu.Lock()
	e.views.drop(e.epoch.Load())
	e.views.mu.Unlock()
}

// IsView reports whether the engine is a context view of another.
func (e *Engine) IsView() bool { return e.view != nil }

// Answers returns the evaluation context the engine's answers are under:
// the context it was built under or, for a view, the one it was resolved
// for. Context is what remains to be passed to dimension-level calls.
func (e *Engine) Answers() dimension.Context {
	if e.view != nil {
		return e.view.full
	}
	return e.ctx
}

// View resolves the engine that answers under ectx: e itself when that is
// the context e answers under — unless probs asks for membership
// probabilities, which only views index, so a probabilistic aggregate takes
// the view of e's own context — and otherwise a context view, made on first
// use and memoized on the base engine until its epoch moves or the table
// needs the slot. The outcome is "" for e itself, else ViewBuilt or
// ViewCached. Making a view indexes nothing yet; each dimension is sliced
// and indexed when a query first touches it.
func (e *Engine) View(ectx dimension.Context, probs bool) (*Engine, string) {
	key := keyOf(ectx)
	if key == keyOf(e.Answers()) && (e.view != nil || !probs) {
		return e, ""
	}
	base := e
	if e.view != nil {
		base = e.view.base
	}
	base.mu.RLock()
	epoch, n, colMin := base.epoch.Load(), len(base.order), base.colMin
	order := base.order[:n:n]
	base.mu.RUnlock()

	t := &base.views
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.epoch < epoch {
		t.drop(epoch)
	}
	// A table already past epoch belongs to a later append than the facts
	// read above: answer from an unmemoized view of those facts.
	current := t.epoch == epoch
	victim := &t.slots[0]
	if current {
		t.tick++
		for k := range t.slots {
			s := &t.slots[k]
			if s.eng != nil && s.key == key {
				s.used = t.tick
				mViewsCached.Inc()
				return s.eng, ViewCached
			}
			if s.used < victim.used {
				victim = s
			}
		}
	}
	v := &Engine{
		mo:     base.mo,
		ctx:    dimension.Context{Ref: ectx.Ref, MinProb: ectx.MinProb},
		dict:   base.dict,
		order:  order,
		dims:   map[string]*dimIndex{},
		colMin: colMin,
		view:   &view{base: base, full: ectx, dims: map[string]*dimension.Dimension{}},
	}
	v.epoch.Store(epoch)
	v.windows = []epochWindow{{epoch: epoch, facts: n}}
	mViewsBuilt.Inc()
	if current {
		if victim.eng != nil {
			mViewsDropped.Inc()
		}
		*victim = viewSlot{key: key, eng: v, used: t.tick}
	}
	return v, ViewBuilt
}

// Dimension returns the named dimension as the engine's answers see it:
// the model's own or, for a view with a time instant, its slice at that
// instant (valid time first, as the query path applies the timeslices),
// made on first use. Nil for an unknown name.
func (e *Engine) Dimension(name string) *dimension.Dimension {
	d := e.mo.Dimension(name)
	v := e.view
	if v == nil || d == nil || (v.full.Valid == nil && v.full.Trans == nil) {
		return d
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if s := v.dims[name]; s != nil {
		return s
	}
	if v.full.Valid != nil {
		d = d.SliceValid(*v.full.Valid, v.full.Ref)
	}
	if v.full.Trans != nil {
		d = d.SliceTrans(*v.full.Trans, v.full.Ref)
	}
	v.dims[name] = d
	return d
}

// categoryValues is the value dictionary of a leg, sorted. A base engine
// lists the members its context admits. A view lists every value its
// dimension kept: a value whose own membership the threshold rejects still
// characterizes the facts that reach it through an admitted path, and the
// view's closures (reachOf) tell the two apart.
func (e *Engine) categoryValues(d *dimension.Dimension, cat string) []string {
	if e.view != nil {
		return d.Category(cat)
	}
	return d.CategoryAt(cat, e.ctx)
}

// admits reports whether the engine's answers count the fact–dimension pair
// (f, value) with annotation a: the context admits the annotation and, for
// a view, the sliced dimension d still holds the value.
func (e *Engine) admits(d *dimension.Dimension, value string, a dimension.Annot) bool {
	if e.view == nil {
		return e.ctx.Admits(a)
	}
	return e.view.full.Admits(a) && d.Has(value)
}

// lockRelations brackets a view's walk of the model's relations: the
// base's read lock keeps AppendFact, their one writer, out. A base engine
// reads under its own lock already. The caller must not call into the
// base while holding it.
func (e *Engine) lockRelations() (unlock func()) {
	if e.view == nil {
		return func() {}
	}
	e.view.base.mu.RLock()
	return e.view.base.mu.RUnlock
}

// factProb is one membership probability that is not 1.
type factProb struct {
	fact int
	p    float64
}

// probAt returns the membership probability of fact i in a list sorted by
// fact: 1 unless listed.
func probAt(list []factProb, i int) float64 {
	k := sort.Search(len(list), func(k int) bool { return list[k].fact >= i })
	if k < len(list) && list[k].fact == i {
		return list[k].p
	}
	return 1
}

// reached is one value a directly related value rolls up to, with the
// probability of the best path to it.
type reached struct {
	value string
	p     float64
}

// reachOf lists what a fact directly related to value is characterized by,
// as Dimension.LessEq decides it: value itself and ⊤ when the context
// admits value's own membership, at the membership's probability, and
// every value above it that UpReach reaches, at the path's.
func (e *Engine) reachOf(d *dimension.Dimension, value string) []reached {
	var out []reached
	if m, ok := d.Membership(value); ok && e.ctx.Admits(m) {
		out = append(out, reached{value, m.Prob})
		if value != dimension.TopValue {
			out = append(out, reached{dimension.TopValue, m.Prob})
		}
	}
	for anc, p := range d.UpReach(value, e.ctx) {
		if anc != value {
			out = append(out, reached{anc, p})
		}
	}
	return out
}

// ensureViewIndex builds the view's index of one dimension on first use.
func (e *Engine) ensureViewIndex(g *qos.Guard, dim string) error {
	e.mu.RLock()
	di := e.dims[dim]
	e.mu.RUnlock()
	if di != nil {
		return nil
	}
	d := e.Dimension(dim)
	if d == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.dims[dim] != nil {
		return nil
	}
	di, err := e.indexViewDim(g, dim, d)
	if err != nil {
		return fmt.Errorf("storage: view index %s: %w", dim, err)
	}
	e.dims[dim] = di
	mClosureExpansions.Add(int64(len(di.closure)))
	return nil
}

// indexViewDim walks the pairs the base model relates the view's facts by
// in one dimension and records, for every value e and fact f with f ⤳ e
// under the view's context, the bit of f in e's closure and — where it is
// not 1 — P(f ⤳ e): the maximum over the admitted pairs (f, e1) of the
// pair's probability times what reachOf gives for e1 → e, which is the
// probability core.MO.CharacterizedBy returns on the sliced model. A pair
// survives a timeslice when its annotation holds at the instant and the
// sliced dimension d kept its value; a fact none of whose pairs survive
// gets the (f, ⊤) pair the timeslice operators add. The result holds a
// closure for every value that characterizes a fact — values missing from
// it characterize none — so nothing is expanded later. The caller holds the
// view's write lock.
func (e *Engine) indexViewDim(g *qos.Guard, name string, d *dimension.Dimension) (*dimIndex, error) {
	di := &dimIndex{closure: map[string]*Bitmap{}, prob: map[string][]factProb{}}
	r := e.mo.Relation(name)
	if r == nil {
		return di, nil
	}
	full, n := e.view.full, len(e.order)
	sliced := full.Valid != nil || full.Trans != nil
	reach := map[string][]reached{}
	var hits []reached // the values characterizing the current fact
	witness := func(value string, a dimension.Annot) {
		rs, ok := reach[value]
		if !ok {
			rs = e.reachOf(d, value)
			reach[value] = rs
		}
	next:
		for _, rc := range rs {
			p := a.Prob * rc.p
			for k := range hits {
				if hits[k].value == rc.value {
					hits[k].p = max(hits[k].p, p)
					continue next
				}
			}
			hits = append(hits, reached{rc.value, p})
		}
	}
	survived := false // a pair of the current fact survives the timeslice
	pair := func(value string, a dimension.Annot) bool {
		if !d.Has(value) ||
			(full.Valid != nil && !a.Time.Valid.Contains(*full.Valid, full.Ref)) ||
			(full.Trans != nil && !a.Time.Trans.Contains(*full.Trans, full.Ref)) {
			return true
		}
		survived = true
		// What is left of the context once the instants hold: e.ctx.
		if e.ctx.Admits(a) {
			witness(value, a)
		}
		return true
	}
	defer e.lockRelations()()
	for i, id := range e.order {
		if i&(checkStride-1) == 0 {
			if err := g.CheckNow(); err != nil {
				return nil, err
			}
		}
		hits, survived = hits[:0], false
		r.RangeValues(e.dict.At(id), pair)
		if a := dimension.Always(); sliced && !survived && e.ctx.Admits(a) {
			witness(dimension.TopValue, a)
		}
		for _, h := range hits {
			bm := di.closure[h.value]
			if bm == nil {
				bm = NewBitmap(n)
				di.closure[h.value] = bm
			}
			bm.Set(i)
			if h.p != 1 {
				di.prob[h.value] = append(di.prob[h.value], factProb{i, h.p})
			}
		}
	}
	return di, nil
}

// legProbs returns, per value of a leg's dictionary, the membership
// probabilities that are not 1, sorted by fact; nil when the dimension has
// none. The caller holds e.mu.
func (e *Engine) legProbs(dim string, vals []string) [][]factProb {
	di := e.dims[dim]
	if di == nil || len(di.prob) == 0 {
		return nil
	}
	out := make([][]factProb, len(vals))
	for j, v := range vals {
		out[j] = di.prob[v]
	}
	return out
}
