package fact

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// refRelation is the reference model FuzzRelation checks Relation
// against: the plain fact→value→annotation map.
type refRelation struct {
	pairs map[string]map[string]dimension.Annot
}

func newRef() *refRelation {
	return &refRelation{pairs: map[string]map[string]dimension.Annot{}}
}

// refUnion unions two elements by canonicalising the concatenation of
// their intervals, independently of Element.Union's shortcuts.
func refUnion(a, b temporal.Element) temporal.Element {
	return temporal.NewElement(append(a.Intervals(), b.Intervals()...)...)
}

func (m *refRelation) add(f, v string, a dimension.Annot) {
	vs := m.pairs[f]
	if vs == nil {
		vs = map[string]dimension.Annot{}
		m.pairs[f] = vs
	}
	if old, ok := vs[v]; ok {
		a = dimension.Annot{
			Time: temporal.Bitemporal{Valid: refUnion(old.Time.Valid, a.Time.Valid), Trans: refUnion(old.Time.Trans, a.Time.Trans)},
			Prob: max(old.Prob, a.Prob),
		}
	}
	vs[v] = a
}

func (m *refRelation) remove(f, v string) {
	delete(m.pairs[f], v)
	if len(m.pairs[f]) == 0 {
		delete(m.pairs, f)
	}
}

func (m *refRelation) clone() *refRelation {
	n := newRef()
	for f, vs := range m.pairs {
		for v, a := range vs {
			n.add(f, v, a)
		}
	}
	return n
}

func (m *refRelation) len() int {
	n := 0
	for _, vs := range m.pairs {
		n += len(vs)
	}
	return n
}

// sortedPairs renders the model the way Relation.Pairs must.
func (m *refRelation) sortedPairs() []Pair {
	var out []Pair
	for f, vs := range m.pairs {
		for v, a := range vs {
			out = append(out, Pair{FactID: f, ValueID: v, Annot: a})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].FactID != out[j].FactID {
			return out[i].FactID < out[j].FactID
		}
		return out[i].ValueID < out[j].ValueID
	})
	return out
}

// build returns an ordinary Relation holding the model's pairs.
func (m *refRelation) build() *Relation {
	r := NewRelation()
	for f, vs := range m.pairs {
		for v, a := range vs {
			r.AddAnnot(f, v, a)
		}
	}
	return r
}

func annotEqual(a, b dimension.Annot) bool {
	return a.Prob == b.Prob && a.Time.Valid.Equal(b.Time.Valid) && a.Time.Trans.Equal(b.Time.Trans)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// The fuzz domain: four facts and four values, so operations collide, and
// a fifth of each that the operations never touch, so absent lookups are
// probed too.
var (
	fuzzFacts  = []string{"f0", "f1", "f2", "f3"}
	fuzzValues = []string{"v0", "v1", "v2", "v3"}
	probeFacts = append(append([]string(nil), fuzzFacts...), "fX")
	probeVals  = append(append([]string(nil), fuzzValues...), "vX")
	fuzzAnnots = []dimension.Annot{
		dimension.Always(),
		dimension.Always().WithProb(0.5),
		dimension.ValidDuring(temporal.Single(0, 10)),
		dimension.ValidDuring(temporal.Single(5, 20)).WithProb(0.3),
		dimension.ValidDuring(temporal.Single(30, 40)),
		{Time: temporal.TransOnly(temporal.NewElement(temporal.MustNewInterval(100, temporal.Now))), Prob: 0.8},
	}
)

// unionOperand is the fixed right-hand side of the Union check: it
// overlaps the fuzz domain on some pairs and extends it on others.
func unionOperand() (*Relation, *refRelation) {
	r, m := NewRelation(), newRef()
	for _, p := range []struct {
		f, v string
		k    int
	}{{"f0", "v0", 2}, {"f1", "v3", 3}, {"f9", "v9", 0}} {
		r.AddAnnot(p.f, p.v, fuzzAnnots[p.k])
		m.add(p.f, p.v, fuzzAnnots[p.k])
	}
	return r, m
}

// checkRelation compares every accessor of r with the model.
func checkRelation(t *testing.T, step int, r *Relation, m *refRelation) {
	t.Helper()
	fail := func(format string, args ...any) {
		t.Helper()
		t.Fatalf("step %d: %s", step, fmt.Sprintf(format, args...))
	}
	if r.Len() != m.len() {
		fail("Len = %d, model %d", r.Len(), m.len())
	}
	for _, f := range probeFacts {
		if r.ValuesLen(f) != len(m.pairs[f]) {
			fail("ValuesLen(%s) = %d, model %d", f, r.ValuesLen(f), len(m.pairs[f]))
		}
		if got, want := r.ValuesOf(f), sortedKeys(m.pairs[f]); !slices.Equal(got, want) {
			fail("ValuesOf(%s) = %v, model %v", f, got, want)
		}
		n := 0
		r.RangeValues(f, func(v string, a dimension.Annot) bool {
			n++
			if b, ok := m.pairs[f][v]; !ok || !annotEqual(a, b) {
				fail("RangeValues(%s) yields (%s, %v), model %v/%v", f, v, a, b, ok)
			}
			return true
		})
		if n != len(m.pairs[f]) {
			fail("RangeValues(%s) yields %d values, model %d", f, n, len(m.pairs[f]))
		}
		for _, v := range probeVals {
			want, inModel := m.pairs[f][v]
			if r.Has(f, v) != inModel {
				fail("Has(%s, %s) = %v, model %v", f, v, r.Has(f, v), inModel)
			}
			got, ok := r.Annot(f, v)
			if ok != inModel || (ok && !annotEqual(got, want)) {
				fail("Annot(%s, %s) = %v/%v, model %v/%v", f, v, got, ok, want, inModel)
			}
		}
	}
	got, want := r.Pairs(), m.sortedPairs()
	if len(got) != len(want) {
		fail("Pairs has %d, model %d", len(got), len(want))
	}
	for i := range got {
		if got[i].FactID != want[i].FactID || got[i].ValueID != want[i].ValueID || !annotEqual(got[i].Annot, want[i].Annot) {
			fail("Pairs[%d] = %v, model %v", i, got[i], want[i])
		}
	}
	seen := map[[2]string]bool{}
	r.Range(func(f, v string, a dimension.Annot) bool {
		if seen[[2]string{f, v}] {
			fail("Range yields (%s, %s) twice", f, v)
		}
		seen[[2]string{f, v}] = true
		if b, ok := m.pairs[f][v]; !ok || !annotEqual(a, b) {
			fail("Range yields (%s, %s, %v), model %v/%v", f, v, a, b, ok)
		}
		return true
	})
	if len(seen) != m.len() {
		fail("Range yields %d pairs, model %d", len(seen), m.len())
	}
	built := m.build()
	if !r.Equal(built) || !built.Equal(r) {
		fail("Equal to the model's relation is false")
	}
	if m.len() > 0 {
		skew := m.clone()
		p := m.sortedPairs()[0]
		skew.remove(p.FactID, p.ValueID)
		skew.add(p.FactID, p.ValueID, p.Annot.WithProb(p.Annot.Prob/2))
		if r.Equal(skew.build()) {
			fail("Equal ignores an annotation difference on (%s, %s)", p.FactID, p.ValueID)
		}
	}

	// Clone is deep: coalescing into and extending the copy leaves r as
	// it was, over a dictionary that numbers the facts otherwise.
	c := r.Clone(crossDict())
	if !c.Equal(built) {
		fail("Clone differs from the model")
	}
	if c.dead != 0 || c.deadIvs != 0 {
		fail("Clone keeps %d dead entries and %d dead intervals", c.dead, c.deadIvs)
	}
	checkLayout(t, step, c)
	for _, p := range m.sortedPairs() {
		c.AddAnnot(p.FactID, p.ValueID, dimension.ValidDuring(temporal.Single(-50, -40)))
		c.AddAnnot(p.FactID, "vClone", dimension.Always())
	}
	if !r.Equal(built) {
		fail("mutating a Clone changed the original")
	}

	keep := func(f string) bool { return f == "f0" || f == "f2" || f == "f9" }
	rm := newRef()
	for f, vs := range m.pairs {
		if keep(f) {
			for v, a := range vs {
				rm.add(f, v, a)
			}
		}
	}
	rs := r.Restrict(NewDict(), keep)
	if !rs.Equal(rm.build()) {
		fail("Restrict differs from the model")
	}
	if rs.dead != 0 || rs.deadIvs != 0 {
		fail("Restrict keeps %d dead entries and %d dead intervals", rs.dead, rs.deadIvs)
	}
	rs.Add("f0", "vRestrict")
	if r.Has("f0", "vRestrict") {
		fail("mutating a Restrict result changed the original")
	}

	o, om := unionOperand()
	um := m.clone()
	for f, vs := range om.pairs {
		for v, a := range vs {
			um.add(f, v, a)
		}
	}
	if !r.Union(o).Equal(um.build()) {
		fail("Union differs from the model")
	}
	if !r.Equal(built) {
		fail("Union changed its receiver")
	}
}

// checkLayout verifies the relation's storage accounting against its
// spans: spans are non-empty and disjoint, every entry no span covers is
// counted dead, and every arena interval no live entry refers to is
// counted dead. A live run is never shared, so both counts are exact.
func checkLayout(t *testing.T, step int, r *Relation) {
	t.Helper()
	covered := make([]bool, len(r.ents))
	live, liveIvs := 0, 0
	if len(r.spans) > r.dict.Len() {
		t.Fatalf("step %d: %d spans over %d dictionary ids", step, len(r.spans), r.dict.Len())
	}
	for f, sp := range r.spans {
		if sp.n == 0 {
			if sp.off != 0 {
				t.Fatalf("step %d: empty span of fact %d at %d", step, f, sp.off)
			}
			continue
		}
		if int(sp.off+sp.n) > len(r.ents) {
			t.Fatalf("step %d: span of fact %d is %+v over %d entries", step, f, sp, len(r.ents))
		}
		for i := sp.off; i < sp.off+sp.n; i++ {
			if covered[i] {
				t.Fatalf("step %d: entry %d lies in two spans", step, i)
			}
			covered[i] = true
			liveIvs += r.ents[i].valid.Len() + r.ents[i].trans.Len()
		}
		live += int(sp.n)
	}
	if r.dead != len(r.ents)-live {
		t.Fatalf("step %d: %d dead entries counted, %d present", step, r.dead, len(r.ents)-live)
	}
	if r.deadIvs != r.times.Len()-liveIvs {
		t.Fatalf("step %d: %d dead intervals counted, %d present", step, r.deadIvs, r.times.Len()-liveIvs)
	}
}

// crossDict returns a dictionary that has numbered the fuzz domain's
// facts already, in reverse order, so the dense ids of a relation over it
// differ from those of one that interns the facts as they come.
func crossDict() *Dict {
	d := NewDict()
	for i := len(probeFacts) - 1; i >= 0; i-- {
		d.Intern(probeFacts[i])
	}
	d.Intern("f9")
	return d
}

// heldAnnot is an annotation taken from a relation together with a deep
// copy of its content at that moment.
type heldAnnot struct {
	a            dimension.Annot
	valid, trans []temporal.Interval
}

func hold(a dimension.Annot) heldAnnot {
	return heldAnnot{a: a, valid: a.Time.Valid.Intervals(), trans: a.Time.Trans.Intervals()}
}

// unchanged reports whether the held annotation still reads as it did
// when it was taken.
func (h heldAnnot) unchanged() bool {
	return slices.Equal(h.a.Time.Valid.Intervals(), h.valid) && slices.Equal(h.a.Time.Trans.Intervals(), h.trans)
}

// FuzzRelation applies a decoded sequence of operations to a Relation
// and to the reference model, comparing every accessor after each one.
// Each operation takes four bytes: opcode, fact, value, and an argument
// (an annotation index, or a value mask for AdoptPairs). After each
// operation the storage accounting is checked (checkLayout), and every
// annotation taken at an earlier step must still read as it did then:
// writes never reach an element handed out. The relation starts over a
// dictionary it shares with a sibling relation, as the relations of one
// MO do, and copies and re-keys move it across dictionaries that number
// the facts otherwise; the sibling must never change. The compaction
// threshold is lowered so that short sequences compact too.
func FuzzRelation(f *testing.F) {
	defer func(n int) { compactMin = n }(compactMin)
	compactMin = 4
	f.Add([]byte{0, 0, 0, 0, 0, 0, 1, 2, 0, 0, 0, 3, 0, 1, 0, 1})
	// Span relocation (f0 gains v1 while f1's span is last), then
	// coalescing into the moved span, overlapping and disjoint.
	f.Add([]byte{0, 0, 0, 2, 0, 1, 0, 2, 0, 0, 1, 3, 0, 0, 0, 3, 0, 0, 1, 4, 0, 1, 1, 5})
	// Remove, then re-add the value with another annotation, in a span
	// that is and one that is not last.
	f.Add([]byte{0, 0, 0, 2, 0, 0, 1, 2, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 0, 4, 1, 1, 0, 0, 0, 1, 0, 5})
	// Clone and Restrict as the relation, after relocations and removals
	// left dead space.
	f.Add([]byte{0, 0, 0, 2, 0, 1, 1, 3, 0, 0, 2, 4, 1, 1, 1, 0, 5, 0, 0, 0, 0, 2, 1, 2, 5, 1, 0, 1, 0, 0, 3, 3})
	// Deferred fill, then a relocation and a coalescing as first accesses.
	f.Add([]byte{0, 0, 0, 2, 0, 1, 1, 3, 3, 0, 0, 0, 0, 0, 2, 4, 0, 0, 0, 3, 4, 0, 0, 0, 1, 1, 1, 0})
	// Copies over each kind of dictionary, then re-keys over a fresh and
	// a cross-numbered one, with writes in between.
	f.Add([]byte{0, 1, 0, 2, 5, 0, 0, 0, 0, 2, 1, 3, 5, 0, 0, 2, 0, 3, 2, 1, 5, 1, 0, 3, 6, 0, 0, 1, 0, 0, 3, 4, 6, 0, 0, 0, 1, 1, 0, 0, 5, 2, 0, 5})
	f.Fuzz(func(t *testing.T, ops []byte) {
		shared := crossDict()
		sib := NewRelationOver(shared)
		sibAnnot := fuzzAnnots[3]
		sib.AddAnnot("f1", "v2", sibAnnot)
		r, m := NewRelationOver(shared), newRef()
		var held []heldAnnot
		const maxOps = 48
		for step := 0; step+4 <= len(ops) && step/4 < maxOps; step += 4 {
			op, fi, vi, arg := ops[step]%7, ops[step+1], ops[step+2], ops[step+3]
			f, v := fuzzFacts[int(fi)%len(fuzzFacts)], fuzzValues[int(vi)%len(fuzzValues)]
			a := fuzzAnnots[int(arg)%len(fuzzAnnots)]
			switch op {
			case 0: // AddAnnot, coalescing when the pair exists
				r.AddAnnot(f, v, a)
				m.add(f, v, a)
			case 1: // Remove, possibly of an absent pair
				r.Remove(f, v)
				m.remove(f, v)
			case 2: // AdoptPairs of the values in arg's low four bits
				var es []Entry
				for i, val := range fuzzValues {
					if arg&(1<<i) != 0 {
						ea := fuzzAnnots[(int(vi)+i)%len(fuzzAnnots)]
						es = append(es, Entry{ValueID: val, Annot: ea})
						m.add(f, val, ea)
					}
				}
				r.AdoptPairs(f, es)
			case 3: // Deferred fill: a fresh relation that adopts the
				// model's pairs as windows of one shared slice, as a
				// snapshot restore does. The next operation is the first
				// access, so it is left unchecked until then.
				var all []Entry
				var lens []int
				facts := sortedKeys(m.pairs)
				for _, f := range facts {
					for _, v := range sortedKeys(m.pairs[f]) {
						all = append(all, Entry{ValueID: v, Annot: m.pairs[f][v]})
					}
					lens = append(lens, len(m.pairs[f]))
				}
				r = NewRelationDeferred(shared, func(r *Relation) {
					p := 0
					for i, f := range facts {
						q := p + lens[i]
						r.AdoptPairs(f, all[p:q:q])
						p = q
					}
				})
				continue
			case 4: // No write: after a deferred fill, the checks below
				// are the first access, and every one of them a read.
			case 5: // Go on with a compacted copy: Clone for an even arg,
				// else Restrict to every fact but f; over the relation's
				// own dictionary, a fresh one or a cross-numbered one.
				d := []*Dict{r.dict, NewDict(), crossDict()}[int(arg/2)%3]
				if arg%2 == 0 {
					r = r.Clone(d)
				} else {
					r = r.Restrict(d, func(g string) bool { return g != f })
					for _, v := range sortedKeys(m.pairs[f]) {
						m.remove(f, v)
					}
				}
			case 6: // Re-key in place, as an MO adopting the relation does:
				// over a cross-numbered dictionary for an even arg, else a
				// fresh one.
				if arg%2 == 0 {
					r.Rekey(crossDict())
				} else {
					r.Rekey(NewDict())
				}
			}
			if a, ok := sib.Annot("f1", "v2"); sib.Len() != 1 || !ok || !annotEqual(a, sibAnnot) {
				t.Fatalf("step %d: a write to a relation changed its sibling over the same dictionary", step/4)
			}
			checkRelation(t, step/4, r, m)
			checkLayout(t, step/4, r)
			for i, h := range held {
				if !h.unchanged() {
					t.Fatalf("step %d: an annotation taken at an earlier step (%d) changed", step/4, i)
				}
			}
			if got, ok := r.Annot(f, v); ok {
				held = append(held, hold(got))
			}
		}
		checkRelation(t, len(ops)/4, r, m)
		checkLayout(t, len(ops)/4, r)
	})
}
