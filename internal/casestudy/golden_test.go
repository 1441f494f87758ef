package casestudy

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"mddm/internal/core"
	"mddm/internal/dimension"
)

// goldenDigests pin what Generate(DefaultGen()) builds with seed 1 at each
// patient count: the sha256 of canonicalDump. The bench's data and its
// in-process oracle's both come from Generate, so a generator that drew
// or named differently would move both sides of every differential at
// once; only these digests would notice.
var goldenDigests = map[int]string{
	2000:  "8de9fc4a971ada84bb0a8f37caeec1dcf52713785968a3435bc7138a635060ea",
	40000: "088f047707a6f7344153190c0bc9e6cfd30d8b259c4690d3fdba87766e7075e7",
}

// canonicalDump writes an MO's observable state to h: the fact
// dictionary in dense-id order, then per schema dimension its categories
// (sorted values with their membership annotations and the category's
// version), its edges with annotations, and its relation's pairs in
// dictionary order with annotations.
func canonicalDump(h hash.Hash, m *core.MO) {
	fmt.Fprintf(h, "kind %v\n", m.Kind())
	dict := m.Facts().Dict()
	for i := 0; i < dict.Len(); i++ {
		fmt.Fprintf(h, "fact %d %s %v\n", i, dict.At(uint32(i)), m.Facts().HasDense(uint32(i)))
	}
	annot := func(a dimension.Annot) string {
		return fmt.Sprintf("%v|%v|%v", a.Time.Valid, a.Time.Trans, a.Prob)
	}
	for _, name := range m.Schema().DimensionNames() {
		d := m.Dimension(name)
		fmt.Fprintf(h, "dim %s\n", name)
		for _, cat := range d.Type().CategoryTypes() {
			fmt.Fprintf(h, "cat %s v%d\n", cat, d.CategoryVersion(cat))
			for _, v := range d.Category(cat) {
				a, _ := d.Membership(v)
				fmt.Fprintf(h, "val %s %s\n", v, annot(a))
			}
		}
		for _, e := range d.Edges() {
			fmt.Fprintf(h, "edge %s %s %s\n", e.Child, e.Parent, annot(e.Annot))
		}
		m.Relation(name).Range(func(f, v string, a dimension.Annot) bool {
			fmt.Fprintf(h, "pair %s %s %s\n", f, v, annot(a))
			return true
		})
	}
}

// TestGenerateGolden checks that Generate still builds, byte for byte,
// the model it built when the digests were recorded.
func TestGenerateGolden(t *testing.T) {
	for _, n := range []int{2000, 40000} {
		if n > 2000 && testing.Short() {
			continue
		}
		cfg := DefaultGen()
		cfg.Patients = n
		m, err := Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		h := sha256.New()
		canonicalDump(h, m)
		if got := hex.EncodeToString(h.Sum(nil)); got != goldenDigests[n] {
			t.Errorf("Generate at %d patients: digest %s, want %s", n, got, goldenDigests[n])
		}
	}
}
