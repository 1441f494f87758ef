package core_test

import (
	"strings"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/fact"
	"mddm/internal/temporal"
)

func factOf(id string) fact.Fact { return fact.NewFact(id) }

var ref = temporal.MustDate("01/01/1999")

func ctx() dimension.Context { return dimension.CurrentContext(ref) }

func patientMO(t *testing.T) *core.MO {
	t.Helper()
	m, err := casestudy.BuildPatientMO(casestudy.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestExample8PatientMO(t *testing.T) {
	m := patientMO(t)
	if got := m.Schema().FactType(); got != "Patient" {
		t.Errorf("fact type = %q", got)
	}
	if n := m.Schema().NumDimensions(); n != 6 {
		t.Errorf("dimensions = %d, want 6", n)
	}
	if got := m.Facts().IDs(); strings.Join(got, ",") != "1,2" {
		t.Errorf("F = %v, want {1,2}", got)
	}
	if m.Kind() != core.ValidTime {
		t.Errorf("kind = %v", m.Kind())
	}
	if err := m.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestExample7FactDimensionRelation(t *testing.T) {
	m := patientMO(t)
	r := m.Relation(casestudy.DimDiagnosis)
	// R = {(1,9), (2,3), (2,5), (2,8), (2,9)} — note fact 1 is related to
	// value 9 in the Diagnosis Family category (mixed granularity).
	wantPairs := [][2]string{{"1", "9"}, {"2", "3"}, {"2", "5"}, {"2", "8"}, {"2", "9"}}
	ps := r.Pairs()
	if len(ps) != len(wantPairs) {
		t.Fatalf("pairs = %v", ps)
	}
	for i, w := range wantPairs {
		if ps[i].FactID != w[0] || ps[i].ValueID != w[1] {
			t.Errorf("pair %d = (%s,%s), want (%s,%s)", i, ps[i].FactID, ps[i].ValueID, w[0], w[1])
		}
	}
	d := m.Dimension(casestudy.DimDiagnosis)
	if cat, _ := d.CategoryOf("9"); cat != casestudy.CatFamily {
		t.Errorf("9 is in %q, want Diagnosis Family", cat)
	}
}

func TestCharacterizedBy(t *testing.T) {
	m := patientMO(t)
	c := ctx()
	// Patient 1 has diagnosis 9 (family), so 1 ⤳ 11 (group) via 9 ⊑ 11.
	if ok, _ := m.CharacterizedBy(casestudy.DimDiagnosis, "1", "11", c); !ok {
		t.Error("1 ⤳ 11 must hold")
	}
	// Patient 1 is not characterized by group 12.
	if ok, _ := m.CharacterizedBy(casestudy.DimDiagnosis, "1", "12", c); ok {
		t.Error("1 ⤳ 12 must not hold")
	}
	// Patient 2 had old low-level 3 ⊑ 7 ⊑ … — 2 ⤳ 7 via 3.
	if ok, _ := m.CharacterizedBy(casestudy.DimDiagnosis, "2", "7", c); !ok {
		t.Error("2 ⤳ 7 must hold")
	}
	// Everything is characterized by ⊤.
	if ok, _ := m.CharacterizedBy(casestudy.DimDiagnosis, "1", dimension.TopValue, c); !ok {
		t.Error("1 ⤳ ⊤ must hold")
	}
	// Unknown dimension.
	if ok, _ := m.CharacterizedBy("Nope", "1", "11", c); ok {
		t.Error("unknown dimension must not characterize")
	}
}

func TestCharacterizationTime(t *testing.T) {
	m := patientMO(t)
	// Patient 2 ⤳ 11 (new Diabetes group): via (2,8) ∈[01/01/70-31/12/81]
	// and 8 ⊑[80-NOW] 11 → [80-81]; via (2,5) ∈[01/01/82-30/09/82] and
	// 5 ⊑ 9 ⊑ 11 → [01/01/82-30/09/82]; via (2,9) ∈[82-NOW] and 9 ⊑ 11 →
	// [82-NOW]. Union: [01/01/80 - NOW].
	el, _ := m.CharacterizationTime(casestudy.DimDiagnosis, "2", "11", ctx())
	if want := "[01/01/1980 - NOW]"; el.String() != want {
		t.Errorf("2 ⤳ 11 during %v, want %v", el, want)
	}
	// Patient 1 ⤳ 11 only from 1989 (diagnosis made then).
	el1, _ := m.CharacterizationTime(casestudy.DimDiagnosis, "1", "11", ctx())
	if want := "[01/01/1989 - NOW]"; el1.String() != want {
		t.Errorf("1 ⤳ 11 during %v, want %v", el1, want)
	}
}

func TestEnsureTotalAndValidate(t *testing.T) {
	s := core.MustSchema("F", dimension.MustDimensionType("D", dimension.Constant, dimension.KindString, "Bottom"))
	m := core.NewMO(s)
	m.AddFact(factOf("f1"))
	if err := m.Validate(); err == nil {
		t.Error("missing characterization must fail validation")
	}
	m.EnsureTotal()
	if err := m.Validate(); err != nil {
		t.Errorf("after EnsureTotal: %v", err)
	}
	// f1 is characterized by ⊤ now.
	if ok, _ := m.CharacterizedBy("D", "f1", dimension.TopValue, ctx()); !ok {
		t.Error("f1 ⤳ ⊤ must hold after EnsureTotal")
	}
}

// TestValidateReportsSmallestUncharacterized pins which fact Validate
// names when several lack a value: the smallest id, whatever order the
// facts were added in.
func TestValidateReportsSmallestUncharacterized(t *testing.T) {
	s := core.MustSchema("F", dimension.MustDimensionType("D", dimension.Constant, dimension.KindString, "Bottom"))
	m := core.NewMO(s)
	for _, id := range []string{"f9", "f3", "f10", "f5"} {
		m.AddFact(factOf(id))
	}
	if err := m.Relate("D", "f3", dimension.TopValue); err != nil {
		t.Fatal(err)
	}
	err := m.Validate()
	if err == nil || !strings.Contains(err.Error(), `fact "f10" has no value`) {
		t.Errorf("Validate = %v, want the smallest uncharacterized fact f10 named", err)
	}
}

func TestRelateValidation(t *testing.T) {
	s := core.MustSchema("F", dimension.MustDimensionType("D", dimension.Constant, dimension.KindString, "Bottom"))
	m := core.NewMO(s)
	if err := m.Relate("Nope", "f", "v"); err == nil {
		t.Error("unknown dimension must be rejected")
	}
	if err := m.Relate("D", "f", "missing"); err == nil {
		t.Error("unknown value must be rejected")
	}
	if err := m.Dimension("D").AddValue("Bottom", "v"); err != nil {
		t.Fatal(err)
	}
	if err := m.Relate("D", "f", "v"); err != nil {
		t.Fatal(err)
	}
	if !m.Facts().Has("f") {
		t.Error("Relate must add new facts")
	}
}

func TestMOCloneEqual(t *testing.T) {
	m := patientMO(t)
	c := m.Clone()
	if !m.Equal(c) {
		t.Error("clone must equal original")
	}
	c.AddFact(factOf("3"))
	if m.Equal(c) {
		t.Error("mutated clone must differ")
	}
	sh := m.ShallowCloneSharing()
	if !m.Equal(sh) {
		t.Error("sharing clone must equal original")
	}
	if sh.Dimension(casestudy.DimDiagnosis) != m.Dimension(casestudy.DimDiagnosis) {
		t.Error("sharing clone must share dimension pointers")
	}
}

func TestSchemaOps(t *testing.T) {
	s := casestudy.PatientSchema()
	names := s.DimensionNames()
	if strings.Join(names, ",") != "Diagnosis,DOB,Residence,Name,SSN,Age" {
		t.Errorf("names = %v", names)
	}
	p, err := s.Project("Diagnosis", "Age")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumDimensions() != 2 || p.FactType() != "Patient" {
		t.Error("projection wrong")
	}
	if _, err := s.Project("Nope"); err == nil {
		t.Error("unknown dimension must be rejected")
	}
	if !s.Equal(casestudy.PatientSchema()) {
		t.Error("identically built schemas must be equal")
	}
	if s.Equal(p) {
		t.Error("projected schema must differ")
	}
	if !s.Isomorphic(casestudy.PatientSchema()) {
		t.Error("isomorphism must hold")
	}
	if s.DimensionType("Age") == nil {
		t.Error("DimensionType lookup failed")
	}
	sorted := s.SortedDimensionNames()
	if sorted[0] != "Age" {
		t.Errorf("sorted = %v", sorted)
	}
}

func TestSchemaValidation(t *testing.T) {
	if _, err := core.NewSchema(""); err == nil {
		t.Error("empty fact type must be rejected")
	}
	d := dimension.MustDimensionType("D", dimension.Constant, dimension.KindString, "B")
	if _, err := core.NewSchema("F", d, d); err == nil {
		t.Error("duplicate dimension type must be rejected")
	}
	unfinished := dimension.NewDimensionType("U")
	if err := unfinished.AddCategoryType("B", dimension.Constant, dimension.KindString); err != nil {
		t.Fatal(err)
	}
	if _, err := core.NewSchema("F", unfinished); err == nil {
		t.Error("unfinalized dimension type must be rejected")
	}
}

func TestFamilyShared(t *testing.T) {
	fam := core.NewFamily()
	m1 := patientMO(t)
	m2 := core.NewMO(casestudy.PatientSchema())
	if err := fam.Add("patients", m1); err != nil {
		t.Fatal(err)
	}
	if err := fam.Add("admissions", m2); err != nil {
		t.Fatal(err)
	}
	if err := fam.Add("patients", m1); err == nil {
		t.Error("duplicate MO name must be rejected")
	}
	shared := m1.Dimension(casestudy.DimDiagnosis)
	err := fam.Share("diagnosis", shared, map[string]string{
		"patients":   casestudy.DimDiagnosis,
		"admissions": casestudy.DimDiagnosis,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m2.Dimension(casestudy.DimDiagnosis) != shared {
		t.Error("shared dimension must be the same pointer")
	}
	// A change through one MO is visible through the other.
	if err := shared.AddValue(casestudy.CatGroup, "99"); err != nil {
		t.Fatal(err)
	}
	if !m2.Dimension(casestudy.DimDiagnosis).Has("99") {
		t.Error("shared update must be visible")
	}
	if fam.Shared("diagnosis") != shared {
		t.Error("Shared lookup failed")
	}
	if got := fam.Names(); strings.Join(got, ",") != "admissions,patients" {
		t.Errorf("Names = %v", got)
	}
	if got := fam.SharedNames(); strings.Join(got, ",") != "diagnosis" {
		t.Errorf("SharedNames = %v", got)
	}
}

func TestRenderMOAndSchema(t *testing.T) {
	m := patientMO(t)
	out := m.Render()
	for _, want := range []string{"fact type Patient", "F = {1, 2}", "R[Diagnosis]", "(2, 9)"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
	schema := m.Schema().RenderSchema()
	for _, want := range []string{"Fact type: Patient", "Low-level Diagnosis = ⊥", "Day = ⊥"} {
		if !strings.Contains(schema, want) {
			t.Errorf("schema render missing %q", want)
		}
	}
	dot := m.Schema().DOTSchema()
	if !strings.Contains(dot, "digraph schema") || !strings.Contains(dot, "cluster_") {
		t.Error("DOT schema malformed")
	}
}

func TestTemporalKindString(t *testing.T) {
	kinds := map[core.TemporalKind]string{
		core.Snapshot: "snapshot", core.ValidTime: "valid-time",
		core.TransactionTime: "transaction-time", core.Bitemporal: "bitemporal",
	}
	for k, want := range kinds {
		if k.String() != want {
			t.Errorf("%d = %q", k, k.String())
		}
	}
	if !strings.Contains(core.TemporalKind(42).String(), "42") {
		t.Error("unknown kind must render number")
	}
}

func TestFamilyMOAndSetRelation(t *testing.T) {
	fam := core.NewFamily()
	m := patientMO(t)
	if err := fam.Add("p", m); err != nil {
		t.Fatal(err)
	}
	if fam.MO("p") != m || fam.MO("missing") != nil {
		t.Error("MO lookup wrong")
	}
	if err := fam.Add("", m); err == nil {
		t.Error("empty name must be rejected")
	}
	// SetRelation validation.
	r := fact.NewRelation()
	r.Add("1", "9")
	if err := m.SetRelation(casestudy.DimDiagnosis, r); err != nil {
		t.Fatal(err)
	}
	if m.Relation(casestudy.DimDiagnosis).Len() != 1 {
		t.Error("SetRelation must replace")
	}
	if err := m.SetRelation("Nope", r); err == nil {
		t.Error("unknown dimension must be rejected")
	}
	if err := m.SetDimension("Nope", m.Dimension(casestudy.DimAge)); err == nil {
		t.Error("unknown dimension must be rejected in SetDimension")
	}
	if err := m.SetDimension(casestudy.DimAge, m.Dimension(casestudy.DimDiagnosis)); err == nil {
		t.Error("incompatible dimension type must be rejected")
	}
	// Sharing by unknown MO.
	if err := fam.Share("x", m.Dimension(casestudy.DimAge), map[string]string{"ghost": "Age"}); err == nil {
		t.Error("unknown MO in Share must be rejected")
	}
	if err := fam.Share("y", m.Dimension(casestudy.DimAge), map[string]string{"p": casestudy.DimAge}); err != nil {
		t.Fatal(err)
	}
	if err := fam.Share("y", m.Dimension(casestudy.DimAge), nil); err == nil {
		t.Error("duplicate shared name must be rejected")
	}
}

// TestMODictShared pins the MO's one fact dictionary: InsertFact interns a
// new fact once for the fact set and every relation, and writes nothing
// when a pair fails or the fact is held; SetRelation re-keys a relation
// built over another dictionary into the MO's; and a clone numbers its
// facts in a dictionary of its own.
func TestMODictShared(t *testing.T) {
	m := patientMO(t)
	d := m.Facts().Dict()
	n := d.Len()
	low := m.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)[0]
	good := core.Pair{Dim: casestudy.DimDiagnosis, Value: low, Annot: dimension.Always()}
	bad := core.Pair{Dim: casestudy.DimResidence, Value: "no-such-area", Annot: dimension.Always()}
	if err := m.InsertFact("3", good, bad); err == nil {
		t.Fatal("a pair naming an unknown value must fail")
	}
	if d.Len() != n || m.Facts().Has("3") || m.Relation(casestudy.DimDiagnosis).Has("3", low) {
		t.Fatalf("a failed insert wrote: dictionary %d of %d", d.Len(), n)
	}
	if err := m.InsertFact("3", good); err != nil {
		t.Fatal(err)
	}
	if err := m.InsertFact("3", good); err == nil {
		t.Fatal("inserting a fact F holds must fail")
	}
	if d.Len() != n+1 || !m.Facts().Has("3") || !m.Relation(casestudy.DimDiagnosis).Has("3", low) {
		t.Fatalf("insert: dictionary %d, want %d", d.Len(), n+1)
	}

	r := fact.NewRelation()
	r.Add("3", low)
	r.Add("1", low)
	if err := m.SetRelation(casestudy.DimDiagnosis, r); err != nil {
		t.Fatal(err)
	}
	got := m.Relation(casestudy.DimDiagnosis)
	if d.Len() != n+1 || !got.Has("1", low) || !got.Has("3", low) || got.Len() != 2 {
		t.Fatalf("re-keyed relation: dictionary %d, pairs %v", d.Len(), got.Pairs())
	}
	got.Add("4", low) // the MO's dictionary numbers what its relations add
	if i, ok := d.Lookup("4"); !ok || int(i) != n+1 {
		t.Fatalf("fact 4 numbered %d/%v in the MO's dictionary", i, ok)
	}

	c := m.Clone()
	if err := c.Relate(casestudy.DimDiagnosis, "5", low); err != nil {
		t.Fatal(err)
	}
	if _, ok := d.Lookup("5"); ok || m.Facts().Has("5") || !c.Facts().Has("5") {
		t.Fatal("a clone's write reached the original's dictionary")
	}
	if !c.Relation(casestudy.DimDiagnosis).Has("4", low) || !c.Relation(casestudy.DimDiagnosis).Has("5", low) {
		t.Fatal("the clone's relation lost or missed a pair")
	}
}
