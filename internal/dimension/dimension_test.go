package dimension

import (
	"strings"
	"testing"

	"mddm/internal/temporal"
)

var ref = temporal.MustDate("04/07/2026")

func ctx() Context { return CurrentContext(ref) }

// diagnosisDim builds the Diagnosis dimension instance of Example 4 from
// Table 1: Low-level = {3,5,6}, Family = {4,7,8,9,10}, Group = {11,12},
// with the Grouping table's annotated partial order and, per Example 10,
// the cross-classification link 8 ⊑ 11 valid [01/01/80 - NOW].
func diagnosisDim(t *testing.T) *Dimension {
	t.Helper()
	d := New(diagnosisType(t))
	members := []struct {
		cat, id, from, to string
	}{
		{"Low-level Diagnosis", "3", "01/01/70", "31/12/79"},
		{"Low-level Diagnosis", "5", "01/01/80", "NOW"},
		{"Low-level Diagnosis", "6", "01/01/80", "NOW"},
		{"Diagnosis Family", "4", "01/01/80", "NOW"},
		{"Diagnosis Family", "7", "01/01/70", "31/12/79"},
		{"Diagnosis Family", "8", "01/10/70", "31/12/79"},
		{"Diagnosis Family", "9", "01/01/80", "NOW"},
		{"Diagnosis Family", "10", "01/01/80", "NOW"},
		{"Diagnosis Group", "11", "01/01/80", "NOW"},
		{"Diagnosis Group", "12", "01/10/80", "NOW"},
	}
	for _, m := range members {
		if err := d.AddValueAnnot(m.cat, m.id, ValidDuring(temporal.Span(m.from, m.to))); err != nil {
			t.Fatal(err)
		}
	}
	edges := []struct {
		parent, child, from, to string
	}{
		{"4", "5", "01/01/80", "NOW"},
		{"4", "6", "01/01/80", "NOW"},
		{"7", "3", "01/01/70", "31/12/79"},
		{"8", "3", "01/01/70", "31/12/79"},
		{"9", "5", "01/01/80", "NOW"},
		{"10", "6", "01/01/80", "NOW"},
		{"11", "9", "01/01/80", "NOW"},
		{"11", "10", "01/01/80", "NOW"},
		{"12", "4", "01/01/80", "NOW"},
		// Example 10: old "Diabetes" is contained in new "Diabetes" from 1980 on.
		{"11", "8", "01/01/80", "NOW"},
	}
	for _, e := range edges {
		if err := d.AddEdgeAnnot(e.child, e.parent, ValidDuring(temporal.Span(e.from, e.to))); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

func TestExample4Categories(t *testing.T) {
	d := diagnosisDim(t)
	cases := map[string][]string{
		"Low-level Diagnosis": {"3", "5", "6"},
		"Diagnosis Family":    {"10", "4", "7", "8", "9"},
		"Diagnosis Group":     {"11", "12"},
		TopName:               {TopValue},
	}
	for cat, want := range cases {
		got := d.Category(cat)
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Errorf("%s = %v, want %v", cat, got, want)
		}
	}
	if d.NumValues() != 11 {
		t.Errorf("NumValues = %d, want 11 (10 diagnoses + ⊤)", d.NumValues())
	}
}

func TestLessEqBasics(t *testing.T) {
	d := diagnosisDim(t)
	c := ctx()
	for _, pair := range [][2]string{{"5", "4"}, {"5", "9"}, {"5", "11"}, {"9", "11"}, {"3", "7"}, {"3", "8"}, {"8", "11"}, {"3", "11"}} {
		if ok, _ := d.LessEq(pair[0], pair[1], c); !ok {
			t.Errorf("%s ⊑ %s must hold", pair[0], pair[1])
		}
	}
	for _, pair := range [][2]string{{"4", "5"}, {"11", "5"}, {"6", "9"}, {"12", "11"}} {
		if ok, _ := d.LessEq(pair[0], pair[1], c); ok {
			t.Errorf("%s ⊑ %s must not hold", pair[0], pair[1])
		}
	}
	// Reflexivity and ⊤.
	if ok, _ := d.LessEq("5", "5", c); !ok {
		t.Error("reflexivity fails")
	}
	if ok, _ := d.LessEq("5", TopValue, c); !ok {
		t.Error("e ⊑ ⊤ fails")
	}
	if ok, _ := d.LessEq("nope", "5", c); ok {
		t.Error("unknown value must not be ⊑ anything")
	}
}

func TestExample9TemporalOrder(t *testing.T) {
	d := diagnosisDim(t)
	// 7 ⊑[01/01/70 - 31/12/79] 3 — in our edge direction, 3 ⊑ 7 during the 70s.
	el, p := d.LessEqTime("3", "7", ctx())
	if want := "[01/01/1970 - 31/12/1979]"; el.String() != want {
		t.Errorf("LessEqTime(3,7) = %v, want %v", el, want)
	}
	if p != 1 {
		t.Errorf("prob = %v", p)
	}
	// At an instant in 1975 the containment holds; in 1985 it does not.
	if ok, _ := d.LessEq("3", "7", ctx().AtValid(temporal.MustDate("15/06/75"))); !ok {
		t.Error("3 ⊑ 7 must hold during 1975")
	}
	if ok, _ := d.LessEq("3", "7", ctx().AtValid(temporal.MustDate("15/06/85"))); ok {
		t.Error("3 ⊑ 7 must not hold during 1985")
	}
}

func TestExample10ChangeLink(t *testing.T) {
	d := diagnosisDim(t)
	// From 1980 on, old Diabetes (8) is contained in new Diabetes group (11).
	el, _ := d.LessEqTime("8", "11", ctx())
	if want := "[01/01/1980 - NOW]"; el.String() != want {
		t.Errorf("LessEqTime(8,11) = %v, want %v", el, want)
	}
	// Transitively, old low-level 3 rolls into 11 only via 8's link, which
	// requires intersecting [70-79] (3 ⊑ 8) with [80-NOW] (8 ⊑ 11) — empty.
	el3, _ := d.LessEqTime("3", "11", ctx())
	if !el3.IsEmpty() {
		t.Errorf("3 ⊑ 11 should hold at no instant (disjoint path times), got %v", el3)
	}
	// Yet ignoring time (any-time evaluation), the path exists.
	if ok, _ := d.LessEq("3", "11", ctx()); !ok {
		t.Error("any-time reachability 3 ⊑ 11 must hold")
	}
}

func TestAncestorsDescendants(t *testing.T) {
	d := diagnosisDim(t)
	c := ctx()
	if got := d.AncestorsIn("Diagnosis Family", "5", c); strings.Join(got, ",") != "4,9" {
		t.Errorf("ancestors of 5 in Family = %v", got)
	}
	if got := d.AncestorsIn("Diagnosis Group", "5", c); strings.Join(got, ",") != "11,12" {
		t.Errorf("ancestors of 5 in Group = %v", got)
	}
	if got := d.DescendantsIn("Low-level Diagnosis", "11", c); strings.Join(got, ",") != "3,5,6" {
		t.Errorf("descendants of 11 = %v", got)
	}
	if got := d.DescendantsIn("Diagnosis Family", "12", c); strings.Join(got, ",") != "4" {
		t.Errorf("descendants of 12 in Family = %v", got)
	}
	// At a 1975 instant, 5 has no ancestors (not yet a member).
	got := d.AncestorsIn("Diagnosis Group", "5", c.AtValid(temporal.MustDate("15/06/75")))
	if len(got) != 0 {
		t.Errorf("1975 ancestors of 5 = %v", got)
	}
}

func TestExample11Properties(t *testing.T) {
	// The full diagnosis hierarchy is non-strict (5 is in families 4 and 9)
	// but partitioning.
	d := diagnosisDim(t)
	if d.IsStrict() {
		t.Error("diagnosis hierarchy must be non-strict")
	}
	// Example 11 calls the diagnosis hierarchy partitioning. Snapshot at any
	// instant this holds (the 1970s families predate the group level, which
	// is then uninhabited and so constrains nothing). Evaluated over all
	// time at once, family 7 never gains a group parent, so the literal
	// any-time reading of Definition 3 fails — the snapshot variant is the
	// meaningful one for temporal data.
	if !d.IsSnapshotPartitioning(ref) {
		t.Error("diagnosis hierarchy must be snapshot partitioning")
	}
	if d.IsPartitioning() {
		t.Error("any-time evaluation sees family 7 without a group parent")
	}

	// Residence: Area < County < Region is strict and partitioning.
	rt := MustDimensionType("Residence", Constant, KindString, "Area", "County", "Region")
	r := New(rt)
	for _, v := range []struct{ cat, id string }{
		{"Area", "A1"}, {"Area", "A2"}, {"Area", "A3"},
		{"County", "C1"}, {"County", "C2"},
		{"Region", "R1"},
	} {
		if err := r.AddValue(v.cat, v.id); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range [][2]string{{"A1", "C1"}, {"A2", "C1"}, {"A3", "C2"}, {"C1", "R1"}, {"C2", "R1"}} {
		if err := r.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	if !r.IsStrict() || !r.IsPartitioning() {
		t.Error("residence hierarchy must be strict and partitioning")
	}
	if !r.IsSnapshotStrict(ref) || !r.IsSnapshotPartitioning(ref) {
		t.Error("residence hierarchy must be snapshot strict and partitioning")
	}

	// The WHO-only restriction of the diagnosis hierarchy is snapshot strict
	// and snapshot partitioning: drop the user-defined edges (8⊇3, 9⊇5,
	// 10⊇6) and the Example 10 link.
	who := New(diagnosisType(t))
	members := []struct{ cat, id, from, to string }{
		{"Low-level Diagnosis", "3", "01/01/70", "31/12/79"},
		{"Low-level Diagnosis", "5", "01/01/80", "NOW"},
		{"Low-level Diagnosis", "6", "01/01/80", "NOW"},
		{"Diagnosis Family", "4", "01/01/80", "NOW"},
		{"Diagnosis Family", "7", "01/01/70", "31/12/79"},
		{"Diagnosis Group", "11", "01/01/80", "NOW"},
		{"Diagnosis Group", "12", "01/10/80", "NOW"},
		{"Diagnosis Family", "9", "01/01/80", "NOW"},
		{"Diagnosis Family", "10", "01/01/80", "NOW"},
	}
	for _, m := range members {
		if err := who.AddValueAnnot(m.cat, m.id, ValidDuring(temporal.Span(m.from, m.to))); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct{ parent, child, from, to string }{
		{"4", "5", "01/01/80", "NOW"},
		{"4", "6", "01/01/80", "NOW"},
		{"7", "3", "01/01/70", "31/12/79"},
		{"11", "9", "01/01/80", "NOW"},
		{"11", "10", "01/01/80", "NOW"},
		{"12", "4", "01/01/80", "NOW"},
	} {
		if err := who.AddEdgeAnnot(e.child, e.parent, ValidDuring(temporal.Span(e.from, e.to))); err != nil {
			t.Fatal(err)
		}
	}
	if !who.IsSnapshotStrict(ref) {
		t.Error("WHO sub-hierarchy must be snapshot strict")
	}
	if !who.IsSnapshotPartitioning(ref) {
		t.Error("WHO sub-hierarchy must be snapshot partitioning")
	}
	// Over all time it is still strict here; non-strictness came from the
	// user-defined hierarchy.
	if !who.IsStrict() {
		t.Error("WHO sub-hierarchy must be strict")
	}
}

func TestExample5SubDimension(t *testing.T) {
	d := diagnosisDim(t)
	sub, err := d.SubDimension("Diagnosis'", "Diagnosis Group")
	if err != nil {
		t.Fatal(err)
	}
	if got := sub.Category("Diagnosis Group"); strings.Join(got, ",") != "11,12" {
		t.Errorf("sub categories = %v", got)
	}
	if sub.Has("5") || sub.Has("9") {
		t.Error("lower categories must be dropped")
	}
	if sub.Type().Bottom() != "Diagnosis Group" {
		t.Errorf("sub bottom = %q", sub.Type().Bottom())
	}
}

func TestSubDimensionContractsEdges(t *testing.T) {
	d := diagnosisDim(t)
	// Keep Low-level and Group: 5 ⊑ 11 must survive with intersected time
	// through 9 ([80-NOW] ∩ [80-NOW]).
	sub, err := d.SubDimension("Diagnosis''", "Low-level Diagnosis", "Diagnosis Group")
	if err != nil {
		t.Fatal(err)
	}
	a, ok := sub.EdgeAnnot("5", "11")
	if !ok {
		t.Fatal("contracted edge 5 ⊑ 11 missing")
	}
	if want := "[01/01/1980 - NOW]"; a.Time.Valid.String() != want {
		t.Errorf("contracted time = %v, want %v", a.Time.Valid, want)
	}
	// 3 reaches 11 only via the time-disjoint path; the contracted edge, if
	// present, must carry an empty annotation — our builder drops it.
	if _, ok := sub.EdgeAnnot("3", "11"); ok {
		t.Error("time-disjoint contracted edge must be dropped")
	}
}

func TestExample6Representations(t *testing.T) {
	d := diagnosisDim(t)
	code, err := d.AddRepresentation("Code", "")
	if err != nil {
		t.Fatal(err)
	}
	text, err := d.AddRepresentation("Text", "")
	if err != nil {
		t.Fatal(err)
	}
	// Per Table 1: ID 4 has code O24, text "Diabetes, pregnancy".
	if err := code.MapAnnot("4", "O24", ValidDuring(temporal.Span("01/01/80", "NOW"))); err != nil {
		t.Fatal(err)
	}
	if err := text.MapAnnot("4", "Diabetes, pregnancy", ValidDuring(temporal.Span("01/01/80", "NOW"))); err != nil {
		t.Fatal(err)
	}
	if err := code.MapAnnot("8", "D1", ValidDuring(temporal.Span("01/10/70", "31/12/79"))); err != nil {
		t.Fatal(err)
	}
	c := ctx()
	if v, ok := code.RepOf("4", c); !ok || v != "O24" {
		t.Errorf("Code(4) = %q, %v", v, ok)
	}
	if id, ok := code.IDOf("O24", c); !ok || id != "4" {
		t.Errorf("IDOf(O24) = %q, %v", id, ok)
	}
	// Example 9: Code(8) =[01/01/70-31/12/79] D1 (Table 1 uses 01/10/70).
	if got := code.RepTime("8", "D1").String(); got != "[01/10/1970 - 31/12/1979]" {
		t.Errorf("RepTime = %v", got)
	}
	// Bijectivity at an instant: 4 cannot get a second code at an
	// overlapping time…
	if err := code.MapAnnot("4", "X99", ValidDuring(temporal.Span("01/01/90", "NOW"))); err == nil {
		t.Error("overlapping second code must be rejected")
	}
	// …but reusing code O24 for another value at disjoint time is fine.
	if err := code.MapAnnot("3", "O24", ValidDuring(temporal.Span("01/01/70", "31/12/79"))); err != nil {
		t.Errorf("disjoint reuse must be accepted: %v", err)
	}
	// And a lookup at a 1975 instant sees the old owner of the code.
	if id, ok := code.IDOf("O24", c.AtValid(temporal.MustDate("15/06/75"))); !ok || id != "3" {
		t.Errorf("IDOf(O24)@1975 = %q, %v", id, ok)
	}
	if names := d.Representations(); strings.Join(names, ",") != "Code,Text" {
		t.Errorf("Representations = %v", names)
	}
}

func TestDimensionUnion(t *testing.T) {
	a := New(diagnosisType(t))
	b := New(diagnosisType(t))
	if err := a.AddValueAnnot("Diagnosis Family", "8", ValidDuring(temporal.Span("01/01/70", "31/12/74"))); err != nil {
		t.Fatal(err)
	}
	if err := b.AddValueAnnot("Diagnosis Family", "8", ValidDuring(temporal.Span("01/01/75", "31/12/79"))); err != nil {
		t.Fatal(err)
	}
	if err := b.AddValueAnnot("Diagnosis Group", "11", ValidDuring(temporal.Span("01/01/80", "NOW"))); err != nil {
		t.Fatal(err)
	}
	if err := b.AddEdgeAnnot("8", "11", ValidDuring(temporal.Span("01/01/80", "NOW"))); err != nil {
		t.Fatal(err)
	}
	u, err := a.Union(b)
	if err != nil {
		t.Fatal(err)
	}
	// Common value 8: membership chronon sets union (and coalesce).
	m, _ := u.Membership("8")
	if want := "[01/01/1970 - 31/12/1979]"; m.Time.Valid.String() != want {
		t.Errorf("union membership = %v, want %v", m.Time.Valid, want)
	}
	if !u.Has("11") {
		t.Error("value from second operand missing")
	}
	if _, ok := u.EdgeAnnot("8", "11"); !ok {
		t.Error("edge from second operand missing")
	}
	// Union with a structurally different type fails.
	other := New(dobType(t))
	if _, err := a.Union(other); err == nil {
		t.Error("union across non-isomorphic types must fail")
	}
}

func TestDimensionEqualClone(t *testing.T) {
	d := diagnosisDim(t)
	c := d.Clone()
	if !d.Equal(c) {
		t.Error("clone must be equal")
	}
	if err := c.AddValue("Low-level Diagnosis", "99"); err != nil {
		t.Fatal(err)
	}
	if d.Equal(c) {
		t.Error("mutated clone must differ")
	}
	if d.Has("99") {
		t.Error("clone mutation must not leak into the original")
	}
}

func TestRemoveValue(t *testing.T) {
	d := diagnosisDim(t)
	if err := d.RemoveValue("9"); err != nil {
		t.Fatal(err)
	}
	if d.Has("9") {
		t.Error("value must be gone")
	}
	// 5 must no longer reach 11 via 9, but still via 4 → 12; the direct
	// edge list of 5 must not mention 9.
	for _, p := range d.Parents("5") {
		if p == "9" {
			t.Error("edge to removed value must be gone")
		}
	}
	if err := d.RemoveValue(TopValue); err == nil {
		t.Error("⊤ must not be removable")
	}
	if err := d.RemoveValue("nope"); err == nil {
		t.Error("unknown value must error")
	}
}

func TestNumeric(t *testing.T) {
	at := MustDimensionType("Age", Sum, KindInt, "Age", "Five-year Group", "Ten-year Group")
	a := New(at)
	if err := a.AddValue("Age", "37"); err != nil {
		t.Fatal(err)
	}
	if v, ok := a.Numeric("37", ctx()); !ok || v != 37 {
		t.Errorf("Numeric = %v, %v", v, ok)
	}
	if _, ok := a.Numeric(TopValue, ctx()); ok {
		t.Error("⊤ has no numeric value")
	}
	// A "Value" representation overrides the id.
	rep, err := a.AddRepresentation("Value", "Age")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.AddValue("Age", "patient-age-1"); err != nil {
		t.Fatal(err)
	}
	if err := rep.Map("patient-age-1", "52"); err != nil {
		t.Fatal(err)
	}
	if v, ok := a.Numeric("patient-age-1", ctx()); !ok || v != 52 {
		t.Errorf("Numeric via rep = %v, %v", v, ok)
	}
}

func TestProbabilisticOrder(t *testing.T) {
	d := New(diagnosisType(t))
	for _, v := range []struct{ cat, id string }{
		{"Low-level Diagnosis", "5"},
		{"Diagnosis Family", "4"},
		{"Diagnosis Family", "9"},
		{"Diagnosis Group", "11"},
	} {
		if err := d.AddValue(v.cat, v.id); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.AddEdgeAnnot("5", "4", Always().WithProb(0.9)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdgeAnnot("5", "9", Always().WithProb(0.5)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdgeAnnot("9", "11", Always().WithProb(0.8)); err != nil {
		t.Fatal(err)
	}
	ok, p := d.LessEq("5", "11", ctx())
	if !ok || p != 0.5*0.8 {
		t.Errorf("prob path = %v %v, want 0.4", ok, p)
	}
	// With a threshold above the path product, the containment vanishes.
	if ok, _ := d.LessEq("5", "11", ctx().WithMinProb(0.6)); ok {
		t.Error("threshold must prune low-probability containment")
	}
	// Direct edge keeps its own probability.
	if ok, p := d.LessEq("5", "4", ctx().WithMinProb(0.6)); !ok || p != 0.9 {
		t.Errorf("direct = %v %v", ok, p)
	}
}

func TestEdgeValidation(t *testing.T) {
	d := diagnosisDim(t)
	// Same-category edges violate the category order.
	if err := d.AddEdge("4", "9"); err == nil {
		t.Error("same-category edge must be rejected")
	}
	// Downward edges violate the category order.
	if err := d.AddEdge("11", "5"); err == nil {
		t.Error("downward edge must be rejected")
	}
	// Unknown values.
	if err := d.AddEdge("nope", "11"); err == nil {
		t.Error("unknown child must be rejected")
	}
	if err := d.AddEdge("5", "nope"); err == nil {
		t.Error("unknown parent must be rejected")
	}
	// e ⊑ ⊤ is implicit and accepted as a no-op.
	if err := d.AddEdge("5", TopValue); err != nil {
		t.Errorf("edge to ⊤ must be a no-op, got %v", err)
	}
	// Duplicate values.
	if err := d.AddValue("Diagnosis Family", "4"); err == nil {
		t.Error("duplicate value must be rejected")
	}
	// The ⊤ category is closed.
	if err := d.AddValue(TopName, "x"); err == nil {
		t.Error("⊤ category must not accept values")
	}
}

func TestMergeDuplicateEdgesCoalesce(t *testing.T) {
	d := New(diagnosisType(t))
	if err := d.AddValue("Diagnosis Family", "8"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddValue("Diagnosis Group", "11"); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdgeAnnot("8", "11", ValidDuring(temporal.Span("01/01/80", "31/12/84"))); err != nil {
		t.Fatal(err)
	}
	if err := d.AddEdgeAnnot("8", "11", ValidDuring(temporal.Span("01/01/85", "NOW"))); err != nil {
		t.Fatal(err)
	}
	a, ok := d.EdgeAnnot("8", "11")
	if !ok {
		t.Fatal("edge missing")
	}
	// The two adjacent chronon sets coalesce into one maximal set — no
	// value-equivalent data.
	if want := "[01/01/1980 - NOW]"; a.Time.Valid.String() != want {
		t.Errorf("coalesced edge = %v, want %v", a.Time.Valid, want)
	}
	if len(d.Parents("8")) != 1 {
		t.Error("duplicate edges must merge")
	}
}

func TestRenderInstance(t *testing.T) {
	d := diagnosisDim(t)
	out := d.RenderInstance()
	for _, want := range []string{"dimension Diagnosis", "Diagnosis Group = {11, 12}", "5 ⊑ 4"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestAncestorsWalk(t *testing.T) {
	d := diagnosisDim(t)
	anc := d.Ancestors("5", ctx())
	got := map[string]bool{}
	for _, a := range anc {
		got[a] = true
	}
	for _, want := range []string{"4", "9", "11", "12"} {
		if !got[want] {
			t.Errorf("ancestors of 5 missing %s: %v", want, anc)
		}
	}
	if got["5"] || got[TopValue] {
		t.Error("Ancestors excludes the value itself and ⊤")
	}
	// Instant filtering prunes edges.
	at := ctx().AtValid(temporal.MustDate("15/06/75"))
	if len(d.Ancestors("5", at)) != 0 {
		t.Errorf("1975 ancestors of 5 = %v", d.Ancestors("5", at))
	}
}

func TestRepresentationEntries(t *testing.T) {
	d := New(diagnosisType(t))
	if err := d.AddValue("Diagnosis Group", "11"); err != nil {
		t.Fatal(err)
	}
	rep, err := d.AddRepresentation("Code", "Diagnosis Group")
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Map("11", "E1"); err != nil {
		t.Fatal(err)
	}
	es := rep.Entries()
	if len(es) != 1 || es[0].ID != "11" || es[0].Val != "E1" {
		t.Errorf("entries = %v", es)
	}
	// Clone keeps entries independent.
	c := d.Clone()
	if err := c.Representation("Code").Map("11", "X"); err == nil {
		t.Error("second code at overlapping time must be rejected in the clone too")
	}
}

// TestCoveringMatchesAncestorsIn pins Covering's one-walk-per-value probe
// to its definition — every admitted value of the lower category has a
// non-empty AncestorsIn in the upper one — on the temporal case hierarchy
// and on a probabilistic one where a threshold prunes paths, for every
// pair of categories and a spread of contexts.
func TestCoveringMatchesAncestorsIn(t *testing.T) {
	prob := New(diagnosisType(t))
	for _, v := range [][2]string{
		{"Low-level Diagnosis", "5"}, {"Low-level Diagnosis", "6"},
		{"Diagnosis Family", "4"}, {"Diagnosis Family", "9"}, {"Diagnosis Group", "11"},
	} {
		if err := prob.AddValue(v[0], v[1]); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []struct {
		child, parent string
		p             float64
	}{{"5", "4", 0.9}, {"5", "9", 0.5}, {"6", "9", 0.7}, {"9", "11", 0.8}} {
		if err := prob.AddEdgeAnnot(e.child, e.parent, Always().WithProb(e.p)); err != nil {
			t.Fatal(err)
		}
	}
	ctxs := []Context{
		ctx(),
		ctx().AtValid(temporal.MustDate("15/06/75")),
		ctx().AtValid(temporal.MustDate("15/06/85")),
		ctx().WithMinProb(0.45),
		ctx().WithMinProb(0.6),
		ctx().WithMinProb(0.75),
	}
	for name, d := range map[string]*Dimension{"temporal": diagnosisDim(t), "probabilistic": prob} {
		cats := d.Type().CategoryTypes()
		for _, c2 := range cats {
			for _, c1 := range cats {
				for ci, c := range ctxs {
					// Covering filters the lower category by membership only
					// under a valid-time context.
					ids := d.Category(c2)
					if c.Valid != nil {
						ids = d.CategoryAt(c2, c)
					}
					want := true
					for _, id := range ids {
						if c1 != TopName && len(d.AncestorsIn(c1, id, c)) == 0 {
							want = false
						}
					}
					if got := d.Covering(c2, c1, c); got != want {
						t.Errorf("%s: Covering(%s, %s) under context %d = %v, definition says %v", name, c2, c1, ci, got, want)
					}
				}
			}
		}
	}
}
