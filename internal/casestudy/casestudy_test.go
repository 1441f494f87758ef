package casestudy

import (
	"context"
	"runtime"
	"strings"
	"testing"

	"mddm/internal/dimension"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

func TestTable1Exact(t *testing.T) {
	// The embedded data must match the paper's Table 1 row for row.
	if len(Patients) != 2 || len(Has) != 5 || len(Diagnoses) != 10 || len(Groupings) != 9 {
		t.Fatalf("table sizes: %d %d %d %d", len(Patients), len(Has), len(Diagnoses), len(Groupings))
	}
	if Patients[0].Name != "John Doe" || Patients[0].SSN != "12345678" || Patients[0].DateOfBirth != "25/05/69" {
		t.Errorf("patient 1 = %+v", Patients[0])
	}
	if Patients[1].Name != "Jane Doe" || Patients[1].DateOfBirth != "20/03/50" {
		t.Errorf("patient 2 = %+v", Patients[1])
	}
	// Spot-check Has: patient 2's primary Diabetes (8) from 1970 to 1981.
	found := false
	for _, h := range Has {
		if h.PatientID == "2" && h.DiagnosisID == "8" {
			found = true
			if h.ValidFrom != "01/01/70" || h.ValidTo != "31/12/81" || h.Type != "Primary" {
				t.Errorf("Has(2,8) = %+v", h)
			}
		}
	}
	if !found {
		t.Error("Has row (2,8) missing")
	}
	// Diagnosis codes per the paper.
	codes := map[string]string{"3": "P11", "4": "O24", "5": "O24.0", "6": "O24.1", "7": "P1", "8": "D1", "9": "E10", "10": "E11", "11": "E1", "12": "O2"}
	for _, d := range Diagnoses {
		if codes[d.ID] != d.Code {
			t.Errorf("diagnosis %s code = %s, want %s", d.ID, d.Code, codes[d.ID])
		}
	}
	// Grouping types: exactly three user-defined rows (8⊇3, 9⊇5, 10⊇6).
	user := 0
	for _, g := range Groupings {
		if g.Type == "User-defined" {
			user++
		}
	}
	if user != 3 {
		t.Errorf("user-defined rows = %d, want 3", user)
	}
}

func TestRenderTable1(t *testing.T) {
	out := RenderTable1()
	for _, want := range []string{
		"Patient Table", "Has Table", "Diagnosis Table", "Grouping Table",
		"John Doe", "87654321", "Ins. dep. diab., pregn.", "User-defined",
		"01/01/89", "NOW",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 render missing %q", want)
		}
	}
}

func TestFigure1Render(t *testing.T) {
	out := RenderFigure1()
	for _, want := range []string{"Patient", "Diagnosis", "Has", "Lives in", "(0,n)", "(1,1)", "County grouping"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 1 render missing %q", want)
		}
	}
	dot := DOTFigure1()
	if !strings.Contains(dot, "graph er") || !strings.Contains(dot, "shape=diamond") {
		t.Error("Figure 1 DOT malformed")
	}
}

func TestFigure2Lattice(t *testing.T) {
	// Figure 2's structure: six dimensions with the stated category
	// lattices.
	s := PatientSchema()
	if got := strings.Join(s.DimensionNames(), ","); got != "Diagnosis,DOB,Residence,Name,SSN,Age" {
		t.Fatalf("dimensions = %v", got)
	}
	diag := s.DimensionType(DimDiagnosis)
	if diag.Bottom() != CatLowLevel {
		t.Errorf("⊥Diagnosis = %q", diag.Bottom())
	}
	if got := diag.Pred(CatFamily); len(got) != 1 || got[0] != CatGroup {
		t.Errorf("Pred(Family) = %v", got)
	}
	dob := s.DimensionType(DimDOB)
	// Day rolls up into weeks OR months (two hierarchies).
	if got := strings.Join(dob.Pred(CatDay), ","); got != "Month,Week" {
		t.Errorf("Pred(Day) = %v", got)
	}
	if got := strings.Join(dob.Pred(CatYear), ","); got != "Decade" {
		t.Errorf("Pred(Year) = %v", got)
	}
	// Week's only predecessor is ⊤ (weeks do not roll into months).
	if got := strings.Join(dob.Pred(CatWeek), ","); got != dimension.TopName {
		t.Errorf("Pred(Week) = %v", got)
	}
	age := s.DimensionType(DimAge)
	if age.Bottom() != CatAge || !age.LessEq(CatFiveYear, CatTenYear) {
		t.Error("Age lattice wrong")
	}
	// Name and SSN are simple.
	for _, n := range []string{DimName, DimSSN} {
		dt := s.DimensionType(n)
		if len(dt.CategoryTypes()) != 2 {
			t.Errorf("%s must be simple, got %v", n, dt.CategoryTypes())
		}
	}
	// Aggregation types per Example 3.
	if diag.AggTypeOf(CatLowLevel) != dimension.Constant {
		t.Error("Aggtype(Low-level Diagnosis) must be c")
	}
	if age.AggTypeOf(CatAge) != dimension.Sum {
		t.Error("Aggtype(Age) must be Σ")
	}
	if dob.AggTypeOf(CatDay) != dimension.Average {
		t.Error("Aggtype(DOB) must be φ")
	}
	// The render used for Figure 2.
	out := s.RenderSchema()
	for _, want := range []string{"Fact type: Patient", "Low-level Diagnosis = ⊥ (c)", "Day = ⊥ (φ)", "Age = ⊥ (Σ)"} {
		if !strings.Contains(out, want) {
			t.Errorf("Figure 2 render missing %q:\n%s", want, out)
		}
	}
}

func TestDateHierarchyHelpers(t *testing.T) {
	c := temporal.MustDate("25/05/69")
	if DayID(c) != "1969-05-25" || MonthID(c) != "1969-05" || QuarterID(c) != "1969-Q2" ||
		YearID(c) != "1969" || DecadeID(c) != "1960s" {
		t.Errorf("ids: %s %s %s %s %s", DayID(c), MonthID(c), QuarterID(c), YearID(c), DecadeID(c))
	}
	if WeekID(c) != "1969-W21" {
		t.Errorf("week = %s", WeekID(c))
	}
	// ISO week at a year boundary.
	if WeekID(temporal.MustDate("01/01/1999")) != "1998-W53" {
		t.Errorf("boundary week = %s", WeekID(temporal.MustDate("01/01/1999")))
	}
}

func TestAgeHelpers(t *testing.T) {
	if FiveYearGroup(12) != "10-14" || TenYearGroup(12) != "10-19" || FiveYearGroup(0) != "0-4" {
		t.Error("group labels wrong")
	}
	ref := temporal.MustDate("01/01/1999")
	if AgeAt(temporal.MustDate("25/05/69"), ref) != 29 {
		t.Errorf("age = %d", AgeAt(temporal.MustDate("25/05/69"), ref))
	}
	if AgeAt(temporal.MustDate("01/01/70"), ref) != 29 {
		t.Error("birthday on ref date counts")
	}
	if AgeAt(temporal.MustDate("02/01/70"), ref) != 28 {
		t.Error("birthday after ref date must not count")
	}
}

func TestBuildVariants(t *testing.T) {
	// Without the user hierarchy, the diagnosis dimension is strict.
	opt := DefaultOptions()
	opt.UserHierarchy = false
	opt.ChangeLinks = false
	d, err := BuildDiagnosisDimension(opt)
	if err != nil {
		t.Fatal(err)
	}
	if !d.IsStrict() {
		t.Error("WHO-only hierarchy must be strict")
	}
	// Full build is non-strict.
	full, err := BuildDiagnosisDimension(DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if full.IsStrict() {
		t.Error("full hierarchy must be non-strict")
	}
	// Example 10's link only with ChangeLinks.
	if _, ok := full.EdgeAnnot("8", "11"); !ok {
		t.Error("change link missing")
	}
	if _, ok := d.EdgeAnnot("8", "11"); ok {
		t.Error("change link must be absent")
	}
}

func TestGenerate(t *testing.T) {
	cfg := DefaultGen()
	cfg.Patients = 30
	m := MustGenerate(cfg)
	if m.Facts().Len() != 30 {
		t.Errorf("facts = %d", m.Facts().Len())
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	diag := m.Dimension(DimDiagnosis)
	if len(diag.Category(CatLowLevel)) != cfg.LowLevel {
		t.Errorf("low-level = %d", len(diag.Category(CatLowLevel)))
	}
	// Non-strict as configured.
	if diag.IsStrict() {
		t.Error("generated diagnosis hierarchy must be non-strict")
	}
	res := m.Dimension(DimResidence)
	if !res.IsStrict() || !res.IsPartitioning() {
		t.Error("generated residence hierarchy must be strict and partitioning")
	}
	// Determinism: same seed, same MO.
	m2 := MustGenerate(cfg)
	if !m.Equal(m2) {
		t.Error("generator must be deterministic")
	}
	// Strict variant.
	cfg.NonStrict = false
	strict := MustGenerate(cfg)
	if !strict.Dimension(DimDiagnosis).IsStrict() {
		t.Error("strict variant must be strict")
	}
	// Bad config.
	bad := cfg
	bad.FamilyFan = 0
	if _, err := Generate(bad); err == nil {
		t.Error("zero fan-out must be rejected")
	}
}

// The live-heap budget of a generated MO at 10 k patients. The pairs hold
// no pointers (fact.Relation's span tables, entries and interval arena),
// and the fact set and the relations share one fact dictionary, so what
// stays is ≈ 345 B and ≈ 1.1 heap objects per fact: the fact id string,
// its dictionary slot and membership bit, and each relation's span and
// few flat arrays. The object count is the deterministic stand-in for the
// garbage collector's mark work; before the arena a fact cost ≈ 930 B in
// ≈ 9.6 objects, and before the shared dictionary ≈ 490 B.
const (
	generateBytesPerFact   = 375
	generateObjectsPerFact = 2
)

// The live-heap budget of the engine BuildEngine makes over that MO: its
// dense order and position tables over the MO's fact dictionary (8 B a
// fact), and the direct bitmaps. Before the engine read the dictionary it
// kept its own fact id list and id map, ≈ 97 B a fact.
const (
	engineBytesPerFact   = 60
	engineObjectsPerFact = 0.07
)

// liveHeap returns the memory statistics after a collection.
func liveHeap() runtime.MemStats {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// TestGenerateHeapBudget gates the served MO's memory on allocation, not
// on the host: the heap a generated MO keeps live, in bytes and in
// objects per fact, stays within budget.
func TestGenerateHeapBudget(t *testing.T) {
	heap := liveHeap
	cfg := DefaultGen()
	cfg.Patients = 10000
	before := heap()
	m := MustGenerate(cfg)
	after := heap()
	runtime.KeepAlive(m)
	perFact := float64(after.HeapAlloc-before.HeapAlloc) / float64(cfg.Patients)
	objsPerFact := float64(after.HeapObjects-before.HeapObjects) / float64(cfg.Patients)
	t.Logf("Generate keeps %.0f B in %.2f objects per fact live", perFact, objsPerFact)
	if perFact > generateBytesPerFact {
		t.Errorf("Generate keeps %.0f B per fact live, budget %d", perFact, generateBytesPerFact)
	}
	if objsPerFact > generateObjectsPerFact {
		t.Errorf("Generate keeps %.2f heap objects per fact live, budget %d", objsPerFact, generateObjectsPerFact)
	}
}

// TestEngineHeapBudget gates the engine's memory the same way: the heap
// BuildEngine keeps live over a generated MO at 10 k patients, in bytes
// and in objects per fact.
func TestEngineHeapBudget(t *testing.T) {
	cfg := DefaultGen()
	cfg.Patients = 10000
	m := MustGenerate(cfg)
	before := liveHeap()
	e, err := storage.BuildEngine(context.Background(), m, dimension.CurrentContext(temporal.MustDate("01/01/1999")))
	if err != nil {
		t.Fatal(err)
	}
	after := liveHeap()
	runtime.KeepAlive(e)
	perFact := float64(after.HeapAlloc-before.HeapAlloc) / float64(cfg.Patients)
	objsPerFact := float64(after.HeapObjects-before.HeapObjects) / float64(cfg.Patients)
	t.Logf("BuildEngine keeps %.0f B in %.3f objects per fact live", perFact, objsPerFact)
	if perFact > engineBytesPerFact {
		t.Errorf("BuildEngine keeps %.0f B per fact live, budget %d", perFact, engineBytesPerFact)
	}
	if objsPerFact > engineObjectsPerFact {
		t.Errorf("BuildEngine keeps %.3f heap objects per fact live, budget %g", objsPerFact, engineObjectsPerFact)
	}
}

func TestMustPatientMO(t *testing.T) {
	m := MustPatientMO()
	if m.Facts().Len() != 2 {
		t.Error("case study MO wrong")
	}
}
