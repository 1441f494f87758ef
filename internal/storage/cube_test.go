package storage

import (
	"strings"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
)

func TestPlanCubeStrictHierarchy(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.NonStrict = false
	cfg.Churn = false
	cfg.Patients = 60
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	c := NewCache(e)

	plan, err := c.PlanCube(casestudy.DimResidence, KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	// Area from base; County derives from Area; Region derives from County.
	verdicts := map[string]string{}
	for _, en := range plan.Entries {
		verdicts[en.Cat] = en.DeriveFrom
	}
	if verdicts[casestudy.CatArea] != "" {
		t.Errorf("Area must come from base, got %q", verdicts[casestudy.CatArea])
	}
	if verdicts[casestudy.CatCounty] != casestudy.CatArea {
		t.Errorf("County must derive from Area, got %q", verdicts[casestudy.CatCounty])
	}
	if verdicts[casestudy.CatRegion] != casestudy.CatCounty {
		t.Errorf("Region must derive from County, got %q", verdicts[casestudy.CatRegion])
	}
	derivable := 0
	for _, e := range plan.Entries {
		if e.DeriveFrom != "" {
			derivable++
		}
	}
	if derivable != 2 {
		t.Errorf("derivable = %d, want 2", derivable)
	}

	cube, err := c.BuildCube(plan)
	if err != nil {
		t.Fatal(err)
	}
	// Every level of the built cube equals the direct computation.
	for _, cat := range []string{casestudy.CatArea, casestudy.CatCounty, casestudy.CatRegion} {
		direct := e.CountDistinctBy(casestudy.DimResidence, cat)
		for v, n := range direct {
			if cube[cat][v] != float64(n) {
				t.Errorf("%s/%s: cube %v, direct %d", cat, v, cube[cat][v], n)
			}
		}
		if len(cube[cat]) != len(direct) {
			t.Errorf("%s: cube has %d rows, direct %d", cat, len(cube[cat]), len(direct))
		}
	}
	out := plan.String()
	if !strings.Contains(out, "derive from") || !strings.Contains(out, "from base") {
		t.Errorf("plan render:\n%s", out)
	}
}

func TestPlanCubeNonStrictFallsBack(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 60
	cfg.Churn = false
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	c := NewCache(e)

	plan, err := c.PlanCube(casestudy.DimDiagnosis, KindCount, "")
	if err != nil {
		t.Fatal(err)
	}
	// The non-strict hierarchy forces every level from base.
	for _, en := range plan.Entries {
		if en.DeriveFrom != "" {
			t.Errorf("%s must come from base on the non-strict hierarchy, derives from %q", en.Cat, en.DeriveFrom)
		}
	}
	// And the built cube still returns correct distinct counts.
	cube, err := c.BuildCube(plan)
	if err != nil {
		t.Fatal(err)
	}
	direct := e.CountDistinctBy(casestudy.DimDiagnosis, casestudy.CatGroup)
	for v, n := range direct {
		if cube[casestudy.CatGroup][v] != float64(n) {
			t.Errorf("group %s: cube %v, direct %d", v, cube[casestudy.CatGroup][v], n)
		}
	}
}

func TestPlanCubeSum(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.NonStrict = false
	cfg.Churn = false
	cfg.Patients = 50
	m := casestudy.MustGenerate(cfg)
	e := NewEngine(m, dimension.CurrentContext(ref))
	c := NewCache(e)
	plan, err := c.PlanCube(casestudy.DimResidence, KindSum, casestudy.DimAge)
	if err != nil {
		t.Fatal(err)
	}
	cube, err := c.BuildCube(plan)
	if err != nil {
		t.Fatal(err)
	}
	direct := sumBy(t, e, casestudy.DimResidence, casestudy.CatRegion, casestudy.DimAge)
	for v, x := range direct {
		if cube[casestudy.CatRegion][v] != x {
			t.Errorf("region %s: cube %v, direct %v", v, cube[casestudy.CatRegion][v], x)
		}
	}
}

func TestPlanCubeErrors(t *testing.T) {
	m := casestudy.MustGenerate(casestudy.DefaultGen())
	c := NewCache(NewEngine(m, dimension.CurrentContext(ref)))
	if _, err := c.PlanCube("Nope", KindCount, ""); err == nil {
		t.Error("unknown dimension must fail")
	}
	if _, err := c.BuildCube(&CubePlan{Dim: casestudy.DimResidence, Kind: KindCount,
		Entries: []CubePlanEntry{{Cat: casestudy.CatRegion, DeriveFrom: casestudy.CatCounty}}}); err == nil {
		t.Error("deriving from an unbuilt category must fail")
	}
}
