package casestudy

import (
	"fmt"
	"math/rand"
	"strconv"

	"mddm/internal/core"
	"mddm/internal/dimension"
	"mddm/internal/temporal"
)

// GenConfig parameterizes the synthetic clinical data generator. The
// generator preserves the structural parameters the paper states: diagnosis
// families hold 5–20 low-level diagnoses, groups hold 5–20 families, the
// residence hierarchy is strict and partitioning, and the user-defined
// diagnosis hierarchy (when enabled) is non-strict.
type GenConfig struct {
	Seed     int64
	Patients int
	// LowLevel is the number of low-level diagnoses; families and groups
	// are derived with FamilyFan and GroupFan children each.
	LowLevel  int
	FamilyFan int // low-level diagnoses per family (paper: 5–20)
	GroupFan  int // families per group (paper: 5–20)
	// DiagnosesPerPatient is the number of Has rows per patient.
	DiagnosesPerPatient int
	// MixedGranularity relates a fraction of the diagnoses at family
	// granularity instead of low level (requirement 9).
	MixedGranularity bool
	// NonStrict adds user-defined second-parent edges so a low-level
	// diagnosis belongs to two families (requirement 5).
	NonStrict bool
	// Areas, Counties and Regions size the residence hierarchy.
	Areas, Counties, Regions int
	// Churn attaches valid-time intervals to diagnoses and gives patients
	// residence histories (requirement 7).
	Churn bool
	// UncertainFrac annotates this fraction of the Has pairs with
	// probability 0.9 (requirement 8).
	UncertainFrac float64
}

// DefaultGen returns a small, fully featured configuration.
func DefaultGen() GenConfig {
	return GenConfig{
		Seed: 1, Patients: 100, LowLevel: 140, FamilyFan: 7, GroupFan: 5,
		DiagnosesPerPatient: 3, MixedGranularity: true, NonStrict: true,
		Areas: 16, Counties: 4, Regions: 2, Churn: true, UncertainFrac: 0.1,
	}
}

// genEpoch is the start of generated valid time.
var genEpoch = temporal.MustDate("01/01/1980")

// Generate builds a synthetic Patient MO with Diagnosis, Residence and Age
// dimensions.
func Generate(cfg GenConfig) (*core.MO, error) {
	if cfg.FamilyFan <= 0 || cfg.GroupFan <= 0 {
		return nil, fmt.Errorf("casestudy: fan-outs must be positive")
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	s := core.MustSchema("Patient", DiagnosisType(), ResidenceType(), AgeType())
	m := core.NewMO(s)
	if cfg.Churn {
		m.SetKind(core.ValidTime)
	}

	// Diagnosis hierarchy.
	diag := m.Dimension(DimDiagnosis)
	nFam := (cfg.LowLevel + cfg.FamilyFan - 1) / cfg.FamilyFan
	nGrp := (nFam + cfg.GroupFan - 1) / cfg.GroupFan
	if nGrp == 0 {
		nGrp = 1
	}
	// Each value's name is formatted once, where it is created; the
	// patients below draw names from these tables.
	groups := names("G", nGrp)
	for _, id := range groups {
		if err := diag.AddValue(CatGroup, id); err != nil {
			return nil, err
		}
	}
	fams := names("F", nFam)
	for f, id := range fams {
		if err := diag.AddValue(CatFamily, id); err != nil {
			return nil, err
		}
		if err := diag.AddEdge(id, groups[f/cfg.GroupFan]); err != nil {
			return nil, err
		}
	}
	lows := names("L", cfg.LowLevel)
	for l, id := range lows {
		if err := diag.AddValue(CatLowLevel, id); err != nil {
			return nil, err
		}
		fam := l / cfg.FamilyFan
		if err := diag.AddEdge(id, fams[fam]); err != nil {
			return nil, err
		}
		if cfg.NonStrict && nFam > 1 && l%3 == 0 {
			other := (fam + 1) % nFam
			if err := diag.AddEdge(id, fams[other]); err != nil {
				return nil, err
			}
		}
	}

	// Residence hierarchy (strict, partitioning).
	res := m.Dimension(DimResidence)
	if cfg.Regions <= 0 {
		cfg.Regions = 1
	}
	if cfg.Counties <= 0 {
		cfg.Counties = 1
	}
	if cfg.Areas <= 0 {
		cfg.Areas = 1
	}
	regions := names("R", cfg.Regions)
	for _, id := range regions {
		if err := res.AddValue(CatRegion, id); err != nil {
			return nil, err
		}
	}
	counties := names("C", cfg.Counties)
	for i, id := range counties {
		if err := res.AddValue(CatCounty, id); err != nil {
			return nil, err
		}
		if err := res.AddEdge(id, regions[i%cfg.Regions]); err != nil {
			return nil, err
		}
	}
	areas := names("A", cfg.Areas)
	for i, id := range areas {
		if err := res.AddValue(CatArea, id); err != nil {
			return nil, err
		}
		if err := res.AddEdge(id, counties[i%cfg.Counties]); err != nil {
			return nil, err
		}
	}

	// Age hierarchy (shared across patients): an age's values and edges
	// are added the first time a patient draws it, and its id is reused
	// after that.
	age := m.Dimension(DimAge)
	var ages [100]string

	// Patients.
	for p := 0; p < cfg.Patients; p++ {
		pid := "p" + strconv.Itoa(p)

		for d := 0; d < cfg.DiagnosesPerPatient; d++ {
			var value string
			if cfg.MixedGranularity && r.Intn(5) == 0 {
				value = fams[r.Intn(nFam)]
			} else {
				value = lows[r.Intn(cfg.LowLevel)]
			}
			a := dimension.Always()
			if cfg.Churn {
				start := genEpoch + temporal.Chronon(r.Intn(7000))
				end := start + temporal.Chronon(30+r.Intn(3000))
				a = dimension.ValidDuring(temporal.NewElement(temporal.MustNewInterval(start, end)))
			}
			if cfg.UncertainFrac > 0 && r.Float64() < cfg.UncertainFrac {
				a = a.WithProb(0.9)
			}
			if err := m.RelateAnnot(DimDiagnosis, pid, value, a); err != nil {
				return nil, err
			}
		}

		area := areas[r.Intn(cfg.Areas)]
		if cfg.Churn && r.Intn(3) == 0 {
			move := genEpoch + temporal.Chronon(2000+r.Intn(4000))
			area2 := areas[r.Intn(cfg.Areas)]
			if err := m.RelateAnnot(DimResidence, pid, area,
				dimension.ValidDuring(temporal.NewElement(temporal.MustNewInterval(genEpoch, move)))); err != nil {
				return nil, err
			}
			if err := m.RelateAnnot(DimResidence, pid, area2,
				dimension.ValidDuring(temporal.NewElement(temporal.MustNewInterval(move+1, temporal.Now)))); err != nil {
				return nil, err
			}
		} else {
			if err := m.Relate(DimResidence, pid, area); err != nil {
				return nil, err
			}
		}

		a := r.Intn(len(ages))
		if ages[a] == "" {
			id, err := AddAge(age, a)
			if err != nil {
				return nil, err
			}
			ages[a] = id
		}
		if err := m.Relate(DimAge, pid, ages[a]); err != nil {
			return nil, err
		}
	}
	m.EnsureTotal()
	if err := m.Validate(); err != nil {
		return nil, err
	}
	return m, nil
}

// names returns the value ids prefix+"0" … prefix+itoa(n-1), none when
// n is not positive.
func names(prefix string, n int) []string {
	out := make([]string, max(n, 0))
	for i := range out {
		out[i] = prefix + strconv.Itoa(i)
	}
	return out
}

// MustGenerate is Generate that panics on error.
func MustGenerate(cfg GenConfig) *core.MO {
	m, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return m
}
