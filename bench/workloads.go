package main

import (
	"encoding/json"
	"fmt"
	"math/rand"

	"mddm/internal/cache"
)

// request is one generated request. Query requests carry the query text
// (and whether it bypasses the result cache); append requests carry the
// POST /append body and the fact id it creates. Class labels the request
// for per-class reporting: a plan shape, a fallback reason, "dash" or
// "append".
type request struct {
	Kind    string `json:"kind"` // "query" or "append"
	Class   string `json:"class"`
	Q       string `json:"q,omitempty"`
	NoCache bool   `json:"nocache,omitempty"`
	Body    string `json:"body,omitempty"`
	Fact    string `json:"fact,omitempty"`
	// pairs are the append's (dimension, value) characterizations, kept
	// beside Body for the in-process replay.
	pairs []appendPair
}

type appendPair struct {
	Dim   string `json:"dim"`
	Value string `json:"value"`
}

// workload is one traffic mix over one data size. stream returns the
// client's endless request sequence from a seeded source; the same seed
// yields the same sequence.
type workload struct {
	name, why string
	// facts is the -gen size of the served MO; quickFacts replaces it in
	// the -quick smoke.
	facts, quickFacts int
	// spawns is how many times the server is spawned on a fresh data dir
	// to measure setup_s (the last spawn serves the window).
	spawns int
	// writes says the window appends: the run then ends with the crash,
	// restart and durability check instead of the in-process oracle.
	writes bool
	stream func(g *generator) func() request
	// templates returns representative queries, one or more per template
	// of the workload — what the pre-window gate checks planner ≡ algebra
	// on.
	templates func() []string
}

var workloads = []workload{
	{
		name:  "dash-hot",
		why:   "64 cacheable dashboard queries, zipf 1.3, no writes: >=99% result-cache hits, so time is serve decode/encode, query key and cache lookup; kernels do almost nothing",
		facts: 40000, quickFacts: 1000, spawns: 3,
		stream: streamDashHot, templates: dashboardQueries,
	},
	{
		name:  "adhoc-scan",
		why:   "every query distinct, equal weight per plan shape: 0% hits and evictions, so time is plan prepare/finish, storage kernels and cache fill",
		facts: 40000, quickFacts: 1000, spawns: 3,
		stream: streamAdhocScan, templates: adhocTemplates,
	},
	{
		name:  "ingest-mixed",
		why:   "dashboard queries plus one durable append per 10 queries: reads become delta upgrades, writes pay WAL fsync and column maintenance; ends with SIGKILL, restart and the durability check",
		facts: 40000, quickFacts: 1000, spawns: 3,
		writes: true, stream: streamIngestMixed, templates: dashboardQueries,
	},
	{
		name:  "paper-fallback",
		why:   "uncached MEDIAN, ASOF, WITH PROB and EXPECTED/MINCOUNT/MAXCOUNT on 1k facts: all fall back to the algebra, which the other workloads never enter",
		facts: 1000, quickFacts: gateFacts, spawns: 7,
		stream: streamPaperFallback, templates: fallbackQueries,
	},
}

func workloadByName(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// Group-by legs of the case-study schema, coarse to fine per dimension.
// The value counts (at the default generator shape) decide the kernel:
// Group has 4 values and runs the bitmap kernel under -columns 16, the
// rest run column kernels.
type leg struct{ dim, cat string }

var (
	diagLegs = []leg{{"Diagnosis", "Diagnosis Group"}, {"Diagnosis", "Diagnosis Family"}, {"Diagnosis", "Low-level Diagnosis"}}
	resLegs  = []leg{{"Residence", "Region"}, {"Residence", "County"}, {"Residence", "Area"}}
	allLegs  = append(append([]leg{}, diagLegs...), resLegs...)
)

func (l leg) String() string { return fmt.Sprintf("%s.%q", l.dim, l.cat) }

const (
	numAreas    = 16
	numFamilies = 20
	numLowLevel = 140
	numGroups   = 4
)

// generator is the seeded source of the request list. ages are the Age
// values appends may use: values the served MO is known to hold (see
// gateMO), so no append is rejected for an unknown value.
type generator struct {
	r    *rand.Rand
	seed int64
	ages []string
}

func newGenerator(seed int64, ages []string) *generator {
	return &generator{r: rand.New(rand.NewSource(seed)), seed: seed, ages: ages}
}

// take returns the first n requests of the workload's stream.
func take(w *workload, seed int64, ages []string, n int) []request {
	next := w.stream(newGenerator(seed, ages))
	out := make([]request, n)
	for i := range out {
		out[i] = next()
	}
	return out
}

// dashboardQueries is the fixed 64-query dashboard set: every hierarchy
// level of Diagnosis and Residence × SETCOUNT/SUM/AVG(Age), plain, with
// ORDER/LIMIT (top-5 tiles), with HAVING, and ten with both.
func dashboardQueries() []string {
	fns := []string{"SETCOUNT(*)", "SUM(Age)", "AVG(Age)"}
	var plain, top, having, both []string
	for _, l := range allLegs {
		for fi, fn := range fns {
			base := fmt.Sprintf("SELECT %s AS N FROM patients GROUP BY %s", fn, l)
			plain = append(plain, base)
			top = append(top, base+" ORDER BY N DESC LIMIT 5")
			having = append(having, fmt.Sprintf("%s HAVING >= %d", base, 10*(fi+1)))
			both = append(both, fmt.Sprintf("%s HAVING >= %d ORDER BY N ASC LIMIT 3", base, 20*(fi+1)))
		}
	}
	out := append(append(append(plain, top...), having...), both[:10]...)
	return out
}

// dashPicker draws from the dashboard set by zipf(1.3) rank. Which
// queries are hot is fixed (a permutation that interleaves legs and
// functions), not seeded: the hottest query takes a quarter of the
// traffic, so a seeded ranking would make a run's latency depend on
// whether that query returns 2 rows or 140 — a property of the seed, not
// of the code under test. The seed decides the order of the draws.
func (g *generator) dashPicker() func() string {
	qs := dashboardQueries()
	rand.New(rand.NewSource(64)).Shuffle(len(qs), func(i, j int) { qs[i], qs[j] = qs[j], qs[i] })
	z := rand.NewZipf(g.r, 1.3, 1, uint64(len(qs)-1))
	return func() string { return qs[z.Uint64()] }
}

func streamDashHot(g *generator) func() request {
	pick := g.dashPicker()
	return func() request { return request{Kind: "query", Class: "dash", Q: pick()} }
}

// appendsEvery is the ingest-mixed write share: one append after this
// many queries.
const appendsEvery = 10

func streamIngestMixed(g *generator) func() request {
	pick := g.dashPicker()
	i := 0
	return func() request {
		i++
		if i%(appendsEvery+1) == 0 {
			return g.appendRequest(i)
		}
		return request{Kind: "query", Class: "dash", Q: pick()}
	}
}

// appendRequest builds one durable append: a fact id unique across seeds,
// characterized in Diagnosis (low level), Residence (area) and Age.
func (g *generator) appendRequest(k int) request {
	id := fmt.Sprintf("b%dn%d", g.seed, k)
	pairs := []appendPair{
		{"Diagnosis", fmt.Sprintf("L%d", g.r.Intn(numLowLevel))},
		{"Residence", fmt.Sprintf("A%d", g.r.Intn(numAreas))},
		{"Age", g.ages[g.r.Intn(len(g.ages))]},
	}
	body, _ := json.Marshal(struct {
		MO    string       `json:"mo"`
		Fact  string       `json:"fact"`
		Pairs []appendPair `json:"pairs"`
	}{"patients", id, pairs})
	return request{Kind: "append", Class: "append", Body: string(body), Fact: id, pairs: pairs}
}

var aggFns = []string{"SETCOUNT(*)", "SUM(Age)", "AVG(Age)", "COUNT(Age)", "MIN(Age)", "MAX(Age)"}

// adhocShapes are the planner's six plan shapes; streamAdhocScan takes
// them in turn, so every six requests hold each shape once. make builds
// the i-th query of its shape: the group-by legs follow i (every leg and
// every pair of legs comes up equally often — a cross over 140 × 16
// groups costs ten times one over 4 × 4, so drawn legs would make a run's
// numbers depend on its draw), the other parameters come from the seeded
// source. Each template's parameter space is far larger than a run
// consumes, so a query not seen before is always found.
var adhocShapes = []struct {
	shape string
	make  func(r *rand.Rand, i int) string
}{
	{"facts", func(r *rand.Rand, i int) string {
		// Narrow on purpose: SELECT FACTS is rejected past -max-rows before
		// LIMIT applies (see README, Findings), so the template must select
		// few facts.
		lo := r.Intn(100)
		return fmt.Sprintf("SELECT FACTS FROM patients WHERE Age >= %d AND Age <= %d AND Residence = 'A%d' AND Diagnosis = 'G%d'",
			lo, lo+r.Intn(3), r.Intn(numAreas), r.Intn(numGroups))
	}},
	{"global", func(r *rand.Rand, i int) string {
		q := fmt.Sprintf("SELECT %s FROM patients WHERE Age >= %d", aggFns[r.Intn(len(aggFns))], r.Intn(100))
		if i%2 == 0 {
			q += fmt.Sprintf(" AND Residence = 'A%d'", r.Intn(numAreas))
		}
		if i/2%2 == 0 {
			q += fmt.Sprintf(" AND Diagnosis = 'F%d'", r.Intn(numFamilies))
		}
		return q
	}},
	{"kernel-count", func(r *rand.Rand, i int) string {
		// No WHERE and no argument keeps the query on the count kernel;
		// HAVING makes it distinct without changing the kernel's work.
		return fmt.Sprintf("SELECT SETCOUNT(*) FROM patients GROUP BY %s HAVING >= %d", allLegs[i%len(allLegs)], r.Intn(20000))
	}},
	{"kernel-sum", func(r *rand.Rand, i int) string {
		return fmt.Sprintf("SELECT SUM(Age) FROM patients GROUP BY %s HAVING >= %d", allLegs[i%len(allLegs)], r.Intn(20000))
	}},
	{"group-fold", func(r *rand.Rand, i int) string {
		q := fmt.Sprintf("SELECT %s FROM patients WHERE Age >= %d", aggFns[r.Intn(len(aggFns))], r.Intn(100))
		if i/len(allLegs)%2 == 0 {
			q += fmt.Sprintf(" AND Residence = 'A%d'", r.Intn(numAreas))
		}
		return q + " GROUP BY " + allLegs[i%len(allLegs)].String()
	}},
	{"cross", func(r *rand.Rand, i int) string {
		return fmt.Sprintf("SELECT %s FROM patients WHERE Age >= %d GROUP BY %s, %s HAVING >= %d",
			aggFns[r.Intn(len(aggFns))], r.Intn(100), diagLegs[i%len(diagLegs)], resLegs[i/len(diagLegs)%len(resLegs)], r.Intn(10))
	}},
}

// streamAdhocScan never repeats a query within a run: it dedups by
// canonical cache key. The seed decides where the rotation starts and
// every parameter but the legs.
func streamAdhocScan(g *generator) func() request {
	seen := map[string]bool{}
	k := g.r.Intn(len(adhocShapes) * len(allLegs) * len(diagLegs) * len(resLegs))
	return func() request {
		t := adhocShapes[k%len(adhocShapes)]
		i := k / len(adhocShapes)
		k++
		for {
			q := t.make(g.r, i)
			key, _, err := cache.QueryKey(q)
			if err != nil {
				panic(fmt.Sprintf("bench: generated an unparseable query %q: %v", q, err))
			}
			if seen[key] {
				continue
			}
			seen[key] = true
			return request{Kind: "query", Class: t.shape, Q: q}
		}
	}
}

// fallbackTemplates are the paper's distinctive features the planner
// cannot express; class is the planner's fallback reason.
var fallbackTemplates = []struct {
	class string
	make  func(r *rand.Rand, l leg) string
}{
	{"holistic", func(r *rand.Rand, l leg) string {
		return fmt.Sprintf("SELECT MEDIAN(Age) FROM patients GROUP BY %s", l)
	}},
	{"timeslice", func(r *rand.Rand, l leg) string {
		return fmt.Sprintf("SELECT SETCOUNT(*) FROM patients GROUP BY %s ASOF VALID '15/06/%d'", l, 1982+r.Intn(16))
	}},
	{"min-prob", func(r *rand.Rand, l leg) string {
		return fmt.Sprintf("SELECT SETCOUNT(*) FROM patients GROUP BY %s WITH PROB >= 0.95", l)
	}},
	{"probabilistic", func(r *rand.Rand, l leg) string {
		return fmt.Sprintf("SELECT EXPECTED(*) FROM patients GROUP BY %s", l)
	}},
	{"probabilistic", func(r *rand.Rand, l leg) string {
		return fmt.Sprintf("SELECT MINCOUNT(*) FROM patients GROUP BY %s", l)
	}},
	{"probabilistic", func(r *rand.Rand, l leg) string {
		return fmt.Sprintf("SELECT MAXCOUNT(*) FROM patients GROUP BY %s", l)
	}},
}

// fallbackLegs are the two coarse legs the fallback templates group by.
var fallbackLegs = []leg{diagLegs[0], resLegs[0]}

// streamPaperFallback rotates through the fallback templates × {Diagnosis
// Group, Residence Region} from a seeded starting point, every request
// uncached.
func streamPaperFallback(g *generator) func() request {
	k := g.r.Intn(len(fallbackTemplates) * len(fallbackLegs))
	return func() request {
		t := fallbackTemplates[k%len(fallbackTemplates)]
		l := fallbackLegs[(k/len(fallbackTemplates))%len(fallbackLegs)]
		k++
		return request{Kind: "query", Class: t.class, Q: t.make(g.r, l), NoCache: true}
	}
}

// adhocTemplates draws nine queries per plan shape: every leg and every
// pair of legs.
func adhocTemplates() []string {
	r := rand.New(rand.NewSource(1))
	var out []string
	for _, t := range adhocShapes {
		for i := 0; i < 9; i++ {
			out = append(out, t.make(r, i))
		}
	}
	return out
}

// fallbackQueries is every fallback template on both legs.
func fallbackQueries() []string {
	r := rand.New(rand.NewSource(1))
	var out []string
	for _, t := range fallbackTemplates {
		for _, l := range fallbackLegs {
			out = append(out, t.make(r, l))
		}
	}
	return out
}
