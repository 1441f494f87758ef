package serve

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"mddm/internal/casestudy"
)

// TestCacheAliasConcurrent races the result cache's text aliases and
// stored bodies against everything that moves an entry: hits on texts
// resolved from memory, appends that make entries stale for a delta
// upgrade, evictions from a cache far smaller than the working set, and
// re-registrations that move an MO's generation. Each text names its own
// result column, so an alias resolving to another query's key — or a body
// stored with another result — shows in the answer. At rest, every text
// still answers as an uncached computation does. Run with -race.
func TestCacheAliasConcurrent(t *testing.T) {
	s, cat := newTestServer(t, Limits{ResultCacheBytes: 24 << 10})
	cfg := casestudy.DefaultGen()
	cfg.Patients = 40
	grow := casestudy.MustGenerate(cfg)
	if err := cat.Register("growing", grow); err != nil {
		t.Fatal(err)
	}
	// The facts to append are related before any goroutine starts, so only
	// AppendFact and lookups race on the MO.
	eng, err := s.EngineFor(context.Background(), "growing")
	if err != nil {
		t.Fatal(err)
	}
	const appends = 30
	lows := grow.Dimension(casestudy.DimDiagnosis).Category(casestudy.CatLowLevel)
	for i := 0; i < appends; i++ {
		if err := grow.Relate(casestudy.DimDiagnosis, fmt.Sprintf("race%d", i), lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
	}

	// Texts: eight queries per MO, each in two spellings that share one key.
	type text struct{ src, column string }
	var texts []text
	for i, q := range []string{
		`SELECT SETCOUNT(*) AS %s FROM %s GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SETCOUNT(*) AS %s FROM %s GROUP BY Diagnosis."Diagnosis Family" ORDER BY %[1]s DESC LIMIT 3`,
		`SELECT SETCOUNT(*) AS %s FROM %s GROUP BY Residence."Region"`,
		`SELECT SETCOUNT(*) AS %s FROM %s`,
		`SELECT SUM(Age) AS %s FROM %s GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT MEDIAN(Age) AS %s FROM %s GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SETCOUNT(*) AS %s FROM %s GROUP BY Diagnosis."Diagnosis Group" HAVING >= 1`,
		`SELECT MAX(Age) AS %s FROM %s GROUP BY Residence."Region"`,
	} {
		for _, mo := range []string{"patients", "growing"} {
			column := fmt.Sprintf("Q%d%s", i, mo[:1])
			src := fmt.Sprintf(q, column, mo)
			texts = append(texts, text{src, column}, text{strings.ToLower(src[:6]) + "   " + src[6:], column})
		}
	}

	var wg sync.WaitGroup
	const readers, iters = 4, 200
	var reads, finished atomic.Int64
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			defer finished.Add(1)
			ctx := context.Background()
			for i := 0; i < iters; i++ {
				reads.Add(1)
				tx := texts[(i*7+g*5)%len(texts)]
				res, body, _, err := s.serveQuery(ctx, tx.src)
				if err != nil {
					t.Errorf("%s: %v", tx.src, err)
					return
				}
				if got := res.Columns[len(res.Columns)-1]; got != tx.column {
					t.Errorf("%s: answered with column %q, another query's result", tx.src, got)
					return
				}
				if body != nil && !bytes.Equal(body, responseBody(res, nil, nil)) {
					t.Errorf("%s: stored body is not its result's:\n%s\n%s", tx.src, body, responseBody(res, nil, nil))
					return
				}
			}
		}(g)
	}
	// The appends are spread over the readers' progress, so entries go
	// stale — and get upgraded — all through the run.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < appends; i++ {
			for reads.Load() < int64(i*readers*iters/appends) && finished.Load() < readers {
				runtime.Gosched()
			}
			if err := eng.AppendFact(fmt.Sprintf("race%d", i)); err != nil {
				t.Errorf("append: %v", err)
				return
			}
		}
	}()
	base := patientMO(t)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if err := cat.Register("patients", base.Clone()); err != nil {
				t.Errorf("register: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	st := s.ResultCacheStats()
	if st.Hits == 0 || st.Upgrades == 0 || st.Evictions == 0 {
		t.Errorf("cache stats %+v: want hits, upgrades and evictions under load", st)
	}
	ctx := context.Background()
	for _, tx := range texts {
		res, _, err := s.ServeQuery(ctx, tx.src)
		if err != nil {
			t.Fatal(err)
		}
		unc, err := s.Query(ctx, tx.src)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res.Columns, unc.Columns) || !reflect.DeepEqual(res.Rows, unc.Rows) {
			t.Errorf("%s at rest: cached %v %v, uncached %v %v", tx.src, res.Columns, res.Rows, unc.Columns, unc.Rows)
		}
	}
}
