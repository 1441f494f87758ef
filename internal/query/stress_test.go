package query

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/qos"
	"mddm/internal/storage"
	"mddm/internal/temporal"
)

// TestConcurrentExecAndIncrementalUpdates is the serving-path race test:
// many goroutines run queries over a shared catalog while an engine over
// the same MO is incrementally updated. Run under -race this checks the
// concurrency contract end to end. The MO itself is fully prepared
// before the goroutines start (queries read it, appends only mutate the
// engine), mirroring production where a registered MO is immutable.
func TestConcurrentExecAndIncrementalUpdates(t *testing.T) {
	cfg := casestudy.DefaultGen()
	cfg.Patients = 60
	m := casestudy.MustGenerate(cfg)
	ref := temporal.MustDate("01/01/1999")
	e := storage.NewEngine(m, dimension.CurrentContext(ref))
	cache := storage.NewCache(e)

	// Prepare the incremental batch single-threaded.
	diag := m.Dimension(casestudy.DimDiagnosis)
	lows := diag.Category(casestudy.CatLowLevel)
	const extra = 30
	ids := make([]string, extra)
	for i := range ids {
		ids[i] = fmt.Sprintf("new%d", i)
		if err := m.Relate(casestudy.DimDiagnosis, ids[i], lows[i%len(lows)]); err != nil {
			t.Fatal(err)
		}
		if err := m.Relate(casestudy.DimResidence, ids[i], "A0"); err != nil {
			t.Fatal(err)
		}
	}

	cat := Catalog{"patients": m}
	queries := []string{
		`SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SETCOUNT(*) FROM patients GROUP BY Residence."Region"`,
		`SELECT FACTS FROM patients WHERE Residence = 'A0'`,
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // writer: incremental engine maintenance
		defer wg.Done()
		for _, id := range ids {
			if err := e.AppendFact(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) { // readers: the full query path
			defer wg.Done()
			for i := 0; i < 25; i++ {
				res, err := ExecContext(context.Background(), queries[(r+i)%len(queries)], cat, ref)
				if err != nil {
					t.Error(err)
					return
				}
				if len(res.Rows) == 0 {
					t.Errorf("reader %d: empty result", r)
					return
				}
			}
		}(r)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() { // readers: the pre-aggregate rollup path
			defer wg.Done()
			for i := 0; i < 25; i++ {
				_, err := cache.RollupFromContext(context.Background(),
					casestudy.DimDiagnosis, casestudy.CatLowLevel, casestudy.CatGroup, storage.KindCount, "")
				if err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCanceledContextStopsQuery checks that a canceled context stops a
// query before any real work happens.
func TestCanceledContextStopsQuery(t *testing.T) {
	m := casestudy.MustGenerate(casestudy.DefaultGen())
	cat := Catalog{"patients": m}
	ref := temporal.MustDate("01/01/1999")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ExecContext(ctx, `SELECT SETCOUNT(*) FROM patients GROUP BY Residence."Region"`, cat, ref)
	if !errors.Is(err, qos.ErrCanceled) {
		t.Fatalf("want ErrCanceled, got %v", err)
	}
}
