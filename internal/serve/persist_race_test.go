package serve

import (
	"context"
	"sync"
	"testing"

	"mddm/internal/segment"
)

// appendStorm appends n records through Server.Append on a server
// attached to a fresh store while one goroutine per query runs it through
// Server.Query until the appends are done, each at least once. The
// engine is the only writer of the served MO's relations, so no query
// may observe a relation mid-write. Once the storm is over, every query
// must answer as it does on a server that took the same appends with no
// query running.
func appendStorm(t *testing.T, n int, queries []string) {
	t.Helper()
	appendStormWith(t, n, queries, segment.Options{}, Limits{})
}

// appendStormWith is appendStorm on a store opened with opts, serving
// under limits.
func appendStormWith(t *testing.T, n int, queries []string, opts segment.Options, limits Limits) {
	t.Helper()
	st := openStore(t, t.TempDir(), opts)
	defer st.Close()
	s := attachedServer(t, st, limits)
	recs := storeRecords(t, st, n)
	ctx := context.Background()

	done := make(chan struct{})
	var wg sync.WaitGroup
	for _, src := range queries {
		wg.Add(1)
		go func(src string) {
			defer wg.Done()
			for {
				if _, err := s.Query(ctx, src); err != nil {
					t.Errorf("%s: %v", src, err)
					return
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(src)
	}
	for _, rec := range recs {
		if _, err := s.Append("patients", rec); err != nil {
			t.Error(err)
			break
		}
	}
	close(done)
	wg.Wait()
	if t.Failed() {
		return
	}

	calm := openStore(t, t.TempDir(), segment.Options{})
	defer calm.Close()
	ref := attachedServer(t, calm, limits)
	for _, rec := range recs {
		if _, err := ref.Append("patients", rec); err != nil {
			t.Fatal(err)
		}
	}
	for _, src := range queries {
		got, err := s.Query(ctx, src)
		if err != nil {
			t.Fatalf("%s after the storm: %v", src, err)
		}
		want, err := ref.Query(ctx, src)
		if err != nil {
			t.Fatalf("%s on the reference: %v", src, err)
		}
		sameResult(t, src, got, want)
	}
}

// TestPersistAppendRaceContextViews resolves and walks context views
// (ASOF VALID, WITH PROB, EXPECTED) while durable appends arrive: every
// append drops the views, so nearly every query builds one and walks the
// model's relations as the next append relates its pairs.
func TestPersistAppendRaceContextViews(t *testing.T) {
	appendStorm(t, 300, []string{asofQuery, minProbQuery, expectedQuery})
}

// TestPersistAppendRaceColdSum builds measure columns while durable
// appends arrive: the base engine's SUM(Age) column on the first query,
// and a threshold view's, cold after every append, on each one after.
func TestPersistAppendRaceColdSum(t *testing.T) {
	appendStorm(t, 300, []string{
		`SELECT SUM(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
		`SELECT SUM(Age) FROM patients GROUP BY Residence."Region" WITH PROB >= 0.5`,
	})
}

// TestPersistFoldRaceQueries folds every few appends while context views
// and column queries run: each fold streams a snapshot image from the
// engine's fact order, its relations and the overflow tables its columns
// share with the queries scanning them, and none of it may race the
// queries or an append's maintenance of them.
func TestPersistFoldRaceQueries(t *testing.T) {
	appendStormWith(t, 300, []string{
		asofQuery,
		minProbQuery,
		`SELECT SETCOUNT(*) FROM patients GROUP BY Diagnosis."Low-level Diagnosis"`,
		`SELECT SUM(Age) FROM patients GROUP BY Diagnosis."Diagnosis Group"`,
	}, segment.Options{FoldEvery: 7}, Limits{ColumnMinValues: 2})
}
