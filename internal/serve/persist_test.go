package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"

	"mddm/internal/agg"
	"mddm/internal/casestudy"
	"mddm/internal/dimension"
	"mddm/internal/segment"
	"mddm/internal/temporal"
)

// storeRecords derives n valid append records from the base dimensions,
// mirroring the segment package's own test corpus: a low-level
// diagnosis, a residence area, and an age per fact, with every third
// record carrying a probabilistic valid-time annotation and every other
// third a second diagnosis.
func storeRecords(t *testing.T, m *segment.Store, n int) []segment.FactAppend {
	t.Helper()
	ctx := dimension.CurrentContext(testRef)
	mo := m.MO()
	lows := mo.Dimension(casestudy.DimDiagnosis).CategoryAt(casestudy.CatLowLevel, ctx)
	areas := mo.Dimension(casestudy.DimResidence).CategoryAt(casestudy.CatArea, ctx)
	ages := mo.Dimension(casestudy.DimAge).CategoryAt(casestudy.CatAge, ctx)
	if len(lows) == 0 || len(areas) == 0 || len(ages) == 0 {
		t.Fatal("base dimensions unexpectedly empty")
	}
	recs := make([]segment.FactAppend, n)
	for i := range recs {
		pairs := []segment.Pair{
			{Dim: casestudy.DimDiagnosis, Value: lows[i%len(lows)], Annot: dimension.Always()},
			{Dim: casestudy.DimResidence, Value: areas[i%len(areas)], Annot: dimension.Always()},
			{Dim: casestudy.DimAge, Value: ages[i%len(ages)], Annot: dimension.Always()},
		}
		switch i % 3 {
		case 1:
			pairs[0].Annot = dimension.Annot{
				Time: temporal.Bitemporal{Valid: temporal.Single(0, 20000), Trans: temporal.AlwaysElement()},
				Prob: 0.9,
			}
		case 2:
			pairs = append(pairs, segment.Pair{
				Dim: casestudy.DimDiagnosis, Value: lows[(i+7)%len(lows)], Annot: dimension.Always(),
			})
		}
		recs[i] = segment.FactAppend{FactID: fmt.Sprintf("srvpat%04d", i), Pairs: pairs}
	}
	return recs
}

// openStore opens and recovers a store on dir over a fresh base MO.
func openStore(t *testing.T, dir string, opts segment.Options) *segment.Store {
	t.Helper()
	st, err := segment.Open(dir, patientMO(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Recover(context.Background(), dimension.CurrentContext(testRef)); err != nil {
		t.Fatal(err)
	}
	return st
}

// attachedServer builds a server whose "patients" MO serves from st.
func attachedServer(t *testing.T, st *segment.Store, limits Limits) *Server {
	t.Helper()
	s := NewServer(NewCatalog(), limits, testRef)
	if err := s.AttachStore("patients", st); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestAttachStoreRecoveryDifferential is the serve-level crash
// equivalence proof: a server attached to a store recovered from disk
// (segments plus WAL tail, across a process "restart") must answer
// every registered aggregate bit-identically to a server whose store
// took the same appends live and never restarted.
func TestAttachStoreRecoveryDifferential(t *testing.T) {
	dir := t.TempDir()

	// Writer lifetime: append 25 records; FoldEvery 10 leaves segments
	// plus an unfolded WAL tail at close time mid-stream, and Close folds
	// the rest — reopen exercises the full recovery path.
	writer := openStore(t, dir, segment.Options{FoldEvery: 10})
	recs := storeRecords(t, writer, 25)
	for _, rec := range recs {
		if err := writer.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := writer.Close(); err != nil {
		t.Fatal(err)
	}

	// Recovered side: fresh process state, state read back from disk.
	recovered := openStore(t, dir, segment.Options{})
	defer recovered.Close()
	recServer := attachedServer(t, recovered, Limits{})

	// Live side: same records through a store that never restarted.
	live := openStore(t, t.TempDir(), segment.Options{})
	defer live.Close()
	liveServer := attachedServer(t, live, Limits{})
	for _, rec := range recs {
		if _, err := liveServer.Append("patients", rec); err != nil {
			t.Fatal(err)
		}
	}

	names := agg.Names()
	sort.Strings(names)
	ctx := context.Background()
	for _, name := range names {
		g, err := agg.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		src := aggQuery(g)
		got, err := recServer.Query(ctx, src)
		if err != nil {
			t.Fatalf("%s: recovered query: %v", name, err)
		}
		want, err := liveServer.Query(ctx, src)
		if err != nil {
			t.Fatalf("%s: live query: %v", name, err)
		}
		sameResult(t, name+": recovered vs live", got, want)
	}
}

// TestServerAppendInvalidatesCache pins that a durable append through
// the attached store carries the same epoch-bump invalidation contract
// as an in-memory append: fill → hit → append → miss with the fresh
// answer. FACTS keeps no delta partials, so the entry is invalidated, not
// upgraded (TestDeltaDurableRestartCoherence pins the upgrade).
func TestServerAppendInvalidatesCache(t *testing.T) {
	st := openStore(t, t.TempDir(), segment.Options{})
	defer st.Close()
	s := attachedServer(t, st, cacheLimits)
	recs := storeRecords(t, st, 2)

	src := `SELECT FACTS FROM patients`
	ctx := context.Background()
	if _, out, err := s.ServeQuery(ctx, src); err != nil || out.CacheHit {
		t.Fatalf("fill: hit=%v err=%v", out.CacheHit, err)
	}
	if _, out, err := s.ServeQuery(ctx, src); err != nil || !out.CacheHit {
		t.Fatalf("warm lookup: hit=%v err=%v", out.CacheHit, err)
	}
	if _, err := s.Append("patients", recs[0]); err != nil {
		t.Fatal(err)
	}
	res, out, err := s.ServeQuery(ctx, src)
	if err != nil {
		t.Fatal(err)
	}
	if out.CacheHit {
		t.Fatal("append did not invalidate the result cache")
	}
	if res == nil || len(res.Rows) == 0 {
		t.Fatal("post-append result empty")
	}
}

// TestServerAppendNoStore pins the read-only contract: appends to MOs
// without an attached store fail with ErrNoStore, and CloseStores
// detaches everything.
func TestServerAppendNoStore(t *testing.T) {
	s, _ := newTestServer(t, Limits{})
	if _, err := s.Append("patients", segment.FactAppend{}); !errors.Is(err, ErrNoStore) {
		t.Fatalf("append without store: %v", err)
	}
	if names := s.StoreNames(); len(names) != 0 {
		t.Fatalf("store names: %v", names)
	}

	st := openStore(t, t.TempDir(), segment.Options{})
	srv := attachedServer(t, st, Limits{})
	if names := srv.StoreNames(); len(names) != 1 || names[0] != "patients" {
		t.Fatalf("store names: %v", names)
	}
	if err := srv.CloseStores(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Append("patients", segment.FactAppend{}); !errors.Is(err, ErrNoStore) {
		t.Fatalf("append after CloseStores: %v", err)
	}
	// Idempotent: a second close has nothing left to do.
	if err := srv.CloseStores(); err != nil {
		t.Fatal(err)
	}
}

// TestAttachStoreUnrecovered rejects a store that was opened but never
// Recovered — there is no engine to serve from.
func TestAttachStoreUnrecovered(t *testing.T) {
	st, err := segment.Open(t.TempDir(), patientMO(t), segment.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	s := NewServer(NewCatalog(), Limits{}, testRef)
	if err := s.AttachStore("patients", st); err == nil {
		t.Fatal("attach of unrecovered store must fail")
	}
}

// TestHandleAppendHTTP drives POST /append end to end: durable ack with
// a sequence number, visibility to the very next query, and each error
// class on its own status code.
func TestHandleAppendHTTP(t *testing.T) {
	st := openStore(t, t.TempDir(), segment.Options{})
	defer st.Close()
	s := attachedServer(t, st, cacheLimits)
	hs := httptest.NewServer(s.Handler())
	defer hs.Close()

	post := func(body string) (int, string) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/append", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(out)
	}

	rec := storeRecords(t, st, 1)[0]
	body := fmt.Sprintf(`{"mo":"patients","fact":%q,"pairs":[{"dim":%q,"value":%q},{"dim":%q,"value":%q,"prob":0.8,"valid":[[0,20000]]}]}`,
		rec.FactID,
		rec.Pairs[0].Dim, rec.Pairs[0].Value,
		rec.Pairs[1].Dim, rec.Pairs[1].Value)

	// Sequence numbers are zero-based: the first record ever logged in
	// this fresh store is seq 0.
	if code, out := post(body); code != http.StatusOK || !strings.Contains(out, `"seq":0`) {
		t.Fatalf("append: status %d body %s", code, out)
	}
	if seq, err := s.Append("patients", storeRecords(t, st, 3)[2]); err != nil || seq != 1 {
		t.Fatalf("second append: seq %d err %v", seq, err)
	}
	// Visible to the very next query.
	resp, err := http.Get(hs.URL + "/query?q=" + "SELECT+FACTS+FROM+patients&nocache=1")
	if err != nil {
		t.Fatal(err)
	}
	qbody, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(qbody), rec.FactID) {
		t.Fatalf("appended fact %s not visible to queries", rec.FactID)
	}

	// Error classes, each on its own status.
	cases := []struct {
		name, body string
		code       int
	}{
		{"duplicate", body, http.StatusBadRequest},
		{"no-store", `{"mo":"ghosts","fact":"g1","pairs":[{"dim":"d","value":"v"}]}`, http.StatusNotFound},
		{"bad-json", `{broken`, http.StatusBadRequest},
		{"missing-fields", `{"mo":"patients"}`, http.StatusBadRequest},
		{"bad-prob", `{"mo":"patients","fact":"p9","pairs":[{"dim":"d","value":"v","prob":1.5}]}`, http.StatusBadRequest},
		{"unknown-dim", `{"mo":"patients","fact":"p9","pairs":[{"dim":"NoSuchDim","value":"v"}]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if code, out := post(tc.body); code != tc.code {
			t.Errorf("%s: status %d (want %d) body %s", tc.name, code, tc.code, out)
		}
	}

	// Wrong method.
	getResp, err := http.Get(hs.URL + "/append")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /append: status %d", getResp.StatusCode)
	}
}
