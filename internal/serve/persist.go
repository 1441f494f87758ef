package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"

	"mddm/internal/dimension"
	"mddm/internal/segment"
	"mddm/internal/temporal"
)

// ErrNoStore reports an append addressed to an MO without an attached
// persistent store — serving is read-only for that name.
var ErrNoStore = errors.New("serve: no persistent store attached")

// AttachStore binds a recovered persistent store to name: the store's
// MO is registered in the catalog, its recovered engine is installed as
// the serving snapshot (so the first query pays no rebuild), and
// Append/POST /append route through the store's durable log. The store
// must already be Recovered, with the same reference date this server
// resolves NOW to — engines are cached per catalog generation and an
// engine built under a different context would serve wrong rollups.
func (s *Server) AttachStore(name string, st *segment.Store) error {
	eng := st.Engine()
	if eng == nil {
		return fmt.Errorf("serve: attach %q: store not recovered", name)
	}
	m := st.MO()
	if err := s.cat.Register(name, m); err != nil {
		return err
	}
	// Pre-populate the engine cache slot exactly as a successful
	// EngineFor build would: the store's engine is over the MO just
	// registered.
	e := s.entry(name)
	e.mu.Lock()
	e.last = eng
	e.inflight = nil
	e.mu.Unlock()
	s.mu.Lock()
	if s.stores == nil {
		s.stores = map[string]*segment.Store{}
	}
	s.stores[name] = st
	s.mu.Unlock()
	return nil
}

// store returns the attached store for name, if any.
func (s *Server) store(name string) *segment.Store {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stores[name]
}

// StoreNames lists the MO names with attached persistent stores, sorted.
func (s *Server) StoreNames() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.stores))
	for name := range s.stores {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Append durably appends one fact to the named MO through its attached
// store: logged to the WAL first, then applied to the serving MO and
// engine. The engine's epoch bump invalidates the result cache (and
// starts the stale-on-shed clock of its entries) exactly as an in-memory
// append does. Returns the assigned append sequence number.
func (s *Server) Append(name string, rec segment.FactAppend) (uint64, error) {
	st := s.store(name)
	if st == nil {
		return 0, fmt.Errorf("%w to %q (stores: %v)", ErrNoStore, name, s.StoreNames())
	}
	return st.AppendSeq(rec)
}

// CloseStores folds and closes every attached store — the
// graceful-shutdown flush. Call it after Drain, once no more appends
// can arrive; serving snapshots stay valid (they own only heap state).
func (s *Server) CloseStores() error {
	s.mu.Lock()
	stores := make([]*segment.Store, 0, len(s.stores))
	for _, st := range s.stores {
		stores = append(stores, st)
	}
	s.stores = nil
	s.mu.Unlock()
	var err error
	for _, st := range stores {
		err = errors.Join(err, st.Close())
	}
	return err
}

// appendPair is the wire form of one fact–dimension characterization.
// Prob defaults to 1; absent valid/trans intervals mean bitemporally
// unconstrained (dimension.Always). Interval bounds are chronons
// (half-open, [start, end)).
type appendPair struct {
	Dim   string     `json:"dim"`
	Value string     `json:"value"`
	Prob  *float64   `json:"prob,omitempty"`
	Valid [][2]int32 `json:"valid,omitempty"`
	Trans [][2]int32 `json:"trans,omitempty"`
}

// appendRequest is the POST /append body.
type appendRequest struct {
	MO    string       `json:"mo"`
	Fact  string       `json:"fact"`
	Pairs []appendPair `json:"pairs"`
}

// appendResponse acknowledges a durable append: the record is in the
// WAL (fsynced when the store runs with Sync) under the given sequence
// number and is already visible to queries.
type appendResponse struct {
	Fact string `json:"fact"`
	Seq  uint64 `json:"seq"`
}

// toAnnot converts the wire pair to a model annotation.
func (p appendPair) toAnnot() (dimension.Annot, error) {
	a := dimension.Always()
	if p.Prob != nil {
		if *p.Prob < 0 || *p.Prob > 1 {
			return a, fmt.Errorf("serve: append: pair %s/%s: prob %v out of [0,1]", p.Dim, p.Value, *p.Prob)
		}
		a.Prob = *p.Prob
	}
	elem := func(ivs [][2]int32) temporal.Element {
		out := make([]temporal.Interval, len(ivs))
		for i, iv := range ivs {
			out[i] = temporal.Interval{Start: temporal.Chronon(iv[0]), End: temporal.Chronon(iv[1])}
		}
		return temporal.NewElement(out...)
	}
	if len(p.Valid) > 0 {
		a.Time.Valid = elem(p.Valid)
	}
	if len(p.Trans) > 0 {
		a.Time.Trans = elem(p.Trans)
	}
	return a, nil
}

// handleAppend is POST /append: decode, convert, and route through the
// attached store. 400 for a body or record the store refuses before
// logging it (segment.ErrRejected: nothing was logged), 404 for an MO
// without a store, 503 for the store's own failure (a failed log write
// or fsync, a poisoned or closed store), 200 with the sequence number
// once the record is durable.
func (s *Server) handleAppend(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		writeError(w, http.StatusMethodNotAllowed,
			errors.New("serve: method not allowed on /append (use POST)"))
		return
	}
	body, ok := readBody(w, r, maxAppendBody)
	if !ok {
		return
	}
	var req appendRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("serve: append body: %w", err))
		return
	}
	if req.MO == "" || req.Fact == "" || len(req.Pairs) == 0 {
		writeError(w, http.StatusBadRequest,
			errors.New(`serve: append needs "mo", "fact", and at least one pair`))
		return
	}
	rec := segment.FactAppend{FactID: req.Fact, Pairs: make([]segment.Pair, len(req.Pairs))}
	for i, p := range req.Pairs {
		annot, err := p.toAnnot()
		if err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		rec.Pairs[i] = segment.Pair{Dim: p.Dim, Value: p.Value, Annot: annot}
	}
	seq, err := s.Append(req.MO, rec)
	if err != nil {
		status := http.StatusServiceUnavailable
		switch {
		case errors.Is(err, segment.ErrRejected):
			status = http.StatusBadRequest
		case errors.Is(err, ErrNoStore):
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeBody(w, http.StatusOK, encodeJSON(appendResponse{Fact: req.Fact, Seq: seq}))
}
