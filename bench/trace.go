package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer. Spans of one replayed request
// share Req; Parent is the causing span's ID, or -1. A replayed child is
// a call repeated outside its parent's interval to time a layer the
// parent calls internally (the storage kernel under plan.execute): its
// whole duration counts against the parent's self time.
type span struct {
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Req      int32  `json:"req"`
	Name     string `json:"name"`
	Start    int64  `json:"start_ns"`
	End      int64  `json:"end_ns"`
	Replayed bool   `json:"replayed,omitempty"`
	// Note says what a request's root span replayed: the query text or the
	// appended fact.
	Note string `json:"note,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory; they are written out when the run ends.
type recorder struct {
	t0    time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) begin(name string, parent int32, req int) int32 {
	id := int32(len(r.spans))
	r.spans = append(r.spans, span{ID: id, Parent: parent, Req: int32(req), Name: name, Start: int64(time.Since(r.t0))})
	return id
}

func (r *recorder) beginReplayed(name string, parent int32, req int) int32 {
	id := r.begin(name, parent, req)
	r.spans[id].Replayed = true
	return id
}

// end closes the span and returns its duration in microseconds.
func (r *recorder) end(id int32) float64 {
	r.spans[id].End = int64(time.Since(r.t0))
	return float64(r.spans[id].dur()) / 1e3
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval its child spans cover (overlapping children are not
// subtracted twice), minus the full duration of replayed children;
// never below zero.
func selfTimes(spans []span) []int64 {
	kids := make(map[int32][]span)
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make([]int64, len(spans))
	for _, p := range spans {
		covered := int64(0)
		var inside []span
		for _, k := range kids[p.ID] {
			if k.Replayed {
				covered += k.dur()
				continue
			}
			k.Start, k.End = max(k.Start, p.Start), min(k.End, p.End)
			if k.End > k.Start {
				inside = append(inside, k)
			}
		}
		sort.Slice(inside, func(i, j int) bool { return inside[i].Start < inside[j].Start })
		reach := p.Start
		for _, k := range inside {
			if k.End <= reach {
				continue
			}
			covered += k.End - max(k.Start, reach)
			reach = k.End
		}
		out[p.ID] = max(p.dur()-covered, 0)
	}
	return out
}

// writeTrace writes the run's spans with their self times.
func (e *env) writeTrace(w *workload, spans []span) error {
	self := selfTimes(spans)
	type outSpan struct {
		span
		SelfNs int64 `json:"self_ns"`
	}
	out := make([]outSpan, len(spans))
	for i, s := range spans {
		out[i] = outSpan{s, self[i]}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, "trace-"+w.name+".json"), b, 0o644)
}
