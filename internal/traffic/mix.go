// Package traffic is the load-generation library behind cmd/mdload: a
// declarative traffic mix (JSON) plus a closed- or open-loop HTTP runner
// that drives an mdserve instance and reports latency distributions
// (p50/p90/p99/p999), error counts, and per-class tallies of the
// X-Mddm-Batch and X-Mddm-Cache response headers. cmd/mdload is its only
// user; docs/TRAFFIC.md describes the methodology.
package traffic

import (
	"bytes"
	"encoding/json"
	"fmt"
	"time"
)

// Mix is one traffic scenario: a weighted set of query classes plus the
// loop discipline that offers them.
type Mix struct {
	// Name labels the mix in reports.
	Name string `json:"name"`
	// Mode is "closed" (Concurrency workers, each issuing the next
	// request when the previous answer arrives) or "open" (requests
	// arrive at RatePerSec regardless of completions).
	Mode string `json:"mode"`
	// Concurrency is the closed-loop worker count.
	Concurrency int `json:"concurrency,omitempty"`
	// RatePerSec is the open-loop arrival rate.
	RatePerSec float64 `json:"rate_per_sec,omitempty"`
	// Duration bounds the run (Go duration string, e.g. "10s").
	Duration string `json:"duration,omitempty"`
	// Requests bounds the run by count; with Duration, whichever trips
	// first stops the run. At least one bound is required.
	Requests int64 `json:"requests,omitempty"`
	// Seed makes class/query/tenant picks deterministic (0 = seed 1).
	Seed int64 `json:"seed,omitempty"`
	// Tenants > 0 spreads requests over this many synthetic tenant ids
	// (X-Mddm-Tenant: t0..t<n-1>).
	Tenants int `json:"tenants,omitempty"`
	// Zipf skews query picks inside each class's rotation toward the
	// head of the list (the "hot set"); nil picks uniformly.
	Zipf *ZipfSpec `json:"zipf,omitempty"`
	// Write interleaves appends with the query traffic; nil disables.
	Write *WriteSpec `json:"write,omitempty"`
	// Classes is the weighted query mix.
	Classes []Class `json:"classes"`

	// duration is the parsed Duration ("" parses to 0).
	duration time.Duration
}

// Class is one kind of query traffic inside a mix.
type Class struct {
	// Name labels the class in reports.
	Name string `json:"name"`
	// Weight is the class's relative share of requests (> 0).
	Weight float64 `json:"weight"`
	// Queries is the class's rotation: each request picks one (see Zipf).
	Queries []string `json:"queries"`
	// NoCache appends &nocache=1 so every request computes.
	NoCache bool `json:"nocache,omitempty"`
}

// ZipfSpec configures the hot-set skew. Queries[i] is drawn with
// probability proportional to (V+i)^(-S), clamped to the rotation length.
type ZipfSpec struct {
	// S is the Zipf exponent (> 1; larger = hotter hot set).
	S float64 `json:"s"`
	// V offsets the ranks (>= 1; 1 is the standard distribution).
	V float64 `json:"v,omitempty"`
}

// WriteSpec interleaves POST /append traffic with the queries.
type WriteSpec struct {
	// Every issues one append per this many queries per worker (> 0).
	Every int `json:"every"`
	// MO is the catalog name to append into.
	MO string `json:"mo"`
	// Dim and Values: each append relates the new fact to one of Values
	// (round-robin) in Dim.
	Dim    string   `json:"dim"`
	Values []string `json:"values"`
}

// ParseMix decodes and validates a mix document. Unknown fields are
// rejected so a typoed knob cannot silently disable itself.
func ParseMix(data []byte) (*Mix, error) {
	var m Mix
	if err := strictUnmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("traffic: %w", err)
	}
	if err := m.validate(); err != nil {
		return nil, err
	}
	return &m, nil
}

func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	// Trailing garbage after the document is a malformed file, not a mix.
	if dec.More() {
		return fmt.Errorf("trailing data after mix document")
	}
	return nil
}

func (m *Mix) validate() error {
	switch m.Mode {
	case "closed":
		if m.Concurrency <= 0 {
			return fmt.Errorf("traffic: closed-loop mix needs concurrency > 0, got %d", m.Concurrency)
		}
	case "open":
		if !(m.RatePerSec > 0) {
			return fmt.Errorf("traffic: open-loop mix needs rate_per_sec > 0, got %v", m.RatePerSec)
		}
	default:
		return fmt.Errorf("traffic: mode %q: want \"closed\" or \"open\"", m.Mode)
	}
	if m.Duration != "" {
		d, err := time.ParseDuration(m.Duration)
		if err != nil {
			return fmt.Errorf("traffic: duration: %w", err)
		}
		if d <= 0 {
			return fmt.Errorf("traffic: duration %q must be positive", m.Duration)
		}
		m.duration = d
	}
	if m.duration == 0 && m.Requests <= 0 {
		return fmt.Errorf("traffic: mix needs a duration or a request count")
	}
	if m.Requests < 0 {
		return fmt.Errorf("traffic: requests %d must not be negative", m.Requests)
	}
	if m.Tenants < 0 {
		return fmt.Errorf("traffic: tenants %d must not be negative", m.Tenants)
	}
	if len(m.Classes) == 0 {
		return fmt.Errorf("traffic: mix has no classes")
	}
	seen := map[string]bool{}
	for i, c := range m.Classes {
		if c.Name == "" {
			return fmt.Errorf("traffic: class %d has no name", i)
		}
		if seen[c.Name] {
			return fmt.Errorf("traffic: duplicate class %q", c.Name)
		}
		seen[c.Name] = true
		if !(c.Weight > 0) {
			return fmt.Errorf("traffic: class %q: weight %v must be > 0", c.Name, c.Weight)
		}
		if len(c.Queries) == 0 {
			return fmt.Errorf("traffic: class %q has no queries", c.Name)
		}
		for j, q := range c.Queries {
			if q == "" {
				return fmt.Errorf("traffic: class %q: query %d is empty", c.Name, j)
			}
		}
	}
	if z := m.Zipf; z != nil {
		if !(z.S > 1) {
			return fmt.Errorf("traffic: zipf s %v must be > 1", z.S)
		}
		if z.V != 0 && !(z.V >= 1) {
			return fmt.Errorf("traffic: zipf v %v must be >= 1", z.V)
		}
	}
	if w := m.Write; w != nil {
		if w.Every <= 0 {
			return fmt.Errorf("traffic: write.every %d must be > 0", w.Every)
		}
		if w.MO == "" || w.Dim == "" || len(w.Values) == 0 {
			return fmt.Errorf("traffic: write spec needs mo, dim, and values")
		}
		for i, v := range w.Values {
			if v == "" {
				return fmt.Errorf("traffic: write.values[%d] is empty", i)
			}
		}
	}
	return nil
}
