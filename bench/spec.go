package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// benchSpec is BENCHMARK.json.
type benchSpec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []specWorkload `json:"workloads"`
	EndToEnd   []specE2E      `json:"end_to_end"`
	PerLayer   []specLayer    `json:"per_layer"`
}

type specWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type specE2E struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

type specLayer struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

// printSpec writes the BENCHMARK.json the catalogue in metrics.go and
// workloads.go defines; the committed file is this output.
func printSpec() error {
	var s benchSpec
	s.Command = []string{"bash", "bench/run.sh"}
	s.Paths = []string{"bench"}
	s.RunSeconds = runSeconds
	for _, w := range workloads {
		s.Workloads = append(s.Workloads, specWorkload{w.name, w.why})
	}
	for _, m := range e2eMetrics {
		s.EndToEnd = append(s.EndToEnd, specE2E{m.name, m.unit, m.better, m.bound})
	}
	for _, m := range layerMetrics {
		s.PerLayer = append(s.PerLayer, specLayer{m.name, m.unit, m.better})
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetEscapeHTML(false)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

func readSpec(root string) (*benchSpec, error) {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &s, nil
}
