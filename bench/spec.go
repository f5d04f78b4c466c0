package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the
// share of the baseline median by which an end-to-end metric may worsen;
// per-layer metrics carry none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec is the part of BENCHMARK.json the harness uses. Metric names,
// units and bounds are read from the file rather than repeated in code, so
// the two cannot drift apart silently: a metric the program computes but the
// file does not name (or the reverse) is an error.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// findRoot walks up from the working directory to the directory holding
// BENCHMARK.json: the checkout root when started through bench/run.sh, the
// parent when started with `go run -C bench .`.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found in the working directory or any parent")
		}
		dir = parent
	}
}

func loadSpec(root string) (*benchSpec, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	if s.RunSeconds < 1 || len(s.Workloads) == 0 || len(s.EndToEnd) == 0 {
		return nil, fmt.Errorf("BENCHMARK.json: run_seconds, workloads and end_to_end are required")
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// opSpecs are the per_layer entries of the operation metrics, in opNames
// order.
func (s *benchSpec) opSpecs() []metricSpec {
	var out []metricSpec
	for _, name := range opNames {
		for _, m := range s.PerLayer {
			if m.Name == name {
				out = append(out, m)
			}
		}
	}
	return out
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// render projects the values a run computed onto the declared metric list.
// Every declared metric must have been computed and every computed metric
// must be declared.
func render(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, m := range specs {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("metric %q is declared in BENCHMARK.json but was not computed", m.Name)
		}
		out[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	for name := range values {
		if _, ok := out[name]; !ok {
			return nil, fmt.Errorf("metric %q was computed but is not declared in BENCHMARK.json", name)
		}
	}
	return out, nil
}
