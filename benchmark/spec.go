package main

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"sort"
)

// metricSpec is one metric of BENCHMARK.json. Bound is the share of the
// parent's median by which an end-to-end metric may get worse; per-layer
// metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// spec is BENCHMARK.json, the one list of workloads and metrics: the
// program emits exactly the metrics named there, with the units given
// there, and -compare applies the bounds given there.
type spec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func loadSpec(path string) (*spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var sp spec
	if err := json.Unmarshal(data, &sp); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		if !metricName.MatchString(m.Name) {
			return nil, fmt.Errorf("%s: bad metric name %q", path, m.Name)
		}
		if seen[m.Name] {
			return nil, fmt.Errorf("%s: metric %q listed twice", path, m.Name)
		}
		seen[m.Name] = true
		if m.Better != "lower" && m.Better != "higher" {
			return nil, fmt.Errorf("%s: metric %q: better is %q", path, m.Name, m.Better)
		}
	}
	return &sp, nil
}

func (sp *spec) hasWorkload(name string) bool {
	for _, w := range sp.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// selectMetrics picks the metrics the result line carries: every end-to-end
// metric of an untraced run (each must have been measured and be non-zero)
// or every per-layer metric of a traced one (zero for the layers this
// workload never enters). A measured metric BENCHMARK.json does not list is
// an error: the two must not drift apart.
func (sp *spec) selectMetrics(measured map[string]float64, trace bool) (map[string]metricValue, error) {
	listed := map[string]bool{}
	for _, m := range sp.EndToEnd {
		listed[m.Name] = true
	}
	for _, m := range sp.PerLayer {
		listed[m.Name] = true
	}
	var unknown []string
	for name := range measured {
		if !listed[name] {
			unknown = append(unknown, name)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("measured metrics missing from BENCHMARK.json: %v", unknown)
	}
	out := map[string]metricValue{}
	if trace {
		for _, m := range sp.PerLayer {
			out[m.Name] = metricValue{measured[m.Name], m.Unit}
		}
		return out, nil
	}
	for _, m := range sp.EndToEnd {
		v, ok := measured[m.Name]
		if !ok || v == 0 {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	return out, nil
}
