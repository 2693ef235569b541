package main

import (
	"bytes"
	"encoding/json"
	"math"
	"path/filepath"
	"strings"
	"testing"
)

func loadTestSpec(t *testing.T) *spec {
	t.Helper()
	sp, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return sp
}

func smokeEnv(t *testing.T, workload string, trace bool) *env {
	t.Helper()
	dir := t.TempDir()
	e, err := newEnv(workload, 1, 0, trace, smokeSizes, dir, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(e.close)
	return e
}

// TestSmoke runs all four workloads at tiny counts, timed and traced, and
// holds their output against BENCHMARK.json.
func TestSmoke(t *testing.T) {
	sp := loadTestSpec(t)
	if len(sp.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(sp.Workloads), len(workloads))
	}
	owned := map[string]int{} // per-layer metric -> workloads that measured it
	for _, w := range sp.Workloads {
		for _, trace := range []bool{false, true} {
			e := smokeEnv(t, w.Name, trace)
			var out bytes.Buffer
			if err := runOne(sp, e, &out); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", w.Name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
				t.Fatalf("%s trace=%v: last line is not the result: %v", w.Name, trace, err)
			}
			if !line.Correct || line.Attempted < 1 || line.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, trace, line.Correct, line.Attempted, line.Failed)
			}
			want := sp.EndToEnd
			if trace {
				want = sp.PerLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics on the result line, BENCHMARK.json lists %d", w.Name, trace, len(line.Metrics), len(want))
			}
			for _, m := range want {
				v, ok := line.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s trace=%v: metric %s: got %+v (present=%v), want unit %q", w.Name, trace, m.Name, v, ok, m.Unit)
				}
				if !trace && v.Value == 0 {
					t.Errorf("%s: end-to-end metric %s is zero", w.Name, m.Name)
				}
			}
			if !trace {
				continue
			}
			for name := range e.metrics {
				owned[name]++
			}
			if err := e.tr.Validate(); err != nil {
				t.Errorf("%s: span tree: %v", w.Name, err)
			}
			var sum float64
			for _, s := range e.shares {
				sum += s
			}
			if math.Abs(sum-1) > 0.01 {
				t.Errorf("%s: layer shares and residual sum to %.4f, want 1", w.Name, sum)
			}
		}
	}
	for _, m := range sp.PerLayer {
		if owned[m.Name] == 0 {
			t.Errorf("per-layer metric %s is listed in BENCHMARK.json but no workload measures it", m.Name)
		}
	}
}

// TestFlippedPixelFailsServeHD: one wrong decoded pixel must fail the run.
func TestFlippedPixelFailsServeHD(t *testing.T) {
	e := smokeEnv(t, "serve_hd", false)
	if err := serveHDLoop(e, buildClip(e.sz, e.seed), 3); err != nil {
		t.Fatal(err)
	}
	if e.failed == 0 || len(e.problems) == 0 {
		t.Fatalf("flipped pixel went unnoticed: failed=%d problems=%v", e.failed, e.problems)
	}
}

// TestCorruptSegmentFailsRelayTCP: one wrong segment byte must fail the run.
func TestCorruptSegmentFailsRelayTCP(t *testing.T) {
	e := smokeEnv(t, "relay_tcp", false)
	err := relayLoop(e, buildRelayInputs(e.sz, e.seed), true)
	if err == nil || !strings.Contains(err.Error(), "bytes hash to") {
		t.Fatalf("corrupted segment went unnoticed: err=%v", err)
	}
	if e.failed == 0 {
		t.Fatalf("corrupted segment not counted as a failed operation")
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, q2, q3 := quartiles([]float64{46, 1, 2, 4, 37, 7, 11, 16, 22, 29})
	if q1 != 3.5 || q2 != 13.5 || q3 != 31 {
		t.Fatalf("quartiles = %v %v %v, want 3.5 13.5 31", q1, q2, q3)
	}
}

func TestCompareVerdicts(t *testing.T) {
	sp := &spec{EndToEnd: []metricSpec{{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.1}}}
	sp.Workloads = append(sp.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "w"})
	set := func(vals ...float64) []resultFile {
		var out []resultFile
		for i, v := range vals {
			out = append(out, resultFile{Workload: "w", Seed: int64(i), Metrics: map[string]metricValue{
				"ops_per_s": {v, "1/s"}, "virt.x": {1, "ms"}}})
		}
		return out
	}
	for _, tc := range []struct {
		name    string
		a, b    []resultFile
		verdict string
		code    int
	}{
		{"same", set(100, 101, 99, 100), set(99, 100, 101, 100), "same", 0},
		{"regressed", set(100, 101, 99, 100), set(80, 81, 79, 80), "regressed", 1},
		{"unresolved", set(100, 140, 60, 100), set(100, 135, 65, 100), "unresolved", 1},
		{"noisy but all better", set(100, 140, 60, 100), set(300, 340, 260, 300), "same", 0},
	} {
		var out bytes.Buffer
		code := compareResults(sp, tc.a, tc.b, &out)
		if code != tc.code || !strings.Contains(out.String(), " "+tc.verdict+" ") {
			t.Errorf("%s: code %d, output:\n%s", tc.name, code, out.String())
		}
	}
	b := set(100, 101, 99, 100)
	b[2].Metrics["virt.x"] = metricValue{2, "ms"}
	var out bytes.Buffer
	if compareResults(sp, set(100, 101, 99, 100), b, &out) != 1 || !strings.Contains(out.String(), "differs at seed 2") {
		t.Errorf("changed virtual metric went unnoticed:\n%s", out.String())
	}
}
