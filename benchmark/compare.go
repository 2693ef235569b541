package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (the default, exclusive method), which
// is what the acceptance check of the benchmark contract uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := i*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// loadResults reads every result file of one directory.
func loadResults(dir string) ([]resultFile, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	var out []resultFile
	for _, p := range paths {
		if strings.HasSuffix(p, ".trace.json") {
			continue
		}
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		out = append(out, rf)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%s: no result files", dir)
	}
	return out, nil
}

// compareSets applies BENCHMARK.json's bounds to two result sets. Per
// (end-to-end metric, workload) it prints same / regressed / unresolved
// (the spread between quartiles is wider than the bound, and B's runs are
// not all better than A's) with each side's median and quartiles; the
// virtual-clock metrics must match exactly at equal seeds. It returns 1
// unless every pair is "same".
func compareSets(sp *spec, dirA, dirB string, stdout, stderr io.Writer) int {
	a, err := loadResults(dirA)
	if err == nil {
		var b []resultFile
		if b, err = loadResults(dirB); err == nil {
			return compareResults(sp, a, b, stdout)
		}
	}
	fmt.Fprintln(stderr, "benchmark:", err)
	return 2
}

func compareResults(sp *spec, a, b []resultFile, stdout io.Writer) int {
	values := func(set []resultFile, workload, metric string) []float64 {
		var vs []float64
		for _, rf := range set {
			if v, ok := rf.Metrics[metric]; ok && rf.Workload == workload && !rf.Trace {
				vs = append(vs, v.Value)
			}
		}
		return vs
	}
	bad := 0
	fmt.Fprintf(stdout, "%-13s %-14s %-10s %12s %25s %12s %25s %8s %6s\n",
		"workload", "metric", "verdict", "median A", "quartiles A", "median B", "quartiles B", "worse %", "bound")
	for _, w := range sp.Workloads {
		for _, m := range sp.EndToEnd {
			va, vb := values(a, w.Name, m.Name), values(b, w.Name, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Fprintf(stdout, "%-13s %-14s %-10s (A has %d runs, B has %d)\n", w.Name, m.Name, "missing", len(va), len(vb))
				bad++
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			worse := (b2 - a2) / a2
			allBetter := minOf(vb) > maxOf(va)
			if m.Better == "higher" {
				worse = -worse
			} else {
				allBetter = maxOf(vb) < minOf(va)
			}
			spread := max((a3-a1)/a2, (b3-b1)/a2)
			verdict := "same"
			switch {
			case spread > m.Bound && !allBetter:
				verdict = "unresolved"
			case worse > m.Bound:
				verdict = "regressed"
			}
			if verdict != "same" {
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-14s %-10s %12.4f %25s %12.4f %25s %+8.2f %6.2f\n",
				w.Name, m.Name, verdict, a2, fmt.Sprintf("[%.4f, %.4f]", a1, a3), b2, fmt.Sprintf("[%.4f, %.4f]", b1, b3), 100*worse, m.Bound)
		}
	}

	// Virtual-clock metrics are functions of the seed: exact match.
	type runKey struct {
		workload string
		seed     int64
		trace    bool
	}
	index := map[runKey]resultFile{}
	for _, rf := range a {
		index[runKey{rf.Workload, rf.Seed, rf.Trace}] = rf
	}
	matched, differ := 0, 0
	for _, rb := range b {
		ra, ok := index[runKey{rb.Workload, rb.Seed, rb.Trace}]
		if !ok {
			continue
		}
		for name, vb := range rb.Metrics {
			va, ok := ra.Metrics[name]
			if !ok || !strings.HasPrefix(name, "virt.") {
				continue
			}
			matched++
			if va.Value != vb.Value {
				differ++
				fmt.Fprintf(stdout, "%-13s %-24s differs at seed %d: %v vs %v\n", rb.Workload, name, rb.Seed, va.Value, vb.Value)
			}
		}
	}
	fmt.Fprintf(stdout, "virtual-clock metrics: %d compared at equal seeds, %d differ\n", matched, differ)
	if bad+differ > 0 {
		return 1
	}
	return 0
}

func minOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = min(m, x)
	}
	return m
}

func maxOf(xs []float64) float64 {
	m := xs[0]
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}
