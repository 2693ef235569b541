// Command benchmark is the repository benchmark: four workloads over the
// whole path (ingest sessions, the media server's HD data path, the
// distribution tree on the virtual clock, and the relay over loopback TCP),
// each measured end to end with tracing off and, in a separate traced run,
// split by layer. BENCHMARK.json at the repository root lists the workloads
// and metrics; README.md defines them.
//
//	bash benchmark/run.sh                         # every workload, timed
//	bash benchmark/run.sh -trace 1                # every workload, traced
//	bash benchmark/run.sh -workload serve_hd -seed 2 -seconds 20 -trace 0
//	bash benchmark/run.sh -repeat 10 -out A       # a result set for -compare
//	bash benchmark/run.sh -compare A B
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// workloads maps each name in BENCHMARK.json to its implementation.
var workloads = map[string]func(*env) error{
	"ingest_sweep": ingestSweep,
	"serve_hd":     serveHD,
	"edge_fanout":  edgeFanout,
	"relay_tcp":    relayTCP,
}

// buildDir holds everything a run leaves behind; .gitignore names it.
const buildDir = ".bench_build"

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "run this one workload in this process (default: all, one child process each)")
		seed     = fs.Int64("seed", 1, "offsets every content, trace and downlink seed")
		seconds  = fs.Float64("seconds", 0, "measure for at least this long (default: run_seconds of BENCHMARK.json)")
		trace    = fs.Int("trace", 0, "1 = the traced run: per-layer metrics and a Chrome trace file")
		repeat   = fs.Int("repeat", 1, "without -workload: runs per workload, at seeds seed, seed+1, ...")
		out      = fs.String("out", filepath.Join(buildDir, "out"), "directory for result and trace files")
		specPath = fs.String("spec", "BENCHMARK.json", "the benchmark definition")
		compare  = fs.Bool("compare", false, "compare two result directories: -compare A B")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	sp, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *seconds <= 0 {
		*seconds = float64(sp.RunSeconds)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result directories")
			return 2
		}
		return compareSets(sp, fs.Arg(0), fs.Arg(1), stdout, stderr)
	case *workload == "":
		return runAll(sp, *seed, *seconds, *trace, *repeat, *out, *specPath, stdout, stderr)
	}
	if !sp.hasWorkload(*workload) || workloads[*workload] == nil {
		fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", *workload)
		return 2
	}
	e, err := newEnv(*workload, *seed, *seconds, *trace != 0, fullSizes, buildDir, *out)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	defer e.close()
	if err := runOne(sp, e, stdout); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// runAll runs every workload in its own child process, so that setup_s,
// iter_cpu_ms and peak_rss_mb are per workload.
func runAll(sp *spec, seed int64, seconds float64, trace, repeat int, out, specPath string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	code := 0
	for _, w := range sp.Workloads {
		for r := 0; r < repeat; r++ {
			cmd := exec.Command(self,
				"-workload", w.Name, "-seed", fmt.Sprint(seed+int64(r)), "-seconds", fmt.Sprint(seconds),
				"-trace", fmt.Sprint(trace), "-out", out, "-spec", specPath)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "benchmark: %s seed %d: %v\n", w.Name, seed+int64(r), err)
				code = 1
			}
		}
	}
	return code
}

// resultFile is what one run writes beside its trace: every number with
// the machine, build, seed and frozen op counts it came from.
type resultFile struct {
	Workload    string                 `json:"workload"`
	Seed        int64                  `json:"seed"`
	Seconds     float64                `json:"seconds"`
	Trace       bool                   `json:"trace"`
	Host        map[string]any         `json:"host"`
	OpCounts    sizes                  `json:"op_counts"`
	Iterations  int                    `json:"iterations"`
	Samples     map[string][]float64   `json:"samples,omitempty"` // per-iteration values behind the medians
	Correct     bool                   `json:"correct"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Problems    []string               `json:"problems,omitempty"`
	Metrics     map[string]metricValue `json:"metrics"`
	LayerShares map[string]float64     `json:"layer_shares,omitempty"`
	TraceFile   string                 `json:"trace_file,omitempty"`
}

// runOne runs e's workload, prints every metric with its unit, writes the
// result file (and the Chrome trace of a traced run), and prints the result
// line last. A failed output check makes it return an error after the line.
func runOne(sp *spec, e *env, stdout io.Writer) error {
	if err := workloads[e.workload](e); err != nil {
		return fmt.Errorf("%s: %w", e.workload, err)
	}
	e.set("peak_rss_mb", peakRSSMB())
	if e.attempted < 1 {
		e.check(false, "%s: no operation attempted", e.workload)
		e.attempted = 1
	}
	line := resultLine{Correct: len(e.problems) == 0, Attempted: e.attempted, Failed: e.failed}
	var err error
	if line.Metrics, err = sp.selectMetrics(e.metrics, e.trace); err != nil {
		return err
	}

	units := map[string]string{}
	for _, m := range append(append([]metricSpec(nil), sp.EndToEnd...), sp.PerLayer...) {
		units[m.Name] = m.Unit
	}
	rf := resultFile{
		Workload: e.workload, Seed: e.seed, Seconds: e.seconds, Trace: e.trace,
		Host: hostFacts(), OpCounts: e.sz, Iterations: e.iterations, Samples: e.samples,
		Correct: line.Correct, Attempted: e.attempted, Failed: e.failed, Problems: e.problems,
		Metrics: map[string]metricValue{}, LayerShares: e.shares,
	}
	for name, v := range e.metrics {
		rf.Metrics[name] = metricValue{v, units[name]}
	}
	base := fmt.Sprintf("%s-seed%d-trace%d", e.workload, e.seed, b2i(e.trace))
	if e.trace {
		if err := e.tr.Validate(); err != nil {
			return fmt.Errorf("span tree: %w", err)
		}
		rf.TraceFile = filepath.Join(e.outDir, base+".trace.json")
		if err := e.tr.WriteChrome(rf.TraceFile); err != nil {
			return err
		}
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(e.outDir, base+".json"), data, 0o644); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "== %s  seed %d  trace %d  %d iterations  attempted %d  failed %d\n",
		e.workload, e.seed, b2i(e.trace), e.iterations, e.attempted, e.failed)
	printSorted(stdout, "  ", rf.Metrics)
	if e.trace {
		fmt.Fprintln(stdout, "  layer shares of traced time (bench = residual):")
		shares := map[string]metricValue{}
		for layer, s := range e.shares {
			shares[layer] = metricValue{s, "share"}
		}
		printSorted(stdout, "    ", shares)
	}
	for _, p := range e.problems {
		fmt.Fprintln(stdout, "  CHECK FAILED:", p)
	}
	last, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(last))
	if !line.Correct {
		return errors.New("output checks failed")
	}
	return nil
}

func printSorted(w io.Writer, indent string, ms map[string]metricValue) {
	names := make([]string, 0, len(ms))
	for name := range ms {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%s%-34s %14.4f %s\n", indent, name, ms[name].Value, ms[name].Unit)
	}
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
