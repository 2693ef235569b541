// Command bench-compare is the CI bench-regression gate. It compares a
// fresh run of the tracked kernel benchmarks (scripts/bench.sh -short)
// against the committed baseline BENCH_kernels.json and fails when any
// tracked bench — conv forward/backward, train epoch, 1080p inference —
// has regressed beyond the noise threshold.
//
// The compared figure is the kernel-vs-ref *speedup ratio*, not absolute
// ns/op: both variants run in the same process on the same machine, so the
// ratio cancels host speed and lets a laptop run validate against a
// baseline recorded elsewhere. Because -short runs each bench once, a
// single noisy scheduling event can dent one ratio; a failing comparison
// is retried with a fresh bench run (best ratio per bench wins) before the
// gate reports a regression.
//
// Usage:
//
//	bench-compare                         # run bench.sh -short, compare vs BENCH_kernels.json
//	bench-compare -current out.json       # compare an existing result file instead
//	bench-compare -threshold 0.25         # custom noise allowance (or env BENCH_NOISE)
//	bench-compare -summary run.json       # instead: validate a telemetry run-summary file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strconv"

	"livenas/internal/telemetry"
)

// variant mirrors one kernel/ref entry of scripts/bench.sh's JSON.
type variant struct {
	NsOp     float64 `json:"ns_op"`
	MBs      float64 `json:"mb_s"`
	BytesOp  float64 `json:"bytes_op"`
	AllocsOp float64 `json:"allocs_op"`
}

type entry struct {
	Kernel          variant `json:"kernel"`
	Ref             variant `json:"ref"`
	Speedup         float64 `json:"speedup"`
	AllocsReduction float64 `json:"allocs_reduction"`
}

type benchFile struct {
	GeneratedBy string           `json:"generated_by"`
	Go          string           `json:"go"`
	Short       bool             `json:"short"`
	Benches     map[string]entry `json:"benches"`
}

// tracked is the gate's bench set; a baseline or current file missing any
// of these is an error, not a silent pass.
var tracked = []string{
	"conv_forward", "conv_backward", "train_epoch", "inference_1080p",
	"inference_1080p_int8", "inference_4k",
}

func main() {
	var (
		baseline  = flag.String("baseline", "BENCH_kernels.json", "committed baseline JSON")
		current   = flag.String("current", "", "pre-recorded bench JSON to compare (default: run scripts/bench.sh -short)")
		threshold = flag.Float64("threshold", defaultThreshold(), "allowed fractional speedup drop before failing (env BENCH_NOISE overrides the default)")
		retries   = flag.Int("retries", 2, "extra bench runs on failure; best speedup per bench wins")
		summary   = flag.String("summary", "", "validate a telemetry run-summary JSON file instead of comparing benches")
	)
	flag.Parse()

	if *summary != "" {
		if err := validateSummary(*summary); err != nil {
			fmt.Fprintf(os.Stderr, "bench-compare: summary %s: %v\n", *summary, err)
			os.Exit(1)
		}
		return
	}

	base, err := readBenchFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: baseline: %v\n", err)
		os.Exit(1)
	}

	cur, err := currentBenches(*current)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench-compare: %v\n", err)
		os.Exit(1)
	}
	failed := compare(base, cur, *threshold)
	for attempt := 0; len(failed) > 0 && attempt < *retries && *current == ""; attempt++ {
		fmt.Printf("retrying (%d bench(es) below threshold; -short runs are noisy)\n", len(failed))
		again, err := currentBenches("")
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench-compare: retry: %v\n", err)
			os.Exit(1)
		}
		// Best-of: keep the higher speedup per bench across runs.
		for name, e := range again.Benches {
			if prev, ok := cur.Benches[name]; !ok || e.Speedup > prev.Speedup {
				cur.Benches[name] = e
			}
		}
		failed = compare(base, cur, *threshold)
	}

	report(base, cur, *threshold, failed)
	if len(failed) > 0 {
		os.Exit(1)
	}
}

func defaultThreshold() float64 {
	if s := os.Getenv("BENCH_NOISE"); s != "" {
		if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
			return v
		}
	}
	return 0.15
}

func readBenchFile(path string) (*benchFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f benchFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	for _, name := range tracked {
		e, ok := f.Benches[name]
		if !ok {
			return nil, fmt.Errorf("%s: tracked bench %q missing", path, name)
		}
		if e.Speedup <= 0 || e.Kernel.NsOp <= 0 || e.Ref.NsOp <= 0 {
			return nil, fmt.Errorf("%s: bench %q has non-positive timings", path, name)
		}
	}
	return &f, nil
}

// currentBenches loads path, or runs scripts/bench.sh -short into a temp
// file when path is empty.
func currentBenches(path string) (*benchFile, error) {
	if path != "" {
		return readBenchFile(path)
	}
	tmp, err := os.CreateTemp("", "bench_current_*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	cmd := exec.Command("scripts/bench.sh", "-short", "-o", tmp.Name())
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("scripts/bench.sh -short: %w", err)
	}
	return readBenchFile(tmp.Name())
}

// compare returns the tracked benches whose current speedup fell more than
// threshold below the baseline's. A tracked bench absent from either file is
// reported as failed explicitly: readBenchFile already rejects such files,
// but the gate must never turn a missing entry's zero value into a pass
// (e.g. if both sides dropped a key in the same edit).
func compare(base, cur *benchFile, threshold float64) []string {
	var failed []string
	for _, name := range tracked {
		b, okB := base.Benches[name]
		c, okC := cur.Benches[name]
		if !okB || !okC {
			fmt.Fprintf(os.Stderr, "bench-compare: tracked bench %q missing (baseline: %v, current: %v)\n", name, okB, okC)
			failed = append(failed, name)
			continue
		}
		if c.Speedup < b.Speedup*(1-threshold) {
			failed = append(failed, name)
		}
	}
	return failed
}

func report(base, cur *benchFile, threshold float64, failed []string) {
	bad := map[string]bool{}
	for _, name := range failed {
		bad[name] = true
	}
	fmt.Printf("%-16s %10s %10s %8s\n", "bench", "base x", "current x", "verdict")
	for _, name := range tracked {
		b, c := base.Benches[name], cur.Benches[name]
		verdict := "ok"
		if bad[name] {
			verdict = "REGRESSED"
		}
		fmt.Printf("%-16s %10.2f %10.2f %8s\n", name, b.Speedup, c.Speedup, verdict)
	}
	if len(failed) > 0 {
		fmt.Printf("bench-compare: %d bench(es) lost more than %.0f%% of their kernel-vs-ref speedup\n",
			len(failed), threshold*100)
	} else {
		fmt.Printf("bench-compare: all speedups within %.0f%% of baseline\n", threshold*100)
	}
}

// validateSummary checks a run-summary file the way the CI full tier does:
// it must parse, satisfy RunSummary.Validate, and carry the scheduler and
// counter fields downstream tooling keys on.
func validateSummary(path string) error {
	s, err := telemetry.ReadSummaryFile(path)
	if err != nil {
		return err
	}
	if len(s.Counters) == 0 {
		return fmt.Errorf("no counters recorded")
	}
	if s.AvgVideoKbps <= 0 {
		return fmt.Errorf("avg_video_kbps = %v, want > 0", s.AvgVideoKbps)
	}
	fmt.Printf("summary ok: scheme=%s content=%s target=%.0f kbps (video %.0f / patch %.0f, share %.3f) duty=%.2f infer p50/p99 %.2f/%.2f ms\n",
		s.Scheme, s.Content, s.AvgTargetKbps, s.AvgVideoKbps, s.AvgPatchKbps, s.PatchShare,
		s.TrainerDutyCycle, s.InferP50MS, s.InferP99MS)
	return nil
}
