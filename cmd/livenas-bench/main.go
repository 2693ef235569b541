// Command livenas-bench regenerates the paper's tables and figures.
//
// Usage:
//
//	livenas-bench -list
//	livenas-bench -fig fig9
//	livenas-bench -all
//	livenas-bench -all -full          # full-scale (slow) mode
//	livenas-bench -fig fig20 -seed 3  # sensitivity re-run
//	livenas-bench -all -parallel 8 -cache-dir .livenas-cache
//
// Each experiment's sessions run on a sweep engine: -parallel bounds how
// many execute concurrently (0 = GOMAXPROCS) and -cache-dir persists
// session results so re-runs skip already-computed sessions. Results are
// byte-identical for any -parallel value and for warm or cold caches.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"time"

	"livenas/internal/exp"
	"livenas/internal/sweep"
	"livenas/internal/telemetry"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list available experiments")
		fig      = flag.String("fig", "", "run one experiment by id")
		all      = flag.Bool("all", false, "run every experiment")
		full     = flag.Bool("full", false, "full-scale mode (slower, larger frames)")
		seed     = flag.Int64("seed", 0, "seed offset for sensitivity runs")
		traces   = flag.Int("traces", 0, "traces per data point (0 = default)")
		dur      = flag.Duration("dur", 0, "per-session stream duration (0 = default)")
		timings  = flag.Bool("time", true, "print per-experiment wall time and sweep stats")
		parallel = flag.Int("parallel", 0, "concurrent sessions per sweep (0 = GOMAXPROCS)")
		cacheDir = flag.String("cache-dir", "", "session-result cache directory (empty = no cache)")
		summary  = flag.String("summary", "", "run one representative LiveNAS session and write its telemetry summary JSON to this file")
		fleetN   = flag.Int("fleet", 0, "fleet experiment streamer count N (0 = default 6)")
		gpus     = flag.Int("gpus", 0, "fleet experiment GPU-pool size M (0 = default 2)")
		quant    = flag.Bool("quant", false, "route inference through the int8-quantized fast path (0.5 dB online quality gate)")
		anytime  = flag.Duration("anytime", 0, "per-frame anytime-scheduling deadline, e.g. 33ms (0 = off; implies patch-level int8/f32/bilinear mixing)")
	)
	flag.Parse()

	o := exp.DefaultOptions()
	o.Fast = !*full
	o.Seed = *seed
	o.Traces = *traces
	o.Duration = *dur
	o.QuantInt8 = *quant
	o.AnytimeBudget = *anytime
	o.FleetStreams = *fleetN
	o.FleetGPUs = *gpus

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var cache *sweep.Cache
	if *cacheDir != "" {
		var err error
		if cache, err = sweep.Open(*cacheDir); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	switch {
	case *summary != "":
		s := exp.RunSummary(o)
		if err := telemetry.WriteSummaryFile(*summary, s); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("telemetry summary written to %s (scheme %s, duty cycle %.2f, infer p50 %.2f ms)\n",
			*summary, s.Scheme, s.TrainerDutyCycle, s.InferP50MS)
	case *list:
		for _, e := range exp.Registry {
			fmt.Printf("%-12s %s\n", e.ID, e.Desc)
		}
	case *fig != "":
		e, err := exp.Find(*fig)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		runOne(ctx, e, o, *parallel, cache, *timings)
	case *all:
		for _, e := range exp.Registry {
			runOne(ctx, e, o, *parallel, cache, *timings)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// runOne runs one experiment on a fresh sweep runner (so per-sweep stats
// are per-experiment; the cache is shared across experiments).
//
//livenas:allow determinism-taint wall-clock timing report only; never feeds results
func runOne(ctx context.Context, e exp.Experiment, o exp.Options, workers int, cache *sweep.Cache, timings bool) {
	start := time.Now()
	r := sweep.New(ctx, sweep.Options{Workers: workers, Cache: cache})
	defer func() {
		// A cancelled sweep surfaces as a panic from the figure generator
		// (the table contract has no error channel); exit 130 like any
		// interrupted CLI instead of dumping the panic.
		if p := recover(); p != nil {
			if ctx.Err() != nil {
				fmt.Fprintf(os.Stderr, "[%s interrupted: %v]\n", e.ID, ctx.Err())
				os.Exit(130)
			}
			panic(p)
		}
	}()
	for _, t := range e.Run(ctx, o, r) {
		fmt.Println(t)
	}
	if timings {
		s := r.Stats()
		fmt.Printf("[%s finished in %v: %d sessions (%d executed, %d cached, %d shared), %v simulated GPU, %d workers]\n\n",
			e.ID, time.Since(start).Truncate(time.Millisecond),
			s.Submitted, s.Executed, s.Cached, s.Submitted-s.Started,
			s.SimGPU.Truncate(time.Millisecond), s.Workers)
	}
}
