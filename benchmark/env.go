package main

import (
	"fmt"
	"os"
	"time"
)

// sizes are the frozen op counts: one iteration of a workload is this much
// work, and a run repeats iterations until --seconds has passed. They are
// recorded in every result file.
type sizes struct {
	CalibChunks  int `json:"calib_chunks"` // work units of one calibration kernel run (calib.go)
	SetupRepeats int `json:"setup_repeats"`
	SetupMinMS   int `json:"setup_min_ms"` // keep rebuilding cheap inputs until this much time is spent

	// ingest_sweep
	SessionSeconds int `json:"ingest_session_seconds"`

	// serve_hd
	HDNativeW     int `json:"serve_native_w"`
	HDNativeH     int `json:"serve_native_h"`
	ClipFrames    int `json:"serve_clip_frames"`
	LegFrames     int `json:"serve_leg_frames"`
	GoP           int `json:"serve_gop"`
	PatchEvery    int `json:"serve_patch_every"`
	EpochEvery    int `json:"serve_epoch_every"`
	QualityFrames int `json:"serve_quality_frames"`

	// edge_fanout
	Viewers  int `json:"fanout_viewers"`
	Segments int `json:"fanout_segments"`
	Fanout   int `json:"fanout_fanout"`

	// relay_tcp
	BulkIndexes  int `json:"relay_bulk_indexes"`
	SmallIndexes int `json:"relay_small_indexes"`
	SmallBytes   int `json:"relay_small_bytes"`
	PayloadPool  int `json:"relay_payload_pool"`
}

// fullSizes is the benchmark proper, sized for the 2-core box so that one
// iteration of any workload takes a few seconds.
var fullSizes = sizes{
	CalibChunks:    160,
	SetupRepeats:   3,
	SetupMinMS:     250,
	SessionSeconds: 20,
	HDNativeW:      768, HDNativeH: 432,
	ClipFrames: 80, LegFrames: 80, GoP: 40, PatchEvery: 6, EpochEvery: 40, QualityFrames: 40,
	Viewers: 500, Segments: 60, Fanout: 8,
	BulkIndexes: 500, SmallIndexes: 2500, SmallBytes: 256, PayloadPool: 16,
}

// smokeSizes runs every code path of every workload in well under a second
// each; bench_test.go uses it.
var smokeSizes = sizes{
	CalibChunks:    8,
	SetupRepeats:   1,
	SessionSeconds: 2,
	HDNativeW:      192, HDNativeH: 108,
	ClipFrames: 24, LegFrames: 24, GoP: 8, PatchEvery: 3, EpochEvery: 10, QualityFrames: 8,
	Viewers: 24, Segments: 8, Fanout: 4,
	BulkIndexes: 12, SmallIndexes: 40, SmallBytes: 256, PayloadPool: 4,
}

// env is one run of one workload: its inputs, and everything it measures.
type env struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sz       sizes
	outDir   string // result and trace files
	tmpDir   string // scratch (sweep caches); removed when the run ends

	tr *Tracer // the traced run's tracer; nil with --trace 0

	metrics   map[string]float64
	shares    map[string]float64 // layer -> self-time share of the traced run
	attempted int
	failed    int
	problems  []string // output checks that did not hold

	setupCalib time.Duration // calibration sample taken as set-up began
	onceDur    time.Duration
	repeatDurs []float64 // seconds
	iterations int
	samples    map[string][]float64 // per-iteration values behind the medians
}

// newEnv prepares a run: results go to outDir, scratch files to a temporary
// directory under tmpRoot.
func newEnv(workload string, seed int64, seconds float64, trace bool, sz sizes, tmpRoot, outDir string) (*env, error) {
	e := &env{
		workload: workload, seed: seed, seconds: seconds, trace: trace, sz: sz,
		outDir:  outDir,
		metrics: map[string]float64{},
	}
	for _, dir := range []string{tmpRoot, outDir} {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
	}
	tmp, err := os.MkdirTemp(tmpRoot, "tmp-"+workload+"-")
	if err != nil {
		return nil, err
	}
	e.tmpDir = tmp
	if trace {
		e.tr = NewTracer(workload, 20000)
	}
	return e, nil
}

func (e *env) close() { os.RemoveAll(e.tmpDir) }

func (e *env) set(name string, v float64) { e.metrics[name] = v }

// check records an output check; a violated check fails the run, whatever
// the metrics say.
func (e *env) check(ok bool, format string, args ...any) {
	if !ok {
		e.problems = append(e.problems, fmt.Sprintf(format, args...))
	}
}

// beginSetup takes the calibration sample set-up is referred to (the second
// call: the first allocates the kernel's arrays). Neither is part of setup_s.
func (e *env) beginSetup() {
	calibrate(e.sz.CalibChunks)
	e.setupCalib = calibrate(e.sz.CalibChunks)
}

// once times set-up work that a process can only do one time (process-wide
// caches such as core's generic-model pre-training).
func (e *env) once(fn func()) {
	t0 := time.Now()
	fn()
	e.onceDur += time.Since(t0)
}

// repeatSetup builds the workload's inputs at least SetupRepeats times,
// and cheap inputs more often (until SetupMinMS has been spent, at most
// setupMaxRepeats times), and keeps the last build; setup_s uses the median
// build time, which is what keeps it steady enough to bound.
func repeatSetup[T any](e *env, build func() T) T {
	var out T
	var total time.Duration
	minTotal := time.Duration(e.sz.SetupMinMS) * time.Millisecond
	for i := 0; i < e.sz.SetupRepeats || (total < minTotal && i < setupMaxRepeats); i++ {
		t0 := time.Now()
		out = build()
		d := time.Since(t0)
		total += d
		e.repeatDurs = append(e.repeatDurs, d.Seconds())
	}
	return out
}

const setupMaxRepeats = 100

// finishSetup sets setup_s: the one-time work plus the median repeatable
// build, referred to the reference machine speed (see calib.go).
func (e *env) finishSetup() {
	raw := e.onceDur.Seconds() + median(e.repeatDurs)
	e.set("setup_s", raw/speedFactor(e.setupCalib, calibrate(e.sz.CalibChunks)))
}

// leg is one timed part of an iteration: ops completed in wall.
type leg struct {
	ops  float64
	wall time.Duration
}

func (l leg) rate() float64 { return l.ops / l.wall.Seconds() }

// measure repeats iter until e.seconds have passed (at least once, twice
// when tracing) and reports the medians over iterations: ops_per_s from the
// primary leg, alt_ops_per_s from the secondary leg, iter_cpu_ms from the
// CPU time of whole iterations, each iteration referred to the reference
// machine speed by the calibration samples taken just before and after it.
// With tracing on, iterations alternate between a nil track and a recording
// one; trace_overhead_pct compares their median wall times.
func (e *env) measure(iter func(i int, tk *Track) (a, b leg, err error)) error {
	e.samples = map[string][]float64{}
	add := func(name string, v float64) { e.samples[name] = append(e.samples[name], v) }
	start := time.Now()
	before := calibrate(e.sz.CalibChunks)
	for i := 0; ; i++ {
		var tk *Track
		traced := e.trace && i%2 == 1
		if traced {
			tk = e.tr.Track(fmt.Sprintf("iter%d", i))
		}
		c0, t0 := cpuTime(), time.Now()
		tk.Begin(opBenchIter)
		a, b, err := iter(i, tk)
		tk.End()
		wall, used := time.Since(t0), cpuTime()-c0
		if err != nil {
			return err
		}
		// Long iterations get more samples: one per three seconds of work.
		after := calibrateMedian(e.sz.CalibChunks, 1+int(wall.Seconds()/3))
		f := speedFactor(before, after)
		before = after
		if traced {
			add("traced_wall_s", wall.Seconds()/f)
		} else {
			add("ops_per_s", a.rate()*f)
			add("alt_ops_per_s", b.rate()*f)
			add("iter_cpu_ms", ms(used)/f)
			add("wall_s", wall.Seconds()/f)
			add("speed_factor", f)
			add("raw_ops_per_s", a.rate())
			add("raw_alt_ops_per_s", b.rate())
			add("raw_iter_cpu_ms", ms(used))
		}
		e.iterations++
		if time.Since(start).Seconds() >= e.seconds && (!e.trace || len(e.samples["traced_wall_s"]) > 0) {
			break
		}
	}
	for _, name := range []string{"ops_per_s", "alt_ops_per_s", "iter_cpu_ms"} {
		e.set(name, median(e.samples[name]))
	}
	e.set("bench.speed_factor", median(e.samples["speed_factor"]))
	if e.trace {
		e.set("trace_overhead_pct", 100*(median(e.samples["traced_wall_s"])/median(e.samples["wall_s"])-1))
	}
	return nil
}

// foldTrace turns the traced run's aggregate into layer shares and the
// residual the benchmark's own loop accounts for.
func (e *env) foldTrace() *traceAgg {
	agg := e.tr.Aggregate()
	e.shares = agg.layerShares()
	e.set("bench.residual_share", e.shares["bench"])
	e.set("bench.spans", float64(agg.spans))
	return agg
}

var opBenchIter = defOp("bench", "iteration")
