package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"path/filepath"
	"time"

	"livenas/internal/core"
	"livenas/internal/sweep"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// ingest_sweep: a batch job, what every figure sweep and tier-1 burn. Four
// fast-scale sessions (384x216 native, x2, 10 fps, 6 channels, as
// exp.Options.baseConfig builds them) through sweep.Runner{Workers: 1} with
// an on-disk cache: {WebRTC, LiveNAS} x {JustChatting over an FCC uplink,
// Fortnite over trace.ThreeG with 1% loss}, both traces scaled into the fast
// world's bitrate regime the way exp.Options.uplinks does. The primary leg
// is the cold sweep; the secondary leg re-collects the same grid from the
// warm cache with fresh runners.

const (
	ingestFPS        = 10
	ingestKbpsScale  = 1.0 / 25 // exp's fast world: bitrates scale with frame area
	ingestWarmPasses = 50       // warm re-collections per iteration

	// ingestUplinkKbps is the FCC uplink's mean before scaling, the middle
	// of the Fig-8 distribution exp.Options.uplinks samples from. The seed
	// picks the trace's shape, not its mean: the mean sets the encoder's
	// bitrate, and with it how much work a stream-second is.
	ingestUplinkKbps = 3000
)

// ingestBase mirrors exp.Options{Fast: true}.baseConfig(cat, 2).
func ingestBase(cat vidgen.Category, seed int64, dur time.Duration) core.Config {
	native := trace.Resolution{Name: "1080p/5", W: 384, H: 216}
	return core.Config{
		Cat:           cat,
		Seed:          100 + seed,
		Native:        native,
		Ingest:        trace.Resolution{Name: "1080p/5/x2", W: native.W / 2, H: native.H / 2},
		FPS:           ingestFPS,
		Duration:      dur,
		Scheme:        core.SchemeLiveNAS,
		TrainPolicy:   core.TrainAdaptive,
		PatchSize:     24 * native.H / 216,
		Channels:      6,
		MetricEvery:   2 * time.Second,
		MinVideoKbps:  200 * ingestKbpsScale * 5,
		GCCInitKbps:   800 * ingestKbpsScale * 5,
		StepKbps:      100 * ingestKbpsScale * 5,
		InitPatchKbps: 100 * ingestKbpsScale * 5,
		MinPatchKbps:  25 * ingestKbpsScale * 5,
		MTU:           240,
		PretrainSeed:  99 + seed,
	}
}

// ingestGrid is one iteration's inputs: per pair, the WebRTC and the
// LiveNAS config over the same content and uplink.
type ingestGrid struct {
	web, live []core.Config
}

func buildIngestGrid(sz sizes, seed int64) ingestGrid {
	dur := time.Duration(sz.SessionSeconds) * time.Second
	pairs := []core.Config{
		ingestBase(vidgen.JustChatting, seed, dur),
		ingestBase(vidgen.Fortnite, seed, dur),
	}
	pairs[0].Trace = trace.FCCUplink(2000+seed, dur+time.Minute, ingestUplinkKbps*ingestKbpsScale)
	pairs[1].Trace = trace.ThreeG(3000+seed, dur+time.Minute).Scale(ingestKbpsScale * 5)
	pairs[1].LossRate = 0.01
	var g ingestGrid
	for _, c := range pairs {
		w := c
		w.Scheme = core.SchemeWebRTC
		g.web = append(g.web, w)
		g.live = append(g.live, c)
	}
	return g
}

// sweepRun is one collection of the grid through one runner.
type sweepRun struct {
	web, live []*core.Results
	wall      time.Duration
	stats     sweep.Stats
	sessionMS float64 // summed per-session wall time the runner reported
}

// collect submits the grid the way a two-column figure does (exp.submitGain:
// the WebRTC row, then the LiveNAS column with its WebRTC baseline
// resubmitted and memoized) and waits for it.
func collect(g ingestGrid, cacheDir string) (*sweepRun, error) {
	cache, err := sweep.Open(cacheDir)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	r := sweep.New(context.Background(), sweep.Options{Workers: 1, Cache: cache})
	var web, live []*sweep.Handle
	for i := range g.web {
		web = append(web, r.Go(g.web[i]))
		r.Go(g.web[i]) // the gain column's baseline: shares the execution
		live = append(live, r.Go(g.live[i]))
	}
	if _, err := r.Collect(); err != nil {
		return nil, err
	}
	run := &sweepRun{wall: time.Since(t0), stats: r.Stats()}
	for i := range web {
		w, _ := web[i].Wait() // resolved: Collect returned without error
		l, _ := live[i].Wait()
		run.web, run.live = append(run.web, w), append(run.live, l)
	}
	for _, ev := range r.Telemetry().EventsByType("sweep_session") {
		run.sessionMS += ev.NumField("wall_ms")
	}
	return run, nil
}

// resultBytes is a session's Results as the sweep cache would persist them;
// two runs of one config must produce identical bytes.
func resultBytes(r *core.Results) []byte {
	r.TrainerTimeline() // materialised from live telemetry, as sweep.Cache.Put does
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(r); err != nil {
		panic(fmt.Sprintf("encoding results: %v", err)) // plain data: cannot fail
	}
	return buf.Bytes()
}

// checkSession applies the per-session output checks.
func (e *env) checkSession(r *core.Results) {
	name := fmt.Sprintf("ingest_sweep %v/%v", r.Cfg.Cat, r.Cfg.Scheme)
	captured := int(r.Cfg.Duration.Seconds() * r.Cfg.FPS)
	got := r.FramesDecoded + r.FramesLost
	// Frames still in the pacer or on the link when the stream ends are
	// neither decoded nor lost, so the two need not add up to the frames
	// captured; they can never exceed them, and most frames must arrive.
	e.check(got <= captured && got*2 >= captured, "%s: decoded %d + lost %d does not fit %d captured", name, r.FramesDecoded, r.FramesLost, captured)
	e.check(len(r.Samples) > 0 && r.AvgPSNR > 10, "%s: no usable quality samples (avg PSNR %.2f dB)", name, r.AvgPSNR)
}

func ingestSweep(e *env) error {
	e.beginSetup()
	e.once(func() {
		// core pre-trains its generic model once per process, inside the
		// first session that needs it; a one-second session pays that here.
		warm := buildIngestGrid(e.sz, e.seed).live[0]
		warm.Duration = time.Second
		if _, err := core.RunContext(context.Background(), warm); err != nil {
			e.check(false, "ingest_sweep warm-up: %v", err)
		}
	})
	grid := repeatSetup(e, func() ingestGrid { return buildIngestGrid(e.sz, e.seed) })
	e.finishSetup()
	if e.trace {
		return ingestTraced(e, grid)
	}

	var first *sweepRun
	var overheadMS, warmMS []float64
	err := e.measure(func(i int, _ *Track) (leg, leg, error) {
		g := grid
		if i > 0 {
			// Fresh content every iteration: a process-wide memo of source
			// frames must not turn later iterations into cache hits.
			g = buildIngestGrid(e.sz, e.seed+int64(i)*7919)
		}
		dir := filepath.Join(e.tmpDir, fmt.Sprintf("cache%d", i))
		cold, err := collect(g, dir)
		if err != nil {
			return leg{}, leg{}, err
		}
		var warm *sweepRun
		passMS := make([]float64, ingestWarmPasses)
		for p := range passMS {
			if warm, err = collect(g, dir); err != nil {
				return leg{}, leg{}, err
			}
			passMS[p] = ms(warm.wall)
		}
		// The leg's wall time is the median pass, scaled: one pass is under a
		// millisecond, and a single scheduling hiccup would own a plain sum.
		warmWall := time.Duration(median(passMS) * ingestWarmPasses * float64(time.Millisecond))
		e.ingestChecks(cold, warm)
		if i == 0 {
			first = cold
		}
		overheadMS = append(overheadMS, ms(cold.wall)-cold.sessionMS)
		warmMS = append(warmMS, median(passMS))
		sessions := float64(cold.stats.Executed)
		return leg{ops: sessions * float64(e.sz.SessionSeconds), wall: cold.wall},
			leg{ops: sessions * ingestWarmPasses, wall: warmWall}, nil
	})
	if err != nil {
		return err
	}
	e.ingestVirtual(first)
	e.set("sweep.overhead_ms", median(overheadMS))
	e.set("sweep.warm_cache_ms", median(warmMS))
	e.set("sweep.memo_shared", float64(first.stats.Submitted-first.stats.Started))

	// Determinism pin: a second run of one config, outside the sweep, must
	// be byte-identical to the sweep's.
	again, err := core.RunContext(context.Background(), grid.web[0])
	if err != nil {
		return err
	}
	e.check(bytes.Equal(resultBytes(again), resultBytes(first.web[0])), "ingest_sweep: a second core.RunContext of one config is not byte-identical")
	return nil
}

// ingestChecks applies the output checks to one cold sweep and its warm
// re-collection.
func (e *env) ingestChecks(cold, warm *sweepRun) {
	n := len(cold.web) + len(cold.live)
	e.attempted += n
	before := len(e.problems)
	e.check(cold.stats.Executed == n && cold.stats.Failed == 0, "ingest_sweep: cold sweep executed %d sessions (%d failed), want %d", cold.stats.Executed, cold.stats.Failed, n)
	e.check(warm.stats.Cached == n && warm.stats.Executed == 0, "ingest_sweep: warm sweep read %d sessions from cache and executed %d, want %d and 0", warm.stats.Cached, warm.stats.Executed, n)
	for i := range cold.web {
		e.checkSession(cold.web[i])
		e.checkSession(cold.live[i])
		e.check(bytes.Equal(resultBytes(cold.web[i]), resultBytes(warm.web[i])) &&
			bytes.Equal(resultBytes(cold.live[i]), resultBytes(warm.live[i])),
			"ingest_sweep: warm-cache results of pair %d differ from the cold ones", i)
	}
	if len(e.problems) > before {
		e.failed += n
	}
}

// ingestVirtual reports the virtual-clock figures of one cold sweep: they
// are functions of the seed alone.
func (e *env) ingestVirtual(run *sweepRun) {
	var gain float64
	var latency time.Duration
	for i := range run.web {
		gain += run.live[i].GainOver(run.web[i])
		latency += run.web[i].AvgE2ELatency + run.live[i].AvgE2ELatency
	}
	pairs := float64(len(run.web))
	e.set("virt.psnr_gain_db", gain/pairs)
	e.set("virt.ingest_latency_ms", ms(latency)/(2*pairs))
	var lost int
	for _, r := range append(append([]*core.Results(nil), run.web...), run.live...) {
		lost += r.FramesLost
	}
	e.set("transport.units_lost", float64(lost))
}
