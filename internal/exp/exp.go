// Package exp is the experiment harness: one entry point per table and
// figure of the paper's evaluation (see DESIGN.md's per-experiment index).
// Each experiment returns a Table whose rows reproduce the corresponding
// figure's series; cmd/livenas-bench prints and times them.
//
// Experiments run at a reduced spatial scale by default (Options.Fast):
// the full pipeline at 1/5 the linear resolution of the paper's setup with
// bitrates, MTU and scheduler constants scaled by the same frame-area
// factor. Every algorithm under test is resolution-agnostic, so the shape
// of each result is preserved while 300+ stream-hours collapse into CPU
// minutes. EXPERIMENTS.md records paper-vs-measured for each entry.
package exp

import (
	"fmt"
	"strings"
	"time"

	"livenas/internal/core"
	"livenas/internal/sweep"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// Table is a printable experiment result.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Add appends a row, formatting each cell.
func (t *Table) Add(cells ...any) {
	row := make([]string, len(cells))
	for i, c := range cells {
		switch v := c.(type) {
		case string:
			row[i] = v
		case float64:
			row[i] = fmt.Sprintf("%.2f", v)
		case time.Duration:
			row[i] = v.Truncate(100 * time.Microsecond).String()
		default:
			row[i] = fmt.Sprint(v)
		}
	}
	t.Rows = append(t.Rows, row)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			w := 8
			if i < len(widths) {
				w = widths[i]
			}
			fmt.Fprintf(&b, "%-*s  ", w, c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for _, r := range t.Rows {
		line(r)
	}
	if t.Notes != "" {
		fmt.Fprintf(&b, "-- %s\n", t.Notes)
	}
	return b.String()
}

// Options scales the harness.
type Options struct {
	// Fast selects the reduced-scale configuration (default true via
	// DefaultOptions). Full mode doubles the resolution and durations.
	Fast bool
	// Seed offsets all content/trace seeds for sensitivity runs.
	Seed int64
	// Traces is the number of network traces per point (default 2 fast,
	// 4 full).
	Traces int
	// Duration overrides the per-session stream length.
	Duration time.Duration
	// QuantInt8 routes every session's inference through the int8-quantized
	// fast path with the default 0.5 dB quality gate (core.Config.QuantInt8).
	QuantInt8 bool
	// AnytimeBudget sets the per-frame anytime-scheduling deadline on every
	// session (0 = off; see core.Config.AnytimeBudget).
	AnytimeBudget time.Duration
	// FleetStreams is the fleet experiment's streamer count N (default 6).
	FleetStreams int
	// FleetGPUs is the fleet experiment's GPU-pool size M (default 2).
	FleetGPUs int
	// EdgeMaxViewers caps the edge experiment's viewer fan-out sweep
	// (default 1000: the sweep runs 10/100/1000 viewers).
	EdgeMaxViewers int
}

// DefaultOptions returns the fast harness configuration.
func DefaultOptions() Options { return Options{Fast: true, Seed: 0} }

func (o Options) traces() int {
	if o.Traces > 0 {
		return o.Traces
	}
	if o.Fast {
		return 2
	}
	return 4
}

func (o Options) duration() time.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	if o.Fast {
		return 60 * time.Second
	}
	return 150 * time.Second
}

// Reduced-scale resolution classes. The linear divisor is 5 in fast mode
// and 2.5 (via 2x fast dims) in full mode; the x2/x3/x4 SR factors of the
// paper's ingest ladder are preserved exactly.
type worldScale struct {
	div        int
	native1080 trace.Resolution // "1080p-class" target
	native4K   trace.Resolution // "4K-class" target
	kbpsScale  float64          // bitrate scale vs the real world (≈ area ratio)
	mtu        int
}

func (o Options) world() worldScale {
	if o.Fast {
		return worldScale{
			div:        5,
			native1080: trace.Resolution{Name: "1080p/5", W: 384, H: 216},
			native4K:   trace.Resolution{Name: "4K/5", W: 768, H: 432},
			kbpsScale:  1.0 / 25,
			mtu:        240,
		}
	}
	return worldScale{
		div:        2,
		native1080: trace.Resolution{Name: "1080p/2", W: 960, H: 540},
		native4K:   trace.Resolution{Name: "4K/2", W: 1920, H: 1080},
		kbpsScale:  1.0 / 4,
		mtu:        600,
	}
}

// ingestFor divides a native class by the SR scale factor.
func ingestFor(native trace.Resolution, scale int) trace.Resolution {
	return trace.Resolution{
		Name: fmt.Sprintf("%s/x%d", native.Name, scale),
		W:    native.W / scale,
		H:    native.H / scale,
	}
}

// baseConfig builds a session config for a 1080p-class target at the given
// SR scale (2 => "540p" ingest, 3 => "360p" ingest).
func (o Options) baseConfig(cat vidgen.Category, scale int) core.Config {
	w := o.world()
	return o.configFor(cat, w.native1080, scale)
}

// fourKConfig builds a session config for a 4K-class target (scale 2 =>
// "1080p" ingest, 3 => "720p" ingest).
func (o Options) fourKConfig(cat vidgen.Category, scale int) core.Config {
	w := o.world()
	return o.configFor(cat, w.native4K, scale)
}

func (o Options) configFor(cat vidgen.Category, native trace.Resolution, scale int) core.Config {
	w := o.world()
	return core.Config{
		Cat:         cat,
		Seed:        100 + o.Seed,
		Native:      native,
		Ingest:      ingestFor(native, scale),
		FPS:         10,
		Duration:    o.duration(),
		Scheme:      core.SchemeLiveNAS,
		TrainPolicy: core.TrainAdaptive,
		// Patch size scales with the world (24px per 216 rows) so the grid
		// keeps the paper's 16x9 structure and patches span the content's
		// relative feature sizes at every resolution class.
		PatchSize:     24 * native.H / 216,
		Channels:      6,
		MetricEvery:   2 * time.Second,
		MinVideoKbps:  200 * w.kbpsScale * 5, // floor keeps a usable stream at tiny dims
		GCCInitKbps:   800 * w.kbpsScale * 5,
		StepKbps:      100 * w.kbpsScale * 5,
		InitPatchKbps: 100 * w.kbpsScale * 5,
		MinPatchKbps:  25 * w.kbpsScale * 5,
		MTU:           w.mtu,
		PretrainSeed:  99 + o.Seed,
		QuantInt8:     o.QuantInt8,
		AnytimeBudget: o.AnytimeBudget,
	}
}

// uplinks returns n uplink traces whose means follow the Fig-8 distribution,
// scaled into this world's bitrate regime.
func (o Options) uplinks(n int, seed int64) []*trace.Trace {
	w := o.world()
	means := trace.SampleFCCMeans(n, 1000+seed+o.Seed)
	out := make([]*trace.Trace, n)
	for i := range out {
		tr := trace.FCCUplink(2000+seed+o.Seed+int64(i)*7, o.duration()+time.Minute, means[i]*w.kbpsScale)
		out[i] = tr
	}
	return out
}

// wait unwraps a sweep handle inside a figure generator. The table contract
// has no error channel, so failures — invalid configs, a cancelled sweep —
// surface as panics, exactly as core.Run always has.
func wait(h *sweep.Handle) *core.Results {
	res, err := h.Wait()
	if err != nil {
		panic(err)
	}
	return res
}

// gainJob is a mean-gain measurement in flight: the WebRTC baseline and the
// scheme run for each trace, submitted to the sweep runner. Figures submit
// all their jobs first and collect afterwards, so every session of the
// figure is in the runner's queue before the first result is awaited; the
// runner memoizes the WebRTC baselines repeated across a figure's columns.
type gainJob struct{ web, run []*sweep.Handle }

// submitGain submits cfg across traces for scheme plus the WebRTC baseline.
func submitGain(r *sweep.Runner, cfg core.Config, traces []*trace.Trace, scheme core.Scheme) gainJob {
	var j gainJob
	for _, tr := range traces {
		c := cfg
		c.Trace = tr
		c.Scheme = core.SchemeWebRTC
		j.web = append(j.web, r.Go(c))
		c.Scheme = scheme
		j.run = append(j.run, r.Go(c))
	}
	return j
}

// mean collects the job: (meanGainDB, meanTrainShare, meanPSNR, basePSNR).
func (j gainJob) mean() (gain, share, psnr, base float64) {
	n := float64(len(j.web))
	for i := range j.web {
		web := wait(j.web[i])
		r := wait(j.run[i])
		gain += r.GainOver(web)
		share += r.TrainingShare()
		psnr += r.AvgPSNR
		base += web.AvgPSNR
	}
	return gain / n, share / n, psnr / n, base / n
}
