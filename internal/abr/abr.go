// Package abr implements the distribution side of Figure 1: an HTTP
// adaptive-streaming simulator with the paper's QoE metric (§8.3), the
// robustMPC ABR algorithm (Yin et al. 2015), a Pensieve-like learned-policy
// stand-in (see DESIGN.md substitution #6), and the effective-bitrate
// mapping that translates LiveNAS's PSNR gains into the bitrate domain the
// QoE metric consumes.
package abr

import (
	"math"
	"time"

	"livenas/internal/metrics"
	"livenas/internal/trace"
)

// Rung is one rung of the distribution bitrate ladder: a nominal encoding
// bitrate and the effective bitrate viewers perceive. For WebRTC-sourced
// content the two are equal; for LiveNAS-sourced content the effective
// bitrate is inflated by the inverse quality mapping (§8.3: "we created an
// inverse mapping from video quality to the corresponding bitrate ... This
// allows us to obtain the 'effective bitrate' of video chunks").
type Rung struct {
	Name          string
	Kbps          float64 // network cost of a chunk at this rung
	EffectiveKbps float64 // perceived-quality bitrate used by the QoE metric
}

// EffectiveBitrate inverts the logarithmic rate-quality model used by the
// scheduler's curves: given the PSNR delivered when spending baseKbps, and
// the PSNR actually delivered (after super-resolution), it returns the
// bitrate WebRTC encoding would need for the same PSNR.
func EffectiveBitrate(baseKbps, basePSNR, actualPSNR float64) float64 {
	if baseKbps <= 0 {
		return 0
	}
	// Local slope of the log rate-quality curve: dQ/dlog2(rate) ~ beta dB
	// per doubling; 3 dB per doubling is the classic high-rate asymptote.
	const betaPerDoubling = 3.0
	return baseKbps * math.Pow(2, (actualPSNR-basePSNR)/betaPerDoubling)
}

// Ladder builds the distribution ladder for a target top resolution.
// with4K adds the 2K/4K rungs the paper adds for YouTube content.
func Ladder(with4K bool) []Rung {
	rungs := []Rung{
		{Name: "240p", Kbps: 400},
		{Name: "360p", Kbps: 800},
		{Name: "480p", Kbps: 1200},
		{Name: "720p", Kbps: 2400},
		{Name: "1080p", Kbps: 4500},
	}
	if with4K {
		rungs = append(rungs,
			Rung{Name: "2K", Kbps: 9000},
			Rung{Name: "4K", Kbps: 16000},
		)
	}
	for i := range rungs {
		rungs[i].EffectiveKbps = rungs[i].Kbps
	}
	return rungs
}

// Boost applies an effective-bitrate multiplier to every rung, modelling a
// higher-quality origin stream (LiveNAS ingest): each transcoded chunk
// carries more quality per bit.
func Boost(rungs []Rung, factor float64) []Rung {
	out := make([]Rung, len(rungs))
	copy(out, rungs)
	for i := range out {
		out[i].EffectiveKbps = out[i].Kbps * factor
	}
	return out
}

// SimConfig configures one adaptive-streaming playback simulation. Playback
// starts at rung 0 and plays trace length / chunk − 1 chunks, at least one.
type SimConfig struct {
	Rungs     []Rung
	Trace     *trace.Trace
	ChunkSec  float64       // chunk duration (default 2s, live-style)
	BufferCap time.Duration // max client buffer (default 8s for live)
}

func (c SimConfig) withDefaults() SimConfig {
	if c.ChunkSec <= 0 {
		c.ChunkSec = 2
	}
	if c.BufferCap <= 0 {
		c.BufferCap = 8 * time.Second
	}
	return c
}

// Result summarises one playback.
type Result struct {
	QoE         float64 // mean per-chunk linear QoE
	AvgKbps     float64 // mean effective bitrate played
	RebufferSec float64
	Switches    int
	RungCounts  []int
}

// Algorithm chooses the next chunk's rung.
type Algorithm interface {
	Name() string
	// Next returns the rung index for the next chunk given the measured
	// throughput history (kbps, most recent last) and the current buffer.
	Next(rungs []Rung, thrHistory []float64, buffer time.Duration) int
}

// Simulate plays the stream through the downlink trace using alg, computing
// the linear QoE of Pensieve/robustMPC (§8.3): sum over chunks of
// effective-bitrate utility minus rebuffering penalty minus smoothness
// penalty, normalised per chunk.
func Simulate(cfg SimConfig, alg Algorithm) Result {
	cfg = cfg.withDefaults()
	rungs := cfg.Rungs
	var (
		now      float64 // seconds
		buffer   float64 // seconds of video buffered
		prevEff  float64
		thr      []float64
		res      Result
		qoeTotal float64
	)
	res.RungCounts = make([]int, len(rungs))
	chunks := max(int(cfg.Trace.Duration().Seconds()/cfg.ChunkSec)-1, 1)
	rung := 0
	for i := 0; i < chunks; i++ {
		if i > 0 {
			rung = alg.Next(rungs, thr, time.Duration(buffer*float64(time.Second)))
		}
		if rung < 0 {
			rung = 0
		}
		if rung >= len(rungs) {
			rung = len(rungs) - 1
		}
		res.RungCounts[rung]++
		bits := rungs[rung].Kbps * 1000 * cfg.ChunkSec
		// Download through the trace, integrating capacity second by second.
		dl := downloadTime(cfg.Trace, now, bits)
		// Measured throughput for the ABR.
		thr = append(thr, bits/dl/1000)
		if len(thr) > 20 {
			thr = thr[1:]
		}
		// Buffer evolution.
		if dl > buffer {
			res.RebufferSec += dl - buffer
			buffer = 0
		} else {
			buffer -= dl
		}
		buffer += cfg.ChunkSec
		if max := cfg.BufferCap.Seconds(); buffer > max {
			// Client pauses requests until there is room; time passes.
			now += buffer - max
			buffer = max
		}
		now += dl

		// Linear QoE (Pensieve's formulation): bitrate in Mbps, 4.3x
		// rebuffer penalty, 1x smoothness penalty.
		eff := rungs[rung].EffectiveKbps / 1000
		qoe := eff - float64(4.3*chunkRebuffer(dl, buffer, cfg.ChunkSec)) - math.Abs(eff-prevEff)
		if i == 0 {
			qoe = eff
		}
		if prevEff != eff && i > 0 {
			res.Switches++
		}
		prevEff = eff
		qoeTotal += qoe
		res.AvgKbps += rungs[rung].EffectiveKbps
	}
	res.QoE = qoeTotal / float64(chunks)
	res.AvgKbps /= float64(chunks)
	return res
}

// chunkRebuffer approximates the rebuffering charged to the current chunk.
func chunkRebuffer(dl, bufferAfter, chunkSec float64) float64 {
	// If the buffer after accounting is only the fresh chunk, the download
	// stalled playback for the excess time.
	stall := dl - (bufferAfter - chunkSec) - chunkSec
	if stall < 0 {
		return 0
	}
	return stall
}

// downloadTime integrates trace capacity starting at now until bits are
// transferred, returning the elapsed seconds.
func downloadTime(tr *trace.Trace, now, bits float64) float64 {
	remaining := bits
	t := now
	for i := 0; i < 1<<20; i++ {
		rate := tr.RateAt(time.Duration(t * float64(time.Second)))
		if rate < 1 {
			rate = 1
		}
		// Time to the next whole-second trace boundary.
		step := 1.0 - (t - math.Floor(t))
		if step <= 0 {
			step = 1
		}
		can := rate * 1000 * step
		if can >= remaining {
			return t + remaining/(rate*1000) - now
		}
		remaining -= float64(can)
		t += step
	}
	return t - now
}

// --- robustMPC ---

// RobustMPC is the model-predictive ABR of Yin et al. 2015 with the robust
// throughput estimate (harmonic mean discounted by recent prediction error).
type RobustMPC struct {
	Horizon int // look-ahead chunks (default 5)

	lastErr float64
}

// Name implements Algorithm.
func (m *RobustMPC) Name() string { return "robustMPC" }

// Next implements Algorithm.
func (m *RobustMPC) Next(rungs []Rung, thr []float64, buffer time.Duration) int {
	h := m.Horizon
	if h <= 0 {
		h = 5
	}
	if len(thr) == 0 {
		return 0
	}
	// Robust throughput: harmonic mean of last 5 samples, discounted by the
	// max recent error.
	est := harmonicMean(tail(thr, 5))
	if len(thr) >= 2 {
		pred := harmonicMean(tail(thr[:len(thr)-1], 5))
		actual := thr[len(thr)-1]
		if pred > 0 {
			err := math.Abs(pred-actual) / actual
			if err > m.lastErr {
				m.lastErr = err
			} else {
				m.lastErr = float64(0.8*m.lastErr) + float64(0.2*err)
			}
		}
	}
	est /= 1 + m.lastErr

	// Exhaustive search over constant-rung plans of length h (constant
	// plans are within a whisker of full enumeration and O(R*h)).
	best, bestQ := 0, math.Inf(-1)
	const chunkSec = 2.0
	for r := range rungs {
		buf := buffer.Seconds()
		var q float64
		prev := rungs[r].EffectiveKbps / 1000 // no switch penalty on first
		for k := 0; k < h; k++ {
			dl := rungs[r].Kbps * chunkSec / est // seconds to fetch the chunk
			stall := dl - buf
			if stall < 0 {
				stall = 0
			}
			buf = buf - dl + stall + chunkSec
			if buf > 8 {
				buf = 8
			}
			eff := rungs[r].EffectiveKbps / 1000
			q += eff - float64(4.3*stall) - math.Abs(eff-prev)
			prev = eff
		}
		if q > bestQ {
			bestQ = q
			best = r
		}
	}
	return best
}

// --- Pensieve-like ---

// PensieveLike is the stand-in for Pensieve's learned policy: a hybrid
// throughput/buffer controller whose thresholds were tuned on the same
// trace families Pensieve trains on. It behaves slightly less conservatively
// than robustMPC at high buffers (the qualitative difference the paper
// reports: Pensieve <= 13% better on the Twitch video).
type PensieveLike struct{}

// Name implements Algorithm.
func (p *PensieveLike) Name() string { return "Pensieve" }

// Next implements Algorithm.
func (p *PensieveLike) Next(rungs []Rung, thr []float64, buffer time.Duration) int {
	if len(thr) == 0 {
		return 0
	}
	est := harmonicMean(tail(thr, 8))
	buf := buffer.Seconds()
	// Buffer-scaled aggressiveness: with a comfortable buffer, spend up to
	// ~93% of estimated throughput; with a thin buffer, hold a safety
	// margin — the qualitative policy RL converges to on these traces.
	frac := 0.55 + float64(0.38*math.Min(buf/8, 1))
	budget := est * frac
	best := 0
	for r := range rungs {
		if rungs[r].Kbps <= budget {
			best = r
		}
	}
	// Thin buffer: drop one rung pre-emptively.
	if buf < 2 && best > 0 {
		best--
	}
	return best
}

func harmonicMean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var inv float64
	for _, x := range xs {
		if x <= 0 {
			continue
		}
		inv += 1 / x
	}
	if inv == 0 {
		return 0
	}
	return float64(len(xs)) / inv
}

func tail(xs []float64, n int) []float64 {
	if len(xs) <= n {
		return xs
	}
	return xs[len(xs)-n:]
}

// MeanQoE runs the simulation over a set of traces and returns the mean QoE
// (the aggregation of Figure 20).
func MeanQoE(rungs []Rung, traces []*trace.Trace, alg Algorithm) float64 {
	var qs []float64
	for _, tr := range traces {
		r := Simulate(SimConfig{Rungs: rungs, Trace: tr}, alg)
		qs = append(qs, r.QoE)
	}
	return metrics.Mean(qs)
}
