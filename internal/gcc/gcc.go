// Package gcc implements a Google-Congestion-Control-style sender-side rate
// controller (Carlucci et al., MMSys'16), the bandwidth estimator WebRTC —
// and therefore LiveNAS — runs on (§2). It combines a delay-gradient
// (trendline) detector with a loss-based controller and AIMD rate updates.
//
// The controller's deliberately conservative behaviour (backing off on
// queuing-delay growth well before loss) is what makes live ingest use only
// "55-64% of what the network actually allows" (§3) — the headroom
// super-resolution converts into quality.
package gcc

import (
	"sort"
	"time"
)

// Ack reports one delivered packet back to the sender.
type Ack struct {
	Seq    int
	Size   int // bytes
	SentAt time.Duration
	RecvAt time.Duration
}

// State is the delay-controller state machine's state.
type State int

const (
	StateIncrease State = iota
	StateHold
	StateDecrease
)

func (s State) String() string {
	switch s {
	case StateIncrease:
		return "increase"
	case StateHold:
		return "hold"
	default:
		return "decrease"
	}
}

// Config holds controller tuning. Zero values select defaults.
type Config struct {
	InitKbps float64 // starting estimate (default 600)
	MinKbps  float64 // floor (default 50)
	MaxKbps  float64 // ceiling (default 50000)
	// SlopeThresholdMs is the delay-trend threshold in ms of queuing-delay
	// growth per second of send time before overuse is declared (default 2).
	SlopeThresholdMs float64
	// Beta is the multiplicative decrease applied to the measured receive
	// rate on overuse (default 0.85, as in GCC).
	Beta float64
}

func (c Config) withDefaults() Config {
	if c.InitKbps <= 0 {
		c.InitKbps = 600
	}
	if c.MinKbps <= 0 {
		c.MinKbps = 50
	}
	if c.MaxKbps <= 0 {
		c.MaxKbps = 50000
	}
	if c.SlopeThresholdMs <= 0 {
		c.SlopeThresholdMs = 2
	}
	if c.Beta <= 0 {
		c.Beta = 0.85
	}
	return c
}

// Controller is the sender-side congestion controller. Call OnFeedback for
// every feedback report (typically every ~100 ms) and read TargetKbps.
// It is not safe for concurrent use.
type Controller struct {
	cfg   Config
	rate  float64 // current target, kbps
	state State

	lastFeedback time.Duration
	lastDecrease time.Duration

	// Delay-trend estimator state: per-send-time-bin minimum one-way delay
	// over a sliding window, plus an EWMA of the fitted slope. Binning with
	// a min filter removes per-packet serialisation noise (small vs large
	// packets) the way GCC's inter-group arrival filter does.
	bins          map[int64]float64 // bin index -> min OWD (ms)
	maxBin        int64
	smoothedSlope float64

	// avgMeasured smooths the per-report receive rate (kbps): a single
	// ~100 ms window can hold zero or one packets at low rates, so raw
	// per-window rates are far too noisy to back off against.
	avgMeasured float64

	// threshold is the adaptive overuse threshold (GCC's gamma adaptation):
	// it inflates when benign periodic spikes (key-frame bursts) keep
	// brushing it and relaxes back toward the configured floor.
	threshold float64
}

// New creates a controller.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{cfg: cfg, rate: cfg.InitKbps, state: StateIncrease,
		bins: make(map[int64]float64), threshold: cfg.SlopeThresholdMs}
}

// Delay-trend estimator constants.
const (
	binWidth   = 20 * time.Millisecond // send-time bin for the min-OWD filter
	windowBins = 50                    // sliding window: ~1 s of send time
)

// observeDelays folds a feedback report's acks into the bin window and
// returns the smoothed delay slope in ms of OWD growth per second.
func (c *Controller) observeDelays(acks []Ack) float64 {
	for _, a := range acks {
		bin := int64(a.SentAt / binWidth)
		owd := (a.RecvAt - a.SentAt).Seconds() * 1000
		if v, ok := c.bins[bin]; !ok || owd < v {
			c.bins[bin] = owd
		}
		if bin > c.maxBin {
			c.maxBin = bin
		}
	}
	for bin := range c.bins {
		if bin < c.maxBin-windowBins {
			delete(c.bins, bin)
		}
	}
	if len(c.bins) < 3 {
		return c.smoothedSlope
	}
	// Least-squares fit of min-OWD vs bin time. The fold runs over the
	// bins in sorted order: float accumulation is not associative, so
	// iterating the map directly would make the slope — and through it the
	// whole rate trace — vary between bit-exact replays of one input.
	bins := make([]int64, 0, len(c.bins))
	for bin := range c.bins {
		bins = append(bins, bin)
	}
	sort.Slice(bins, func(i, j int) bool { return bins[i] < bins[j] })
	var n, sx, sy, sxx, sxy float64
	for _, bin := range bins {
		owd := c.bins[bin]
		x := time.Duration(bin-c.maxBin) * binWidth
		xs := x.Seconds()
		n++
		sx += xs
		sy += owd
		sxx += xs * xs
		sxy += xs * owd
	}
	den := n*sxx - sx*sx
	if den > 1e-12 {
		slope := (n*sxy - sx*sy) / den
		c.smoothedSlope = 0.6*c.smoothedSlope + 0.4*slope
	}
	return c.smoothedSlope
}

// TargetKbps returns the current send-rate target in kbps.
func (c *Controller) TargetKbps() float64 { return c.rate }

// State returns the delay controller's current state.
func (c *Controller) State() State { return c.state }

// OnFeedback processes one feedback report: the acks received since the
// previous report and the count of packets deemed lost in the interval.
func (c *Controller) OnFeedback(now time.Duration, acks []Ack, lost int) {
	defer func() { c.lastFeedback = now }()

	// ---- Measured receive rate over the feedback interval. ----
	var bytes int
	for _, a := range acks {
		bytes += a.Size
	}
	interval := now - c.lastFeedback
	if interval <= 0 {
		interval = 100 * time.Millisecond
	}
	measured := float64(bytes*8) / interval.Seconds() / 1000 // kbps
	if c.avgMeasured == 0 {
		c.avgMeasured = measured
	} else {
		c.avgMeasured = 0.8*c.avgMeasured + 0.2*measured
	}

	// ---- Loss controller. ----
	total := len(acks) + lost
	var lossRate float64
	if total > 0 {
		lossRate = float64(lost) / float64(total)
	}

	// ---- Delay controller: smoothed slope of per-bin minimum one-way
	// delay vs send time (trendline filter over a ~1 s sliding window). ----
	overuse, underuse := false, false
	slope := c.observeDelays(acks)
	switch {
	case slope > c.threshold:
		overuse = true
	case slope < -c.threshold:
		underuse = true
	}
	// Adapt the threshold (GCC gamma adaptation): grow while the slope
	// rides above it, decay toward the configured floor otherwise.
	mag := slope
	if mag < 0 {
		mag = -mag
	}
	if mag > c.threshold {
		c.threshold += 0.3 * (mag - c.threshold)
		if max := 10 * c.cfg.SlopeThresholdMs; c.threshold > max {
			c.threshold = max
		}
	} else {
		c.threshold += 0.05 * (c.cfg.SlopeThresholdMs - c.threshold)
	}

	switch {
	case lossRate > 0.10:
		// Heavy loss: multiplicative decrease proportional to loss.
		c.rate *= 1 - 0.5*lossRate
		c.state = StateDecrease
		c.lastDecrease = now
	case overuse:
		// Queues are building: drop below the (smoothed) delivery rate,
		// but never cut more than half in one event.
		target := c.cfg.Beta * c.avgMeasured
		if target > c.rate {
			target = c.rate * c.cfg.Beta
		}
		if floor := 0.5 * c.rate; target < floor {
			target = floor
		}
		c.rate = target
		c.state = StateDecrease
		c.lastDecrease = now
		c.smoothedSlope = 0 // restart trend detection after backing off
	case underuse:
		// Queues are draining: hold and let them empty.
		c.state = StateHold
	default:
		// Additive/multiplicative increase, but never ramp far beyond what
		// the path demonstrably delivered (GCC's 1.5x cap).
		c.state = StateIncrease
		growth := 1.06
		if now-c.lastDecrease < 3*time.Second {
			growth = 1.02 // cautious right after a back-off
		}
		next := c.rate * growth
		if c.avgMeasured > 0 && next > 1.5*c.avgMeasured && len(acks) > 0 {
			next = 1.5 * c.avgMeasured
			if next < c.rate {
				next = c.rate // don't decrease in the increase state
			}
		}
		c.rate = next
	}

	if c.rate < c.cfg.MinKbps {
		c.rate = c.cfg.MinKbps
	}
	if c.rate > c.cfg.MaxKbps {
		c.rate = c.cfg.MaxKbps
	}
}

// owdSlopeMsPerSec fits delay(sendTime) by least squares and returns the
// slope in milliseconds of delay growth per second.
func owdSlopeMsPerSec(acks []Ack) float64 {
	n := float64(len(acks))
	var sx, sy, sxx, sxy float64
	t0 := acks[0].SentAt
	for _, a := range acks {
		x := (a.SentAt - t0).Seconds()
		y := (a.RecvAt - a.SentAt).Seconds() * 1000
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	den := n*sxx - sx*sx
	if den < 1e-12 {
		return 0
	}
	return (n*sxy - sx*sy) / den
}
