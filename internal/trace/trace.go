// Package trace provides the network bandwidth traces the evaluation runs
// against. The paper uses 2019 FCC U.S. broadband uplink measurements
// (sampled to 25 traces with average uplink <= 10 Mbps), a 3G commute trace
// (Riiser et al. 2013), FCC downlink traces, and the Pensieve 3G/broadband
// set. None of those datasets ship with this repo, so each generator below
// synthesises traces matching the published aggregate statistics (mean
// bandwidth range, variability, dropout structure); see DESIGN.md
// substitution #5.
package trace

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Trace is a bandwidth time series with fixed sample spacing. Values are in
// kilobits per second. Reads beyond the end wrap around (traces loop), the
// convention Mahimahi uses.
type Trace struct {
	Name string
	DT   time.Duration
	Kbps []float64
}

// RateAt returns the link rate in kbps at virtual time t.
func (tr *Trace) RateAt(t time.Duration) float64 {
	if len(tr.Kbps) == 0 {
		return 0
	}
	i := int(t/tr.DT) % len(tr.Kbps)
	if i < 0 {
		i += len(tr.Kbps)
	}
	return tr.Kbps[i]
}

// Duration returns the trace length before it wraps.
func (tr *Trace) Duration() time.Duration {
	return time.Duration(len(tr.Kbps)) * tr.DT
}

// Avg returns the mean rate in kbps.
func (tr *Trace) Avg() float64 {
	if len(tr.Kbps) == 0 {
		return 0
	}
	var s float64
	for _, v := range tr.Kbps {
		s += v
	}
	return s / float64(len(tr.Kbps))
}

// Scale returns a copy with every sample multiplied by f (the bandwidth
// scale-factor experiments of Figures 2b and 13).
func (tr *Trace) Scale(f float64) *Trace {
	out := &Trace{Name: fmt.Sprintf("%s(x%.2f)", tr.Name, f), DT: tr.DT, Kbps: make([]float64, len(tr.Kbps))}
	for i, v := range tr.Kbps {
		out.Kbps[i] = v * f
	}
	return out
}

// gen is a seeded random-walk helper shared by the generators.
type gen struct{ rng *rand.Rand }

// walk synthesises n samples of a mean-reverting lognormal random walk:
// level wanders around mean with the given volatility, clipped to
// [floor, ceil] kbps.
func (g gen) walk(n int, mean, vol, floor, ceil float64) []float64 {
	out := make([]float64, n)
	level := math.Log(mean)
	target := math.Log(mean)
	for i := range out {
		level += float64(0.15*(target-level)) + float64(vol*g.rng.NormFloat64())
		v := math.Exp(level)
		if v < floor {
			v = floor
		}
		if v > ceil {
			v = ceil
		}
		out[i] = v
	}
	return out
}

// FCCUplink synthesises one FCC-style broadband uplink trace. meanKbps
// should come from SampleFCCMeans (the Fig-8 distribution). Broadband
// uplinks are comparatively stable with occasional dips.
func FCCUplink(seed int64, dur time.Duration, meanKbps float64) *Trace {
	g := gen{rand.New(rand.NewSource(seed))}
	dt := time.Second
	n := int(dur / dt)
	ks := g.walk(n, meanKbps, 0.10, 120, 40000)
	// Occasional short congestion dips (cross traffic).
	for i := 0; i < n; i++ {
		if g.rng.Float64() < 0.01 {
			depth := 0.3 + float64(0.4*g.rng.Float64())
			for j := i; j < i+5 && j < n; j++ {
				ks[j] *= depth
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("fcc-up-%d", seed), DT: dt, Kbps: ks}
}

// SampleFCCMeans draws n mean-uplink values (kbps) from the paper's Fig-8
// distribution: the 2019 FCC uplink CDF truncated at 10 Mbps (the top 38%
// above 10 Mbps is excluded). The shape is roughly log-uniform between
// 0.5 and 10 Mbps with mass concentrated in 1-8 Mbps.
func SampleFCCMeans(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	out := make([]float64, n)
	for i := range out {
		// Beta-ish sample via averaging two uniforms, mapped to log space.
		u := (float64(rng.Float64()) + float64(rng.Float64())) / 2 // Float64 inlines to a product
		logv := math.Log(500) + float64(u*(math.Log(10000)-math.Log(500)))
		out[i] = math.Exp(logv)
	}
	return out
}

// ThreeG synthesises a Riiser-style 3G commute trace: low mean (~1 Mbps),
// strong variability, and hard dropouts (tunnels), as used in the
// scheduler case study (Figure 5).
func ThreeG(seed int64, dur time.Duration) *Trace {
	g := gen{rand.New(rand.NewSource(seed))}
	dt := time.Second
	n := int(dur / dt)
	ks := g.walk(n, 1100, 0.35, 40, 6000)
	for i := 0; i < n; i++ {
		if g.rng.Float64() < 0.02 {
			for j := i; j < i+3+g.rng.Intn(5) && j < n; j++ {
				ks[j] = 40 + float64(60*g.rng.Float64())
			}
		}
	}
	return &Trace{Name: fmt.Sprintf("3g-%d", seed), DT: dt, Kbps: ks}
}

// FCCDownlink synthesises an FCC broadband downlink trace (distribution-side
// experiments; the paper's sampled downlinks average ~72 Mbps).
func FCCDownlink(seed int64, dur time.Duration) *Trace {
	g := gen{rand.New(rand.NewSource(seed))}
	dt := time.Second
	mean := 20000 + float64(100000*g.rng.Float64()) // 20-120 Mbps
	ks := g.walk(int(dur/dt), mean, 0.12, 2000, 400000)
	return &Trace{Name: fmt.Sprintf("fcc-down-%d", seed), DT: dt, Kbps: ks}
}

// PensieveDownlink synthesises a Pensieve-style 3G/HSDPA downlink
// (average ~1.48 Mbps across the set, highly variable).
func PensieveDownlink(seed int64, dur time.Duration) *Trace {
	g := gen{rand.New(rand.NewSource(seed))}
	dt := time.Second
	mean := 700 + float64(1600*g.rng.Float64())
	ks := g.walk(int(dur/dt), mean, 0.4, 80, 8000)
	return &Trace{Name: fmt.Sprintf("pensieve-%d", seed), DT: dt, Kbps: ks}
}

// Resolution is an ingest/target video resolution class.
type Resolution struct {
	Name string
	W, H int
}

// The resolution ladder used across the evaluation.
var (
	R270  = Resolution{"270p", 480, 270}
	R360  = Resolution{"360p", 640, 360}
	R540  = Resolution{"540p", 960, 540}
	R720  = Resolution{"720p", 1280, 720}
	R1080 = Resolution{"1080p", 1920, 1080}
	R4K   = Resolution{"4K", 3840, 2160}
)

// IngestResolutionFor picks the original ingest resolution for a trace's
// average uplink bandwidth following the YouTube-Live-style mapping of
// Figure 8: Twitch-type streams (target 1080p) ingest at 360p or 540p;
// YouTube-type streams (target 4K) ingest at 720p or 1080p.
func IngestResolutionFor(avgKbps float64, target4K bool) Resolution {
	if target4K {
		if avgKbps < 6000 {
			return R720
		}
		return R1080
	}
	if avgKbps < 2000 {
		return R360
	}
	return R540
}
