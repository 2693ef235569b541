package abr

import (
	"math"
	"testing"
	"time"

	"livenas/internal/trace"
)

func flat(kbps float64, secs int) *trace.Trace {
	ks := make([]float64, secs)
	for i := range ks {
		ks[i] = kbps
	}
	return &trace.Trace{Name: "flat", DT: time.Second, Kbps: ks}
}

func TestEffectiveBitrate(t *testing.T) {
	// +3 dB at 3 dB/doubling => 2x effective bitrate.
	if got := EffectiveBitrate(1000, 30, 33); math.Abs(got-2000) > 1 {
		t.Fatalf("got %v want 2000", got)
	}
	if got := EffectiveBitrate(1000, 30, 30); math.Abs(got-1000) > 1 {
		t.Fatalf("equal quality should map to same bitrate, got %v", got)
	}
	if EffectiveBitrate(0, 30, 40) != 0 {
		t.Fatal("zero base")
	}
}

func TestLadder(t *testing.T) {
	l := Ladder(false)
	if len(l) != 5 || l[len(l)-1].Name != "1080p" {
		t.Fatalf("ladder %v", l)
	}
	l4k := Ladder(true)
	if len(l4k) != 7 || l4k[len(l4k)-1].Name != "4K" {
		t.Fatalf("4K ladder %v", l4k)
	}
	for _, r := range l {
		if r.EffectiveKbps != r.Kbps {
			t.Fatal("baseline ladder must have effective == nominal")
		}
	}
}

func TestBoost(t *testing.T) {
	l := Ladder(false)
	b := Boost(l, 1.5)
	if b[0].EffectiveKbps != l[0].Kbps*1.5 {
		t.Fatal("boost not applied")
	}
	if l[0].EffectiveKbps != l[0].Kbps {
		t.Fatal("Boost mutated input")
	}
}

func TestDownloadTime(t *testing.T) {
	tr := flat(1000, 60)
	// 2000 kbit at 1000 kbps = 2 s.
	if got := downloadTime(tr, 0, 2000*1000); math.Abs(got-2) > 0.01 {
		t.Fatalf("dl time %v want 2", got)
	}
	// Starting mid-second must still work.
	if got := downloadTime(tr, 0.5, 500*1000); math.Abs(got-0.5) > 0.01 {
		t.Fatalf("dl time %v want 0.5", got)
	}
}

func TestSimulateAmpleBandwidth(t *testing.T) {
	// 50 Mbps link: every algorithm should reach the top rung and never
	// rebuffer.
	tr := flat(50000, 120)
	for _, alg := range []Algorithm{&RobustMPC{}, &PensieveLike{}} {
		r := Simulate(SimConfig{Rungs: Ladder(false), Trace: tr}, alg)
		if r.RebufferSec > 0.1 {
			t.Fatalf("%s rebuffered %v on ample link", alg.Name(), r.RebufferSec)
		}
		if r.AvgKbps < 3000 {
			t.Fatalf("%s avg rate %v too low on ample link", alg.Name(), r.AvgKbps)
		}
	}
}

func TestSimulateScarceBandwidth(t *testing.T) {
	// 600 kbps link: algorithms must settle near the bottom rungs; QoE must
	// not collapse to deeply negative values.
	tr := flat(600, 120)
	for _, alg := range []Algorithm{&RobustMPC{}, &PensieveLike{}} {
		r := Simulate(SimConfig{Rungs: Ladder(false), Trace: tr}, alg)
		if r.AvgKbps > 1000 {
			t.Fatalf("%s overshot on scarce link: %v kbps", alg.Name(), r.AvgKbps)
		}
		if r.QoE < -2 {
			t.Fatalf("%s QoE %v collapsed", alg.Name(), r.QoE)
		}
	}
}

func TestBoostImprovesQoE(t *testing.T) {
	// The paper's core distribution-side claim (Fig 20): a higher-quality
	// origin (effective-bitrate boost) improves QoE on the same traces.
	traces := []*trace.Trace{
		trace.PensieveDownlink(1, 2*time.Minute),
		trace.PensieveDownlink(2, 2*time.Minute),
		trace.FCCDownlink(3, 2*time.Minute),
	}
	base := Ladder(false)
	boosted := Boost(base, 1.6)
	for _, alg := range []Algorithm{&RobustMPC{}, &PensieveLike{}} {
		q0 := MeanQoE(base, traces, alg)
		q1 := MeanQoE(boosted, traces, alg)
		if q1 <= q0 {
			t.Fatalf("%s: boosted QoE %v should beat base %v", alg.Name(), q1, q0)
		}
	}
}

func TestMPCAdaptsToDrop(t *testing.T) {
	// Rate drops 6 Mbps -> 700 kbps at t=60: MPC must downswitch.
	ks := make([]float64, 120)
	for i := range ks {
		if i < 60 {
			ks[i] = 6000
		} else {
			ks[i] = 700
		}
	}
	tr := &trace.Trace{Name: "step", DT: time.Second, Kbps: ks}
	r := Simulate(SimConfig{Rungs: Ladder(false), Trace: tr}, &RobustMPC{})
	if r.Switches == 0 {
		t.Fatal("MPC never switched on a step trace")
	}
	if r.RebufferSec > 20 {
		t.Fatalf("MPC rebuffered %v s", r.RebufferSec)
	}
}

func TestHarmonicMean(t *testing.T) {
	if got := harmonicMean([]float64{2, 2, 2}); math.Abs(got-2) > 1e-9 {
		t.Fatalf("hm %v", got)
	}
	// Harmonic mean is dominated by small values.
	if hm := harmonicMean([]float64{1, 100}); hm > 10 {
		t.Fatalf("hm %v should be near 2", hm)
	}
	if harmonicMean(nil) != 0 {
		t.Fatal("empty hm")
	}
}

func TestAlgorithmNames(t *testing.T) {
	if (&RobustMPC{}).Name() != "robustMPC" || (&PensieveLike{}).Name() != "Pensieve" {
		t.Fatal("names wrong")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	tr := trace.PensieveDownlink(5, time.Minute)
	a := Simulate(SimConfig{Rungs: Ladder(false), Trace: tr}, &RobustMPC{})
	b := Simulate(SimConfig{Rungs: Ladder(false), Trace: tr}, &RobustMPC{})
	if a.QoE != b.QoE || a.AvgKbps != b.AvgKbps {
		t.Fatal("simulation not deterministic")
	}
}
