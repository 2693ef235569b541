package core

import (
	"fmt"
	"math"
	"testing"
	"time"

	"livenas/internal/vidgen"
)

// TestFeedbackOutsideInputIgnored: on a socket the epoch feedback is outside
// input, and the wire decodes NaN and ±Inf. Every clamp of the scheduler
// compares false against NaN, so one such report used to make the patch
// rate NaN for good (and the video target int(NaN)). Each is ignored whole;
// the valid report after them steers the scheduler, and the patch rate stays
// finite and within [MinPatchKbps, 0.5 × target] throughout.
func TestFeedbackOutsideInputIgnored(t *testing.T) {
	cfg := defaultTestConfig(vidgen.JustChatting)
	var now time.Duration
	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, 10)
	c, err := NewClient(cfg, src, func() time.Duration { return now }, func(Unit) {})
	if err != nil {
		t.Fatal(err)
	}
	step := func(what string) {
		t.Helper()
		for range 10 {
			c.Capture()
			now += 100 * time.Millisecond
		}
		c.Schedule()
		lo, hi := cfg.MinPatchKbps, 0.5*c.TargetKbps()
		if p := c.patchKbps; !(p >= lo && p <= hi) {
			t.Fatalf("%s: patch rate %v kbps outside [%v, %v]", what, p, lo, hi)
		}
		if v := c.videoKbps(); !finite(v) {
			t.Fatalf("%s: video rate %v kbps", what, v)
		}
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, fb := range []Feedback{
		{PrevGainDB: nan, GainDB: 1, PatchKbps: 20},
		{PrevGainDB: 0.5, GainDB: nan, PatchKbps: 20},
		{PrevGainDB: 0.5, GainDB: 1, PatchKbps: nan},
		{PrevGainDB: inf, GainDB: 1, PatchKbps: 20},
		{PrevGainDB: 0.5, GainDB: -inf, PatchKbps: 20},
		{PrevGainDB: 0.5, GainDB: 1, PatchKbps: inf},
		{PrevGainDB: 0.5, GainDB: 1, PatchKbps: -inf},
		{PrevGainDB: 0.5, GainDB: 1, PatchKbps: -20},
	} {
		c.Feedback(fb)
		step(fmt.Sprintf("after %+v", fb))
		if c.haveFB {
			t.Fatalf("feedback %+v was taken", fb)
		}
	}
	c.Feedback(Feedback{PrevGainDB: 0.5, GainDB: 1, PatchKbps: 20})
	if !c.haveFB {
		t.Fatal("valid feedback ignored")
	}
	step("after valid feedback")
	if g := c.gradSeries[len(c.gradSeries)-1].Gradient; g == 0 || !finite(g) {
		t.Fatalf("gradient after valid feedback = %v, want a finite non-zero step", g)
	}
}
