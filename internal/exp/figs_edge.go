package exp

import (
	"fmt"
	"time"

	"livenas/internal/abr"
	"livenas/internal/core"
	"livenas/internal/edge"
	"livenas/internal/sweep"
	"livenas/internal/vidgen"
)

// edgeRungs builds the distribution ladder the origin advertises: the
// standard rung set with effective bitrates boosted by the ingest-side
// quality gain (the same inverse quality mapping Fig 20 uses — what the
// enhanced origin stream is worth to a viewer, per bit).
func edgeRungs(boost float64) []edge.RungInfo {
	ladder := abr.Boost(abr.Ladder(false), boost)
	out := make([]edge.RungInfo, len(ladder))
	for i, r := range ladder {
		out[i] = edge.RungInfo{Name: r.Name, Kbps: r.Kbps, EffectiveKbps: r.EffectiveKbps}
	}
	return out
}

// edgeViewerCounts is the fan-out sweep: 10, 100 and 1000 viewers on one
// streamer, capped by Options.EdgeMaxViewers.
func (o Options) edgeViewerCounts() []int {
	max := o.EdgeMaxViewers
	if max <= 0 {
		max = 1000
	}
	var out []int
	for _, n := range []int{10, 100, 1000} {
		if n <= max {
			out = append(out, n)
		}
	}
	if len(out) == 0 {
		out = []int{max}
	}
	return out
}

// edgeSimFor builds one deterministic fan-out simulation: 24 one-second
// segments of the boosted ladder, FCC-distributed viewer downlinks.
func edgeSimFor(o Options, boost float64, viewers int, direct bool) edge.SimConfig {
	return edge.SimConfig{
		Source: &edge.Source{
			Channel: "ch000",
			SegDur:  time.Second,
			Rungs:   edgeRungs(boost),
			Count:   24,
			StartAt: time.Second,
		},
		Viewers: viewers,
		Fanout:  8,
		Direct:  direct,
		Links: edge.SimLinks{
			ViewerKbps: edge.DefaultViewerKbps(viewers, 77+o.Seed),
		},
	}
}

// FigEdge is the distribution-edge figure: one streamer's enhanced output
// fanned out through a two-level relay tree to N viewers, against the
// no-CDN baseline of every viewer fetching from the origin. The ingest
// session's PSNR gain (over the WebRTC baseline) sets the ladder's
// effective bitrates, so the row quality metric is the end-to-end LiveNAS
// story: enhance once at ingest, distribute the boost to everyone.
//
// Byte-identical at any sweep worker count: the ingest gain comes through
// the runner's deterministic engine and each fan-out simulation runs on
// its own virtual clock.
func FigEdge(o Options, r *sweep.Runner) *Table {
	if o.duration() < time.Minute {
		o.Duration = time.Minute
	}
	job := submitGain(r, o.baseConfig(vidgen.JustChatting, 2), o.uplinks(1, 900), core.SchemeLiveNAS)
	gain, _, _, base := job.mean()
	if gain < 0 {
		gain = 0
	}
	boost := abr.EffectiveBitrate(1000, base, base+gain) / 1000

	t := &Table{
		ID:    "edge",
		Title: "Distribution edge: enhanced-output fan-out, relay tree vs direct origin",
		Header: []string{"viewers", "mode", "relays", "delivered", "skipped",
			"p50", "p99", "stall_s", "eff_kbps", "origin_MB", "saving"},
		Notes: fmt.Sprintf("ingest gain %.2f dB -> effective-bitrate boost x%.2f; fanout 8, 24x1s segments", gain, boost),
	}

	for _, n := range o.edgeViewerCounts() {
		direct, err := edge.RunSim(edgeSimFor(o, boost, n, true))
		if err != nil {
			panic(err)
		}
		tree, err := edge.RunSim(edgeSimFor(o, boost, n, false))
		if err != nil {
			panic(err)
		}
		t.Add(n, "direct", 0, direct.Delivered, direct.Skipped,
			direct.DeliveryP50, direct.DeliveryP99, direct.StallSec,
			direct.MeanEffKbps, float64(direct.OriginEgressBytes)/1e6, "-")
		saving := "-"
		if tree.OriginEgressBytes > 0 {
			saving = fmt.Sprintf("x%.1f", float64(direct.OriginEgressBytes)/float64(tree.OriginEgressBytes))
		}
		t.Add(n, "tree", tree.RelaysL1+tree.RelaysL2, tree.Delivered, tree.Skipped,
			tree.DeliveryP50, tree.DeliveryP99, tree.StallSec,
			tree.MeanEffKbps, float64(tree.OriginEgressBytes)/1e6, saving)
	}
	return t
}
