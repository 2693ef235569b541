package exp

import (
	"fmt"
	"time"

	"livenas/internal/core"
	"livenas/internal/fleet"
	"livenas/internal/sweep"
	"livenas/internal/vidgen"
)

// fleetCats cycles stream content across the fleet so the quality-weighted
// allocator has real weight spread to work with.
var fleetCats = []vidgen.Category{
	vidgen.JustChatting, vidgen.Fortnite, vidgen.LeagueOfLegends,
	vidgen.EscapeFromTarkov, vidgen.WorldOfWarcraft,
}

// FleetSpecs builds the N-streamer arrival pattern of the fleet
// experiment: content cycles through the Twitch categories, seeds and
// traces differ per stream, and arrivals stagger at quarter-session spacing
// so aggregate demand overlaps hard enough to force admission decisions.
func FleetSpecs(o Options, n int) []fleet.StreamSpec {
	traces := o.uplinks(n, 770)
	specs := make([]fleet.StreamSpec, n)
	for i := range specs {
		cfg := o.baseConfig(fleetCats[i%len(fleetCats)], 2)
		cfg.Seed += int64(i) * 13
		cfg.Trace = traces[i]
		specs[i] = fleet.StreamSpec{
			Key:      fmt.Sprintf("ch%03d", i),
			ArriveAt: time.Duration(i) * o.duration() / 4,
			Cfg:      cfg,
		}
	}
	return specs
}

func (o Options) fleetStreams() int {
	if o.FleetStreams > 0 {
		return o.FleetStreams
	}
	return 6
}

func (o Options) fleetGPUs() int {
	if o.FleetGPUs > 0 {
		return o.FleetGPUs
	}
	return 2
}

// FigFleet is the multi-tenant ingest-node figure: N streamers arriving at
// one node with M GPUs, swept over the three admission policies. Each row
// reports the policy's admission outcome (admitted/degraded/rejected/
// starved), GPU-pool utilization, p99 admission latency (virtual time spent
// under backpressure), and the delivered mean PSNR gain over the WebRTC
// baseline across all streams that ingested — degraded streams count with
// zero gain, which is exactly the quality price of not rejecting them.
//
// Byte-identical for any sweep worker count: the admission timeline is
// computed on the fleet's virtual clock before any session runs, sessions
// execute through the sweep runner's deterministic engine, and rows are
// emitted in fixed policy order.
func FigFleet(o Options, r *sweep.Runner) *Table {
	n, m := o.fleetStreams(), o.fleetGPUs()
	specs := FleetSpecs(o, n)
	t := &Table{
		ID:    "fleet",
		Title: fmt.Sprintf("Multi-tenant ingest: %d streamers on %d GPUs per admission policy", n, m),
		Header: []string{"policy", "admitted", "degraded", "rejected", "starved",
			"gpu_util", "admit_p99", "mean_gain_dB"},
	}

	policies := []fleet.Policy{fleet.PolicyReject, fleet.PolicyDegrade, fleet.PolicyQueue}
	plans := make([]*fleet.Plan, len(policies))
	bases := make([][]*sweep.Handle, len(policies))
	for i, pol := range policies {
		p, err := fleet.BuildPlan(specs, fleet.Options{GPUs: m, Policy: pol})
		if err != nil {
			panic(err)
		}
		p.Submit(r)
		// Per-stream WebRTC baselines for the gain metric. ChannelKey is
		// stripped so the baseline session is channel-anonymous and the
		// runner memoizes it across all three policy plans.
		var hs []*sweep.Handle
		for _, s := range p.M.Sessions() {
			if !s.Admitted() {
				hs = append(hs, nil)
				continue
			}
			b := s.Cfg
			b.ChannelKey = ""
			b.Scheme = core.SchemeWebRTC
			b.TrainGPUs, b.InferGPUs = 0, 0
			hs = append(hs, r.Go(b))
		}
		plans[i], bases[i] = p, hs
	}

	for i, pol := range policies {
		p := plans[i]
		if err := p.Collect(); err != nil {
			panic(err)
		}
		var gain float64
		var ran int
		for j, s := range p.M.Sessions() {
			if !s.Admitted() {
				continue
			}
			gain += s.Results.GainOver(wait(bases[i][j]))
			ran++
		}
		if ran > 0 {
			gain /= float64(ran)
		}
		st := p.Stats()
		t.Add(pol.String(), st.Admitted, st.Degraded, st.Rejected, st.Starved,
			fmt.Sprintf("%.2f", st.Utilization), st.AdmitP99, gain)
	}
	t.Notes = "queue trades admission latency for zero refusals; degrade trades mean gain; reject keeps both at the cost of availability"
	return t
}
