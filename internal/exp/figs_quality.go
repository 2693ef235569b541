package exp

import (
	"fmt"

	"livenas/internal/codec"
	"livenas/internal/core"
	"livenas/internal/sweep"
	"livenas/internal/vidgen"
)

// Fig9 reproduces Figure 9: end-to-end PSNR gains over WebRTC for the five
// Twitch categories at both 1080p-class ingest scales (x3 = "360p",
// x2 = "540p"), for the Generic / Pretrained / LiveNAS schemes, plus the
// GPU training time (Fig 9d). Every session of both scales is submitted to
// the sweep runner before any is awaited.
func Fig9(o Options, r *sweep.Runner) []*Table {
	type row struct {
		cat            vidgen.Category
		gen, pre, lnas gainJob
	}
	scales := []int{3, 2}
	jobs := make([][]row, len(scales))
	for i, scale := range scales {
		traces := o.uplinks(o.traces(), 90+int64(scale))
		for _, cat := range vidgen.TwitchCategories() {
			cfg := o.baseConfig(cat, scale)
			jobs[i] = append(jobs[i], row{
				cat:  cat,
				gen:  submitGain(r, cfg, traces, core.SchemeGeneric),
				pre:  submitGain(r, cfg, traces, core.SchemePretrained),
				lnas: submitGain(r, cfg, traces, core.SchemeLiveNAS),
			})
		}
	}
	var out []*Table
	for i, scale := range scales {
		name := map[int]string{3: "360p", 2: "540p"}[scale]
		t := &Table{
			ID:     fmt.Sprintf("fig9-%s", name),
			Title:  fmt.Sprintf("Twitch ingest %s -> 1080p-class: PSNR gain over WebRTC (dB)", name),
			Header: []string{"content", "Generic", "Pretrained", "LiveNAS", "train_share"},
		}
		for _, rw := range jobs[i] {
			gGen, _, _, _ := rw.gen.mean()
			gPre, _, _, _ := rw.pre.mean()
			gLnas, share, _, _ := rw.lnas.mean()
			t.Add(rw.cat.String(), gGen, gPre, gLnas, fmt.Sprintf("%.0f%%", share*100))
		}
		t.Notes = "expect LiveNAS > Pretrained > Generic > 0; train_share well below 100% (Fig 9d)"
		out = append(out, t)
	}
	return out
}

// Fig10 reproduces Figure 10: the four YouTube 4K categories at 4K-class
// target (x3 = "720p" ingest, x2 = "1080p" ingest), Generic vs LiveNAS,
// plus GPU usage. No prior sessions exist for these videos (as in the
// paper), so Pretrained is omitted.
func Fig10(o Options, r *sweep.Runner) []*Table {
	type row struct {
		cat       vidgen.Category
		gen, lnas gainJob
	}
	scales := []int{3, 2}
	jobs := make([][]row, len(scales))
	for i, scale := range scales {
		traces := o.uplinks(o.traces(), 100+int64(scale))
		for _, cat := range vidgen.YouTubeCategories() {
			cfg := o.fourKConfig(cat, scale)
			jobs[i] = append(jobs[i], row{
				cat:  cat,
				gen:  submitGain(r, cfg, traces, core.SchemeGeneric),
				lnas: submitGain(r, cfg, traces, core.SchemeLiveNAS),
			})
		}
	}
	var out []*Table
	for i, scale := range scales {
		name := map[int]string{3: "720p", 2: "1080p"}[scale]
		t := &Table{
			ID:     fmt.Sprintf("fig10-%s", name),
			Title:  fmt.Sprintf("YouTube ingest %s -> 4K-class: PSNR gain over WebRTC (dB)", name),
			Header: []string{"content", "Generic", "LiveNAS", "train_share"},
		}
		for _, rw := range jobs[i] {
			gGen, _, _, _ := rw.gen.mean()
			gLnas, share, _, _ := rw.lnas.mean()
			t.Add(rw.cat.String(), gGen, gLnas, fmt.Sprintf("%.0f%%", share*100))
		}
		t.Notes = "larger SR factor (x3) needs more GPU than x2 (paper Fig 10d)"
		out = append(out, t)
	}
	return out
}

// Fig11 reproduces Figure 11: persistent online learning (warm-starting
// from the previous session's final model) adds on top of plain LiveNAS.
func Fig11(o Options, r *sweep.Runner) *Table {
	t := &Table{
		ID:     "fig11",
		Title:  "Persistent online learning (gain over WebRTC, dB)",
		Header: []string{"content", "Generic", "Pretrained", "LiveNAS", "LiveNAS_persistent"},
	}
	traces := o.uplinks(o.traces(), 110)
	type row struct {
		cat                  vidgen.Category
		gen, pre, lnas, pers gainJob
	}
	var rows []row
	for _, cat := range []vidgen.Category{vidgen.LeagueOfLegends, vidgen.JustChatting, vidgen.WorldOfWarcraft} {
		cfg := o.baseConfig(cat, 3)
		rw := row{
			cat:  cat,
			gen:  submitGain(r, cfg, traces, core.SchemeGeneric),
			pre:  submitGain(r, cfg, traces, core.SchemePretrained),
			lnas: submitGain(r, cfg, traces, core.SchemeLiveNAS),
		}
		cfg.Persistent = true
		rw.pers = submitGain(r, cfg, traces, core.SchemeLiveNAS)
		rows = append(rows, rw)
	}
	for _, rw := range rows {
		gGen, _, _, _ := rw.gen.mean()
		gPre, _, _, _ := rw.pre.mean()
		gLnas, _, _, _ := rw.lnas.mean()
		gPers, _, _, _ := rw.pers.mean()
		t.Add(rw.cat.String(), gGen, gPre, gLnas, gPers)
	}
	t.Notes = "paper: persistent adds 0.37-0.7 dB over plain LiveNAS"
	return t
}

// Fig12 reproduces Figure 12: multi-GPU online training improves quality
// with diminishing returns.
func Fig12(o Options, r *sweep.Runner) *Table {
	t := &Table{
		ID:     "fig12",
		Title:  "Multi-GPU training (gain over WebRTC, dB)",
		Header: []string{"content", "GPUx1", "GPUx3"},
	}
	traces := o.uplinks(o.traces(), 120)
	type row struct {
		cat    vidgen.Category
		g1, g3 gainJob
	}
	var rows []row
	for _, cat := range []vidgen.Category{vidgen.LeagueOfLegends, vidgen.JustChatting, vidgen.WorldOfWarcraft} {
		cfg := o.baseConfig(cat, 3)
		rw := row{cat: cat, g1: submitGain(r, cfg, traces, core.SchemeLiveNAS)}
		cfg.TrainGPUs = 3
		// Faster epochs let the trainer take more steps per window: model
		// the paper's accelerated learning by scaling iterations.
		tc := cfg.TrainCfg
		tc.ItersPerEpoch = 3 * 16
		cfg.TrainCfg = tc
		rw.g3 = submitGain(r, cfg, traces, core.SchemeLiveNAS)
		rows = append(rows, rw)
	}
	for _, rw := range rows {
		g1, _, _, _ := rw.g1.mean()
		g3, _, _, _ := rw.g3.mean()
		t.Add(rw.cat.String(), g1, g3)
	}
	t.Notes = "paper: +0.77-1.1 dB additional gain with 3 GPUs"
	return t
}

// Fig13 reproduces Figure 13: the bandwidth WebRTC needs (as a scale factor
// on the trace) to match LiveNAS quality; reported as LiveNAS's normalized
// bandwidth usage. Every WebRTC scale is submitted up front; the search
// reads them in order and interpolates at the first that matches.
func Fig13(o Options, r *sweep.Runner) *Table {
	t := &Table{
		ID:     "fig13",
		Title:  "LiveNAS bandwidth use, normalized to WebRTC at equal quality",
		Header: []string{"ingest", "livenas_dB", "webrtc_match_scale", "normalized_bw"},
	}
	traces := o.uplinks(1, 130)
	ingests := []int{3, 2}
	scales := []float64{1, 1.5, 2, 2.5, 3}
	// hs[i] holds ingest i's LiveNAS session, then WebRTC at each scale.
	hs := make([][]*sweep.Handle, len(ingests))
	for i, scale := range ingests {
		cfg := o.baseConfig(vidgen.JustChatting, scale)
		cfg.Trace = traces[0]
		cfg.Scheme = core.SchemeLiveNAS
		hs[i] = []*sweep.Handle{r.Go(cfg)}
		cfg.Scheme = core.SchemeWebRTC
		for _, s := range scales {
			c := cfg
			c.Trace = traces[0].Scale(s)
			hs[i] = append(hs[i], r.Go(c))
		}
	}
	for i, scale := range ingests {
		name := map[int]string{3: "360p-class", 2: "540p-class"}[scale]
		ln := wait(hs[i][0])
		// Interpolate the WebRTC scale that matches LiveNAS quality.
		prevQ, prevS := 0.0, 0.0
		match := scales[len(scales)-1]
		for k, s := range scales {
			q := wait(hs[i][k+1]).AvgPSNR
			if q >= ln.AvgPSNR {
				if s == scales[0] || q == prevQ {
					match = s
				} else {
					match = prevS + (s-prevS)*(ln.AvgPSNR-prevQ)/(q-prevQ)
				}
				break
			}
			prevQ, prevS = q, s
			match = s
		}
		t.Add(name, ln.AvgPSNR, fmt.Sprintf("x%.2f", match), fmt.Sprintf("%.2f", 1/match))
	}
	t.Notes = "paper: LiveNAS needs ~46% of WebRTC's bandwidth on average"
	return t
}

// Fig14 reproduces Figure 14: the LiveNAS gain is codec-agnostic (BX8 vs
// BX9, the VP8/VP9 stand-ins).
func Fig14(o Options, r *sweep.Runner) *Table {
	t := &Table{
		ID:     "fig14",
		Title:  "LiveNAS is codec-agnostic (gain over WebRTC, dB)",
		Header: []string{"content", "BX8(VP8)", "BX9(VP9)"},
	}
	traces := o.uplinks(o.traces(), 140)
	type row struct {
		cat    vidgen.Category
		g8, g9 gainJob
	}
	var rows []row
	for _, cat := range []vidgen.Category{vidgen.LeagueOfLegends, vidgen.JustChatting, vidgen.WorldOfWarcraft} {
		cfg := o.baseConfig(cat, 3)
		cfg.Profile = codec.BX8
		rw := row{cat: cat, g8: submitGain(r, cfg, traces, core.SchemeLiveNAS)}
		cfg.Profile = codec.BX9
		rw.g9 = submitGain(r, cfg, traces, core.SchemeLiveNAS)
		rows = append(rows, rw)
	}
	for _, rw := range rows {
		g8, _, _, _ := rw.g8.mean()
		g9, _, _, _ := rw.g9.mean()
		t.Add(rw.cat.String(), g8, g9)
	}
	t.Notes = "gains should be nearly equal across codecs"
	return t
}
