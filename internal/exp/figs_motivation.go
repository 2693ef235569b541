package exp

import (
	"fmt"
	"time"

	"livenas/internal/abr"
	"livenas/internal/codec"
	"livenas/internal/core"
	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/sr"
	"livenas/internal/sweep"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// Fig2a reproduces Figure 2a: live streaming (WebRTC/GCC) uses bandwidth far
// more conservatively than buffered adaptive streaming (DASH) on the same
// trace.
func Fig2a(o Options, run *sweep.Runner) *Table {
	tr := o.uplinks(1, 21)[0]
	cfg := o.baseConfig(vidgen.JustChatting, 2)
	cfg.Trace = tr
	cfg.Scheme = core.SchemeWebRTC
	r := wait(run.Go(cfg))

	// DASH stand-in: a buffered ABR over the same trace; its large buffer
	// absorbs variation so it sustains near-capacity rates.
	w := o.world()
	rungs := []abr.Rung{}
	for _, k := range []float64{200, 400, 800, 1200, 1800, 2400, 3600, 4800, 7000, 10000} {
		kk := k * w.kbpsScale
		rungs = append(rungs, abr.Rung{Name: fmt.Sprintf("%.0fk", kk), Kbps: kk, EffectiveKbps: kk})
	}
	dash := abr.Simulate(abr.SimConfig{Rungs: rungs, Trace: tr, ChunkSec: 4, BufferCap: 30 * time.Second}, &abr.RobustMPC{})

	t := &Table{
		ID:     "fig2a",
		Title:  "Live streaming is sensitive to bandwidth variation",
		Header: []string{"t(s)", "available_kbps", "webrtc_kbps"},
	}
	for i, p := range r.Bandwidth {
		if i%5 != 0 {
			continue
		}
		t.Add(fmt.Sprintf("%.0f", p.T.Seconds()), r.LinkRate[i].V, p.V)
	}
	util := r.AvgBandwidthKbps / meanSeriesV(r.LinkRate)
	t.Notes = fmt.Sprintf("WebRTC mean utilisation %.0f%% of available (paper: 55-64%%); DASH avg rate %.0f kbps = %.0f%% of available",
		util*100, dash.AvgKbps, dash.AvgKbps/tr.Avg()*100)
	return t
}

// Fig2b reproduces Figure 2b: LiveNAS quality vs WebRTC while scaling the
// trace bandwidth x1/x1.5/x2 — SR is worth roughly a 1.5-2x bandwidth bump.
func Fig2b(o Options, r *sweep.Runner) *Table {
	tr := o.uplinks(1, 22)[0]
	t := &Table{
		ID:     "fig2b",
		Title:  "Super-resolution provides gains comparable to 1.5-2x bandwidth",
		Header: []string{"bw_scale", "WebRTC_dB", "LiveNAS_dB"},
	}
	scales := []float64{1, 1.5, 2}
	type pair struct{ web, ln *sweep.Handle }
	ps := make([]pair, len(scales))
	for i, s := range scales {
		cfg := o.baseConfig(vidgen.Sports, 2)
		cfg.Trace = tr.Scale(s)
		cfg.Scheme = core.SchemeWebRTC
		ps[i].web = r.Go(cfg)
		cfg.Scheme = core.SchemeLiveNAS
		ps[i].ln = r.Go(cfg)
	}
	for i, s := range scales {
		t.Add(fmt.Sprintf("x%.1f", s), wait(ps[i].web).AvgPSNR, wait(ps[i].ln).AvgPSNR)
	}
	t.Notes = "LiveNAS at x1 should approach WebRTC at x1.5-x2 (paper Fig 2b)"
	return t
}

// Fig2c reproduces Figure 2c: across three consecutive live-stream sessions,
// online learning on fresh data beats a model pre-trained on the previous
// session, which in turn (barely) beats plain bilinear.
func Fig2c(o Options, r *sweep.Runner) *Table {
	tr := o.uplinks(1, 23)[0]
	t := &Table{
		ID:     "fig2c",
		Title:  "Online learning with fresh data has a clear advantage",
		Header: []string{"session", "Bilinear_dB", "Pretrained_dB", "Online_dB"},
	}
	type day struct{ bil, pre, on *sweep.Handle }
	var days []day
	for d := 0; d < 3; d++ {
		cfg := o.baseConfig(vidgen.JustChatting, 2)
		cfg.Trace = tr
		cfg.Seed = 300 + o.Seed + int64(d)
		cfg.PretrainSeed = cfg.Seed - 1 // "previous day's stream"
		cfg.Scheme = core.SchemeWebRTC
		dd := day{bil: r.Go(cfg)}
		cfg.Scheme = core.SchemePretrained
		dd.pre = r.Go(cfg)
		cfg.Scheme = core.SchemeLiveNAS
		dd.on = r.Go(cfg)
		days = append(days, dd)
	}
	for d, dd := range days {
		t.Add(fmt.Sprintf("day-%d", d+1), wait(dd.bil).AvgPSNR, wait(dd.pre).AvgPSNR, wait(dd.on).AvgPSNR)
	}
	return t
}

// Fig2d reproduces Figure 2d: training on a small fraction of frames /
// frame area already captures most of the gain. Offline experiment on the
// SR trainer, as in the paper's motivation study.
func Fig2d(o Options) []*Table {
	native := o.world().native1080
	src := vidgen.NewSource(vidgen.JustChatting, native.W, native.H, 31+o.Seed, 300)
	cells := len(frame.Grid(native.W, native.H, studyPatch))

	gainAt := func(fps float64, fracCells float64) float64 {
		keep := int(float64(cells) * fracCells)
		if keep < 1 {
			keep = 1
		}
		m, tr := newStudy(sr.DefaultTrainConfig())
		fillTrainer(tr, src, 0, 60, 1/fps, roundRobin(src, keep))
		epochs(tr, 8)
		return srGain(src, m, 62)
	}

	t1 := &Table{
		ID:     "fig2d-fps",
		Title:  "Gain vs label sampling rate (5% of frame per sample)",
		Header: []string{"sampling_fps", "gain_dB"},
	}
	for _, fps := range []float64{0.5, 2, 10, 30} {
		t1.Add(fmt.Sprintf("%.1f", fps), gainAt(fps, 0.05))
	}
	t2 := &Table{
		ID:     "fig2d-frac",
		Title:  "Gain vs fraction of frame sampled (at 0.5 fps)",
		Header: []string{"fraction_%", "gain_dB"},
	}
	for _, fr := range []float64{0.05, 0.25, 0.5, 1.0} {
		t2.Add(fmt.Sprintf("%.0f", fr*100), gainAt(0.5, fr))
	}
	t2.Notes = "paper: 5% crops at 0.5 fps within 0.27 dB of training on all frames"
	return []*Table{t1, t2}
}

// Fig5 reproduces the Figure 5 case study: the quality-optimizing scheduler
// on a 3G trace, with the computed gradient and the patch/video split, plus
// a fixed-allocation sweep standing in for the offline-optimal search.
func Fig5(o Options, run *sweep.Runner) *Table {
	w := o.world()
	tr3g := trace.ThreeG(5+o.Seed, o.duration()+time.Minute).Scale(w.kbpsScale * 5)
	cfg := o.baseConfig(vidgen.Sports, 2)
	cfg.Trace = tr3g
	hMain := run.Go(cfg)

	// Fixed-allocation sweep (the paper's §8.2 note: the scheduler beats
	// any fixed patch bandwidth), submitted alongside the main session.
	fixedScales := []float64{0, 0.5, 1, 2, 4}
	hFixed := make([]*sweep.Handle, len(fixedScales))
	for i, fixed := range fixedScales {
		c := cfg
		c.StepKbps = 0.0001 // freeze gradient steps
		c.InitPatchKbps = fixed * cfg.InitPatchKbps
		if fixed == 0 {
			c.Scheme = core.SchemeWebRTC
		}
		hFixed[i] = run.Go(c)
	}
	r := wait(hMain)

	t := &Table{
		ID:     "fig5",
		Title:  "Scheduler case study on a 3G trace",
		Header: []string{"t(s)", "target_kbps", "video_kbps", "patch_kbps", "gradient_dB_per_kbps"},
	}
	for i, g := range r.Grad {
		if i%5 != 0 {
			continue
		}
		t.Add(fmt.Sprintf("%.0f", g.T.Seconds()), g.TargetKbps, g.VideoKbps, g.PatchKbps, fmt.Sprintf("%+.4f", g.Gradient))
	}

	best, bestPSNR := 0.0, 0.0
	for i, fixed := range fixedScales {
		fr := wait(hFixed[i])
		if fr.AvgPSNR > bestPSNR {
			bestPSNR = fr.AvgPSNR
			best = fixed
		}
	}
	t.Notes = fmt.Sprintf("scheduler avg patch share %.1f%%; LiveNAS %.2f dB vs best fixed allocation (%.1fx init) %.2f dB",
		r.AvgPatchKbps/r.AvgBandwidthKbps*100, r.AvgPSNR, best, bestPSNR)
	return t
}

// Fig6 reproduces Figure 6: normalized bitrate-to-quality curves measured
// through the codec collapse per category.
func Fig6(o Options) *Table {
	w := o.world()
	t := &Table{
		ID:     "fig6",
		Title:  "Normalized bitrate-to-quality curves per category (measured)",
		Header: []string{"category", "video", "NQ@0.5M", "NQ@1.5M", "NQ@2.5M", "NQ@3.5M"},
	}
	rates := []float64{500, 1500, 2500, 3500}
	for _, cat := range []vidgen.Category{vidgen.Fortnite, vidgen.JustChatting, vidgen.LeagueOfLegends} {
		for vid := 0; vid < 2; vid++ {
			src := vidgen.NewSource(cat, w.native1080.W/2, w.native1080.H/2, 70+int64(vid)+o.Seed, 60)
			var qs []float64
			for _, rk := range rates {
				enc := codec.NewEncoder(codec.Config{Profile: codec.BX8, W: src.W, H: src.H, KeyInterval: 40})
				var ps []float64
				for i := 0; i < 10; i++ {
					f := src.FrameAt(float64(i) / 10)
					enc.Encode(f, int(rk*w.kbpsScale*5*1000/10))
					ps = append(ps, metrics.PSNR(f, enc.Reconstructed()))
				}
				qs = append(qs, metrics.Mean(ps[2:]))
			}
			max := qs[len(qs)-1]
			t.Add(cat.String(), fmt.Sprintf("video-%d", vid+1),
				qs[0]/max, qs[1]/max, qs[2]/max, qs[3]/max)
		}
	}
	t.Notes = "normalized curves of videos in the same category should nearly coincide"
	return t
}

// Fig8 reproduces Figure 8: the CDF of the evaluation traces' mean uplink
// bandwidth and the ingest-resolution mapping.
func Fig8(o Options) *Table {
	means := trace.SampleFCCMeans(25, 1000+o.Seed)
	t := &Table{
		ID:     "fig8",
		Title:  "CDF of FCC uplink traces (<=10 Mbps) with ingest resolutions",
		Header: []string{"P", "mean_kbps", "ingest(1080p)", "ingest(4K)"},
	}
	for _, pt := range metrics.CDF(means) {
		t.Add(fmt.Sprintf("%.2f", pt.P), pt.X,
			trace.IngestResolutionFor(pt.X, false).Name,
			trace.IngestResolutionFor(pt.X, true).Name)
	}
	return t
}

func meanSeriesV(ps []core.SeriesPoint) float64 {
	if len(ps) == 0 {
		return 0
	}
	var s float64
	for _, p := range ps {
		s += p.V
	}
	return s / float64(len(ps))
}
