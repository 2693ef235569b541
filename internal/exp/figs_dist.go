package exp

import (
	"fmt"
	"strings"
	"time"

	"livenas/internal/abr"
	"livenas/internal/core"
	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/sr"
	"livenas/internal/sweep"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// Fig20 reproduces Figure 20: viewer QoE at the distribution side. The
// ingest runs produce LiveNAS's PSNR gain; the effective-bitrate mapping
// boosts the ladder; Pensieve-like and robustMPC ABRs play the chunks over
// FCC and Pensieve downlink trace sets.
func Fig20(o Options, r *sweep.Runner) []*Table {
	// Ingest gains: JC at 540p-class ingest (target 1080p-class) and
	// Sports at 1080p-class ingest (target 4K-class), as in §8.3. The
	// ingest measurement needs at least a minute for online training to
	// reach steady state, regardless of the harness's bench duration.
	if o.duration() < time.Minute {
		o.Duration = time.Minute
	}
	traces := o.uplinks(1, 200)
	jcJob := submitGain(r, o.baseConfig(vidgen.JustChatting, 2), traces, core.SchemeLiveNAS)
	spJob := submitGain(r, o.fourKConfig(vidgen.Sports, 2), traces, core.SchemeLiveNAS)
	gJC, _, _, bJC := jcJob.mean()
	gSP, _, _, bSP := spJob.mean()

	// Effective-bitrate boost factors from the inverse quality mapping.
	// A media server transcodes from the better of the SR output and the
	// plain decoded stream, so the boost never drops below 1 (negative
	// ingest gains only occur in very short warm-up-dominated runs).
	boost := func(base, gain float64) float64 {
		if gain < 0 {
			gain = 0
		}
		return abr.EffectiveBitrate(1000, base, base+gain) / 1000
	}
	boostJC := boost(bJC, gJC)
	boostSP := boost(bSP, gSP)

	mkTraces := func(fcc bool, n int) []*trace.Trace {
		out := make([]*trace.Trace, n)
		for i := range out {
			if fcc {
				out[i] = trace.FCCDownlink(500+int64(i)+o.Seed, 3*time.Minute)
			} else {
				out[i] = trace.PensieveDownlink(600+int64(i)+o.Seed, 3*time.Minute)
			}
		}
		return out
	}

	var out []*Table
	for _, tc := range []struct {
		id, name string
		fcc      bool
	}{
		{"fig20a", "FCC broadband downlinks", true},
		{"fig20b", "Pensieve downlinks", false},
	} {
		t := &Table{
			ID:     tc.id,
			Title:  fmt.Sprintf("Viewer QoE (%s)", tc.name),
			Header: []string{"content", "ABR", "WebRTC_QoE", "LiveNAS_QoE", "improvement"},
		}
		dl := mkTraces(tc.fcc, 6)
		for _, row := range []struct {
			name  string
			is4K  bool
			boost float64
		}{
			{"540p(JC)", false, boostJC},
			{"1080p(SP)", true, boostSP},
		} {
			ladder := abr.Ladder(row.is4K)
			boosted := abr.Boost(ladder, row.boost)
			for _, alg := range []abr.Algorithm{&abr.PensieveLike{}, &abr.RobustMPC{}} {
				q0 := abr.MeanQoE(ladder, dl, alg)
				q1 := abr.MeanQoE(boosted, dl, alg)
				imp := "-"
				if q0 > 0 {
					imp = fmt.Sprintf("%+.0f%%", (q1-q0)/q0*100)
				}
				t.Add(row.name, alg.Name(), q0, q1, imp)
			}
		}
		t.Notes = fmt.Sprintf("effective-bitrate boost: JC x%.2f, SP x%.2f (paper: 12-69%% QoE improvement)", boostJC, boostSP)
		out = append(out, t)
	}
	return out
}

// Fig21 reproduces Figures 21/24: the per-cell PSNR map of the ingest
// stream before and after online training — quality improves even in cells
// never transmitted as patches.
func Fig21(o Options, run *sweep.Runner) *Table {
	tr := o.uplinks(1, 210)[0]
	cfg := o.baseConfig(vidgen.JustChatting, 2)
	cfg.Trace = tr

	web := cfg
	web.Scheme = core.SchemeWebRTC
	hWeb, hLn := run.Go(web), run.Go(cfg)
	wr, ln := wait(hWeb), wait(hLn)

	t := &Table{
		ID:     "fig21",
		Title:  "Patch-grid PSNR before (WebRTC+bilinear) and after (LiveNAS) online training",
		Header: []string{"grid_row", "webrtc_dB...", "livenas_dB..."},
	}
	// Results keep no per-cell PSNR, so both systems are recomputed offline
	// on the ground truth near the session's end: bilinear of the downscale
	// for WebRTC, and for LiveNAS a model trained offline on the same
	// patch distribution the pipeline trains on.
	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, cfg.Duration.Seconds()+60)
	ts := cfg.Duration.Seconds() - 2
	gt := src.FrameAt(ts)
	cells := frame.Grid(cfg.Native.W, cfg.Native.H, 24)
	cols := cfg.Native.W / 24
	lr := gt.Downscale(2)
	webUp := lr.ResizeBilinear(gt.W, gt.H)
	m, trn := newStudy(sr.DefaultTrainConfig())
	fillTrainer(trn, src, 0, ts, 2, roundRobin(src, 2))
	epochs(trn, 10)
	lnUp := m.SuperResolve(lr)

	rows := cfg.Native.H / 24
	for r := 0; r < rows; r++ {
		var webRow, lnRow []string
		for c := 0; c < cols; c++ {
			cell := cells[r*cols+c]
			gw := metrics.PSNR(frame.Patch(gt, cell, 24), frame.Patch(webUp, cell, 24))
			gl := metrics.PSNR(frame.Patch(gt, cell, 24), frame.Patch(lnUp, cell, 24))
			webRow = append(webRow, fmt.Sprintf("%.0f", gw))
			lnRow = append(lnRow, fmt.Sprintf("%.0f", gl))
		}
		t.Add(fmt.Sprint(r), strings.Join(webRow, " "), strings.Join(lnRow, " "))
	}
	t.Notes = fmt.Sprintf("session PSNR: WebRTC %.2f dB, LiveNAS %.2f dB; cells improve broadly, not only transmitted ones", wr.AvgPSNR, ln.AvgPSNR)
	return t
}

// Fig25 reproduces Figure 25: the quality improvement in SSIM.
func Fig25(o Options, r *sweep.Runner) *Table {
	t := &Table{
		ID:     "fig25",
		Title:  "Quality improvement in SSIM",
		Header: []string{"content", "Generic_dSSIM", "LiveNAS_dSSIM"},
	}
	traces := o.uplinks(1, 250)
	cats := []vidgen.Category{vidgen.JustChatting, vidgen.LeagueOfLegends, vidgen.Fortnite}
	schemes := []core.Scheme{core.SchemeWebRTC, core.SchemeGeneric, core.SchemeLiveNAS}
	// Schemes outermost, contents within: hs[s][c].
	hs := make([][]*sweep.Handle, len(schemes))
	for s, scheme := range schemes {
		for _, cat := range cats {
			cfg := o.baseConfig(cat, 3)
			cfg.MeasureSSIM = true
			cfg.Trace = traces[0]
			cfg.Scheme = scheme
			hs[s] = append(hs[s], r.Go(cfg))
		}
	}
	for c, cat := range cats {
		web, gen, ln := wait(hs[0][c]), wait(hs[1][c]), wait(hs[2][c])
		t.Add(cat.String(), fmt.Sprintf("%+.4f", gen.AvgSSIM-web.AvgSSIM), fmt.Sprintf("%+.4f", ln.AvgSSIM-web.AvgSSIM))
	}
	t.Notes = "paper: generic SR sometimes loses SSIM to WebRTC; LiveNAS does not"
	return t
}

// Fig26to29 reproduces Figures 26-29: per-trace absolute quality, one row
// per (content, trace).
func Fig26to29(o Options, r *sweep.Runner) *Table {
	t := &Table{
		ID:     "fig26-29",
		Title:  "Per-trace absolute quality (dB)",
		Header: []string{"content", "trace_avg_kbps", "WebRTC", "Generic", "LiveNAS"},
	}
	traces := o.uplinks(3, 260)
	cats := []vidgen.Category{vidgen.JustChatting, vidgen.WorldOfWarcraft, vidgen.Fortnite}
	type cell struct{ web, gen, ln *sweep.Handle }
	var cells []cell
	for _, cat := range cats {
		for _, tr := range traces {
			cfg := o.baseConfig(cat, 3)
			cfg.Trace = tr
			cfg.Scheme = core.SchemeWebRTC
			c := cell{web: r.Go(cfg)}
			cfg.Scheme = core.SchemeGeneric
			c.gen = r.Go(cfg)
			cfg.Scheme = core.SchemeLiveNAS
			c.ln = r.Go(cfg)
			cells = append(cells, c)
		}
	}
	i := 0
	for _, cat := range cats {
		for _, tr := range traces {
			c := cells[i]
			i++
			t.Add(cat.String(), tr.Avg(), wait(c.web).AvgPSNR, wait(c.gen).AvgPSNR, wait(c.ln).AvgPSNR)
		}
	}
	return t
}

// Table2 reproduces Table 2: super-resolution inference delay per
// resolution configuration, from the GPU device model.
func Table2(o Options) *Table {
	d := sr.RTX2080Ti()
	t := &Table{
		ID:     "table2",
		Title:  "SR inference delay (device model)",
		Header: []string{"ingest", "upscale", "target", "fps", "delay", "GPUs"},
	}
	type row struct {
		in     trace.Resolution
		scale  int
		target string
		gpus   int
	}
	for _, r := range []row{
		{trace.R270, 4, "1080p", 1},
		{trace.R360, 3, "1080p", 1},
		{trace.R540, 2, "1080p", 1},
		{trace.R720, 1, "1080p", 1},
		{trace.R720, 3, "4K", 3},
		{trace.R1080, 2, "4K", 3},
	} {
		lat := d.InferenceTime(r.in.W, r.in.H, r.scale, r.gpus)
		fps := 1 / lat.Seconds()
		up := fmt.Sprintf("x%d", r.scale)
		if r.scale == 1 {
			up = "x1(bilinear)"
		}
		t.Add(r.in.Name, up, r.target, fmt.Sprintf("%.0f", fps), lat, fmt.Sprintf("x%d", r.gpus))
	}
	t.Notes = "paper Table 2: 21-29 ms single GPU 1080p targets; 3 GPUs keep 4K real-time"
	return t
}
