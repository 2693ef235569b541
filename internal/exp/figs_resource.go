package exp

import (
	"fmt"
	"time"

	"livenas/internal/codec"
	"livenas/internal/core"
	"livenas/internal/metrics"
	"livenas/internal/power"
	"livenas/internal/sr"
	"livenas/internal/sweep"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// submitPolicy submits a LiveNAS session under one training policy.
func submitPolicy(r *sweep.Runner, cfg core.Config, tr *trace.Trace, p core.TrainPolicy) *sweep.Handle {
	c := cfg
	c.Trace = tr
	c.TrainPolicy = p
	c.Scheme = core.SchemeLiveNAS
	return r.Go(c)
}

// fig15Policies is Figure 15's comparison set, in row order.
var fig15Policies = []core.TrainPolicy{core.TrainOneTime, core.TrainEarlyStop, core.TrainAdaptive, core.TrainContinuous}

// Fig15 reproduces Figure 15: per-scheme GPU training time (normalized to
// stream duration) versus delivered quality.
func Fig15(o Options, r *sweep.Runner) *Table {
	t := &Table{
		ID:     "fig15",
		Title:  "GPU usage vs quality per training scheme",
		Header: []string{"content", "scheme", "norm_gpu_time", "PSNR_dB"},
	}
	tr := o.uplinks(1, 150)[0]
	type row struct {
		cat  vidgen.Category
		web  *sweep.Handle
		pols []*sweep.Handle
	}
	var rows []row
	for _, cat := range []vidgen.Category{vidgen.JustChatting, vidgen.LeagueOfLegends, vidgen.Fortnite} {
		cfg := o.baseConfig(cat, 3)
		web := cfg
		web.Trace = tr
		web.Scheme = core.SchemeWebRTC
		rw := row{cat: cat, web: r.Go(web)}
		for _, pol := range fig15Policies {
			rw.pols = append(rw.pols, submitPolicy(r, cfg, tr, pol))
		}
		rows = append(rows, rw)
	}
	for _, rw := range rows {
		t.Add(rw.cat.String(), "WebRTC", 0.0, wait(rw.web).AvgPSNR)
		for i, pol := range fig15Policies {
			pr := wait(rw.pols[i])
			t.Add(rw.cat.String(), pol.String(), pr.TrainingShare(), pr.AvgPSNR)
		}
	}
	t.Notes = "content-adaptive should approach continuous quality at a fraction of its GPU time"
	return t
}

// Fig16 reproduces the Figure 16 case study: the content-adaptive trainer's
// ON/OFF timeline on a stream with multiple scene transitions.
func Fig16(o Options, run *sweep.Runner) *Table {
	tr := o.uplinks(1, 160)[0]
	cfg := o.baseConfig(vidgen.Fortnite, 2) // most scene changes
	cfg.Duration = 2 * o.duration()
	cfg.Trace = tr
	hAdaptive := run.Go(cfg)
	hCont := submitPolicy(run, cfg, tr, core.TrainContinuous)
	r := wait(hAdaptive)
	src := vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, cfg.Duration.Seconds()+60)

	t := &Table{
		ID:     "fig16",
		Title:  "Content-adaptive trainer in operation (ON/OFF timeline)",
		Header: []string{"t(s)", "trainer"},
	}
	for _, st := range r.TrainerTimeline() {
		t.Add(fmt.Sprintf("%.0f", st.T.Seconds()), st.State)
	}
	var changes []string
	for _, c := range src.SceneChanges() {
		if c < cfg.Duration.Seconds() {
			changes = append(changes, fmt.Sprintf("%.0fs", c))
		}
	}
	cont := wait(hCont)
	saving := 1 - r.GPUTrainBusy.Seconds()/cont.GPUTrainBusy.Seconds()
	t.Notes = fmt.Sprintf("scene changes at %v; GPU saving vs continuous: %.0f%% (paper case study: 54%%)", changes, saving*100)
	return t
}

// Fig17 reproduces Figure 17: ingest-client power, 4K WebRTC encode versus
// LiveNAS 1080p ingest at equal delivered quality.
func Fig17(o Options) *Table {
	t := &Table{
		ID:     "fig17",
		Title:  "Client power: 4K encode (WebRTC) vs 1080p ingest (LiveNAS)",
		Header: []string{"codec", "mode", "capture_W", "encode_W", "board_W", "total_W", "saving"},
	}
	for _, p := range []codec.Profile{codec.BX9, codec.BX8} {
		full := power.Client(p, trace.R4K)
		lnas := power.Client(p, trace.R1080)
		sv := power.Savings(p, trace.R4K, trace.R1080)
		t.Add(p.String(), "WebRTC-4K", full.Capture, full.Encode, full.Board, full.Total(), "-")
		t.Add(p.String(), "LiveNAS-1080p", lnas.Capture, lnas.Encode, lnas.Board, lnas.Total(), fmt.Sprintf("%.0f%%", sv*100))
	}
	t.Notes = "paper: 16% (VP9) and 23% (VP8) savings"
	return t
}

// Fig18 reproduces Figure 18: PSNR gain over WebRTC per time interval of
// the stream, for adaptive / continuous / early-stop training.
func Fig18(o Options, run *sweep.Runner) *Table {
	tr := o.uplinks(1, 180)[0]
	cfg := o.baseConfig(vidgen.Fortnite, 2)
	cfg.Duration = 2 * o.duration()

	web := cfg
	web.Trace = tr
	web.Scheme = core.SchemeWebRTC
	hWeb := run.Go(web)
	pols := []core.TrainPolicy{core.TrainAdaptive, core.TrainContinuous, core.TrainEarlyStop}
	hs := make([]*sweep.Handle, len(pols))
	for i, pol := range pols {
		hs[i] = submitPolicy(run, cfg, tr, pol)
	}
	wr := wait(hWeb)

	t := &Table{
		ID:     "fig18",
		Title:  "Gain over WebRTC by stream interval (dB)",
		Header: []string{"scheme", "interval1", "interval2", "interval3"},
	}
	intervalMeans := func(r *core.Results) [3]float64 {
		var sums, counts [3]float64
		dur := cfg.Duration.Seconds()
		for i, s := range r.Samples {
			k := int(s.T.Seconds() / dur * 3)
			if k > 2 {
				k = 2
			}
			base := wr.Samples[min(i, len(wr.Samples)-1)].PSNR
			sums[k] += s.PSNR - base
			counts[k]++
		}
		var out [3]float64
		for k := range out {
			if counts[k] > 0 {
				out[k] = sums[k] / counts[k]
			}
		}
		return out
	}
	for i, pol := range pols {
		m := intervalMeans(wait(hs[i]))
		t.Add(pol.String(), m[0], m[1], m[2])
	}
	t.Notes = "early-stop's gain should fall off in later intervals; adaptive tracks continuous"
	return t
}

// Fig19 reproduces Figure 19: content-adaptive vs one-time customization —
// gain over stream time and the distribution of per-sample gains.
func Fig19(o Options, run *sweep.Runner) []*Table {
	tr := o.uplinks(1, 190)[0]
	cfg := o.baseConfig(vidgen.Fortnite, 2)
	cfg.Duration = 2 * o.duration()

	web := cfg
	web.Trace = tr
	web.Scheme = core.SchemeWebRTC
	hWeb := run.Go(web)

	ot1 := cfg
	ot1.OneTimeWindow = o.duration() / 6
	ot5 := cfg
	ot5.OneTimeWindow = o.duration() / 2
	rows := []struct {
		name string
		h    *sweep.Handle
	}{
		{"continuous", submitPolicy(run, cfg, tr, core.TrainContinuous)},
		{"content-adaptive", submitPolicy(run, cfg, tr, core.TrainAdaptive)},
		{"one-time(long)", submitPolicy(run, ot5, tr, core.TrainOneTime)},
		{"one-time(short)", submitPolicy(run, ot1, tr, core.TrainOneTime)},
	}

	wr := wait(hWeb)
	baseAt := func(i int) float64 {
		if i >= len(wr.Samples) {
			i = len(wr.Samples) - 1
		}
		return wr.Samples[i].PSNR
	}

	t1 := &Table{
		ID:     "fig19a",
		Title:  "PSNR gain over time (dB, per quarter of the stream)",
		Header: []string{"scheme", "q1", "q2", "q3", "q4"},
	}
	t2 := &Table{
		ID:     "fig19b",
		Title:  "Distribution of per-sample gains (dB)",
		Header: []string{"scheme", "p25", "median", "p75", "mean"},
	}
	for _, row := range rows {
		r := wait(row.h)
		var quarters [4][]float64
		var gains []float64
		for i, s := range r.Samples {
			g := s.PSNR - baseAt(i)
			gains = append(gains, g)
			k := i * 4 / len(r.Samples)
			if k > 3 {
				k = 3
			}
			quarters[k] = append(quarters[k], g)
		}
		t1.Add(row.name, metrics.Mean(quarters[0]), metrics.Mean(quarters[1]), metrics.Mean(quarters[2]), metrics.Mean(quarters[3]))
		t2.Add(row.name, metrics.Percentile(gains, 25), metrics.Median(gains), metrics.Percentile(gains, 75), metrics.Mean(gains))
	}
	t1.Notes = "one-time gain decays after its window; content-adaptive stays near continuous"
	return []*Table{t1, t2}
}

// Fig22 reproduces Figure 22: the majority of training gain arrives in the
// first few epochs (gain and its per-epoch gradient over a training run).
func Fig22(o Options) *Table {
	native := o.world().native1080
	src := vidgen.NewSource(vidgen.JustChatting, native.W, native.H, 33+o.Seed, 400)
	m, tr := newStudy(sr.DefaultTrainConfig())
	fillTrainer(tr, src, 0, 300, 2, roundRobin(src, 2))
	t := &Table{
		ID:     "fig22",
		Title:  "Training gain vs epoch (offline, 5 minutes of video)",
		Header: []string{"epoch", "gain_dB", "gradient_dB_per_epoch"},
	}
	const n = 25
	prev := 0.0
	for e := 0; e < n; e++ {
		tr.Epoch()
		v := srGain(src, m, 305)
		if e%2 == 0 || e == n-1 {
			t.Add(e+1, v, fmt.Sprintf("%+.3f", v-prev))
		}
		prev = v
	}
	t.Notes = "diminishing per-epoch gradient: most gain in the first few epochs"
	return t
}

// Fig23 reproduces Figure 23: sensitivity to the training-window (epoch)
// length — DNN-gain prediction error and resulting quality.
func Fig23(o Options, run *sweep.Runner) []*Table {
	tr := o.uplinks(1, 230)[0]
	t1 := &Table{
		ID:     "fig23a",
		Title:  "Scheduler gain-prediction error vs training window",
		Header: []string{"epoch_len", "pred_error_dB", "PSNR_dB"},
	}
	type point struct {
		name string
		len  time.Duration
	}
	points := []point{{"3s", 3 * time.Second}, {"5s", 5 * time.Second}, {"20s", 20 * time.Second}, {"40s", 40 * time.Second}}
	base := o.baseConfig(vidgen.JustChatting, 2)
	hs := make([]*sweep.Handle, len(points))
	for i, p := range points {
		cfg := base
		cfg.EpochLen = p.len
		cfg.Trace = tr
		hs[i] = run.Go(cfg)
	}
	var rows []struct {
		name string
		err  float64
		q    float64
	}
	for i, p := range points {
		r := wait(hs[i])
		// Prediction error: the scheduler predicts the next epoch's DNN
		// quality step from the previous two; compare consecutive reported
		// DNN-gain deltas. We approximate with the variability of the
		// gradient series (rough but monotone in the real error).
		var err float64
		var n float64
		for i := 2; i < len(r.Grad); i++ {
			d := r.Grad[i].Gradient - r.Grad[i-1].Gradient
			if d < 0 {
				d = -d
			}
			err += d
			n++
		}
		if n > 0 {
			err /= n
		}
		rows = append(rows, struct {
			name string
			err  float64
			q    float64
		}{p.name, err * 100, r.AvgPSNR})
	}
	for _, r := range rows {
		t1.Add(r.name, fmt.Sprintf("%.4f", r.err), r.q)
	}
	t1.Notes = "paper: error is minimal at the 5s default; long windows predict stale gains"
	return []*Table{t1}
}
