package exp

import (
	"fmt"

	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/sr"
	"livenas/internal/sweep"
	"livenas/internal/vidgen"
)

// Offline SR studies (Figs 2d, 21, 22 and the residual, sampler and
// recency ablations) train a x2 model outside any session, on grid patches
// cut from one rendered stream, and score it against bilinear.
const studyScale, studyPatch = 2, 24

// newStudy returns a fresh study model and its trainer.
func newStudy(cfg sr.TrainConfig) (*sr.Model, *sr.Trainer) {
	m := sr.NewModel(studyScale, 6, 7)
	return m, sr.NewTrainer(m, cfg, 5)
}

// cellPicker chooses the grid cells one frame contributes as samples.
type cellPicker func(f *frame.Frame) []frame.GridCell

// roundRobin picks k cells per frame, cycling through src's patch grid
// across frames.
func roundRobin(src *vidgen.Source, k int) cellPicker {
	cells := frame.Grid(src.W, src.H, studyPatch)
	n := 0
	return func(*frame.Frame) []frame.GridCell {
		pick := make([]frame.GridCell, k)
		for j := range pick {
			pick[j] = cells[n%len(cells)]
			n++
		}
		return pick
	}
}

// fillTrainer adds the patches pick chooses from src's frames at from,
// from+step, … < to (negative times skipped) to tr as LR/HR pairs.
func fillTrainer(tr *sr.Trainer, src *vidgen.Source, from, to, step float64, pick cellPicker) {
	for ts := from; ts < to; ts += step {
		if ts < 0 {
			continue
		}
		f := src.FrameAt(ts)
		for _, cell := range pick(f) {
			hr := frame.Patch(f, cell, studyPatch)
			tr.AddSample(hr.Downscale(studyScale), hr)
		}
	}
}

// srGain is m's PSNR gain over bilinear upscaling on src's frame at t.
func srGain(src *vidgen.Source, m *sr.Model, t float64) float64 {
	hr := src.FrameAt(t)
	lr := hr.Downscale(studyScale)
	return metrics.PSNR(hr, m.SuperResolve(lr)) - metrics.PSNR(hr, lr.ResizeBilinear(hr.W, hr.H))
}

// epochs runs n training epochs.
func epochs(tr *sr.Trainer, n int) {
	for e := 0; e < n; e++ {
		tr.Epoch()
	}
}

// AblationResidual compares the residual (bilinear-skip) SR architecture
// with a direct-regression variant: residual learning is why gain appears
// within a few epochs of online training.
func AblationResidual(o Options) *Table {
	native := o.world().native1080
	src := vidgen.NewSource(vidgen.JustChatting, native.W, native.H, 41+o.Seed, 200)
	t := &Table{
		ID:     "abl-residual",
		Title:  "Ablation: residual (bilinear-skip) vs direct SR head",
		Header: []string{"epochs", "residual_gain_dB", "direct_gain_dB"},
	}
	res, trR := newStudy(sr.DefaultTrainConfig())
	// Direct variant: same architecture, but the tail is randomly
	// initialised instead of zero-initialised, so the network must learn
	// the whole mapping rather than a correction on top of bilinear.
	dir, trD := newStudy(sr.DefaultTrainConfig())
	reinitTail(dir)
	fillTrainer(trR, src, 0, 60, 1, roundRobin(src, 2))
	fillTrainer(trD, src, 0, 60, 1, roundRobin(src, 2))
	done := 0
	for _, upto := range []int{1, 3, 8} {
		for ; done < upto; done++ {
			trR.Epoch()
			trD.Epoch()
		}
		t.Add(upto, srGain(src, res, 65), srGain(src, dir, 65))
	}
	t.Notes = "residual starts at 0 dB (== bilinear) and improves immediately"
	return t
}

// reinitTail randomises the final conv of a model (undoing the zero init).
func reinitTail(m *sr.Model) {
	params := m.Params()
	// Last two params are the tail conv's weight and bias.
	wp := params[len(params)-2]
	rngState := uint64(0x9e3779b97f4a7c15)
	for i := range wp.W {
		rngState = rngState*6364136223846793005 + 1442695040888963407
		wp.W[i] = (float32(rngState>>40) / float32(1<<24)) * 0.2
	}
}

// AblationSampler compares the §5.2 quality-filtered grid sampler with
// uniform crops, offline: one model trains on the two hardest-to-upsample
// grid cells of each frame, the other on two cells round-robin.
func AblationSampler(o Options) *Table {
	native := o.world().native1080
	src := vidgen.NewSource(vidgen.LeagueOfLegends, native.W, native.H, 51+o.Seed, 200)
	cells := frame.Grid(native.W, native.H, studyPatch)
	hardest := func(f *frame.Frame) []frame.GridCell {
		up := f.Downscale(studyScale).ResizeBilinear(f.W, f.H)
		mse := make([]float64, len(cells))
		for i, cell := range cells {
			mse[i] = metrics.MSE(frame.Patch(f, cell, studyPatch), frame.Patch(up, cell, studyPatch))
		}
		pick := make([]frame.GridCell, 2)
		for j := range pick {
			best := 0
			for i := range mse {
				if mse[i] > mse[best] {
					best = i
				}
			}
			pick[j] = cells[best]
			mse[best] = -1
		}
		return pick
	}
	gain := func(pick cellPicker) float64 {
		m, tr := newStudy(sr.DefaultTrainConfig())
		fillTrainer(tr, src, 0, 60, 1, pick)
		epochs(tr, 8)
		return srGain(src, m, 65)
	}
	t := &Table{
		ID:     "abl-sampler",
		Title:  "Ablation: quality-filtered patch selection vs uniform",
		Header: []string{"sampler", "gain_dB"},
	}
	t.Add("quality-filtered", gain(hardest))
	t.Add("uniform-random", gain(roundRobin(src, 2)))
	t.Notes = "paper: selection filter worth +0.1-0.3 dB"
	return t
}

// AblationRecency compares recency-weighted minibatch sampling with uniform
// sampling on a stream with a scene change.
func AblationRecency(o Options) *Table {
	native := o.world().native1080
	src := vidgen.NewSource(vidgen.Fortnite, native.W, native.H, 61+o.Seed, 400)
	changes := src.SceneChanges()
	if len(changes) == 0 {
		changes = []float64{60}
	}
	cut := changes[0]
	gain := func(recency bool) float64 {
		cfg := sr.DefaultTrainConfig()
		if !recency {
			cfg.RecencyWeight = 1
		}
		m, tr := newStudy(cfg)
		// Old scene then new scene; recency should favour the new.
		fillTrainer(tr, src, cut-40, cut+12, 0.5, roundRobin(src, 1))
		epochs(tr, 8)
		return srGain(src, m, cut+14)
	}
	t := &Table{
		ID:     "abl-recency",
		Title:  "Ablation: recency-weighted minibatches vs uniform (after scene change)",
		Header: []string{"sampling", "gain_on_new_scene_dB"},
	}
	t.Add("recency-weighted(4x)", gain(true))
	t.Add("uniform", gain(false))
	t.Notes = "paper: recency weighting worth +0.07-0.28 dB"
	return t
}

// AblationScheduler compares the gradient-ascent scheduler against fixed
// patch-bitrate allocations in the full pipeline.
func AblationScheduler(o Options, run *sweep.Runner) *Table {
	tr := o.uplinks(1, 70)[0]
	base := o.baseConfig(vidgen.JustChatting, 2)
	base.Trace = tr
	t := &Table{
		ID:     "abl-scheduler",
		Title:  "Ablation: quality-optimizing scheduler vs fixed patch bitrate",
		Header: []string{"policy", "PSNR_dB", "avg_patch_kbps"},
	}
	hSched := run.Go(base)
	mults := []float64{0.5, 1, 3, 8}
	hFixed := make([]*sweep.Handle, len(mults))
	for i, mult := range mults {
		cfg := base
		cfg.StepKbps = 0.0001 // freeze updates: effectively a fixed rate
		cfg.InitPatchKbps = base.InitPatchKbps * mult
		hFixed[i] = run.Go(cfg)
	}
	r := wait(hSched)
	t.Add("gradient-scheduler", r.AvgPSNR, r.AvgPatchKbps)
	for i, mult := range mults {
		fr := wait(hFixed[i])
		t.Add(fmt.Sprintf("fixed(%.1fx init)", mult), fr.AvgPSNR, fr.AvgPatchKbps)
	}
	t.Notes = "the scheduler should match or beat every fixed allocation"
	return t
}

// AblationFunctionalCodec compares the normalized-curve video-quality
// gradient (§5.1) with the functional-codec direct probe (§9's extension):
// the probe measures dQvideo/dv exactly where the curve only models it.
func AblationFunctionalCodec(o Options, run *sweep.Runner) *Table {
	tr := o.uplinks(1, 80)[0]
	base := o.baseConfig(vidgen.JustChatting, 2)
	base.Trace = tr
	t := &Table{
		ID:     "abl-funcodec",
		Title:  "Ablation: normalized-curve gradient vs functional-codec probe",
		Header: []string{"estimator", "PSNR_dB", "avg_patch_kbps"},
	}
	fc := base
	fc.FunctionalCodec = true
	hCurve, hProbe := run.Go(base), run.Go(fc)
	r := wait(hCurve)
	t.Add("normalized-curve", r.AvgPSNR, r.AvgPatchKbps)
	rf := wait(hProbe)
	t.Add("functional-probe", rf.AvgPSNR, rf.AvgPatchKbps)
	t.Notes = "the probe should match or beat the curve estimate (paper §9: functional codecs would 'determine the quality of encoding at different bitrates more accurately')"
	return t
}
