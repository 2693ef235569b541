package sr

import (
	"math/rand"

	"livenas/internal/frame"
	"livenas/internal/nn"
	"livenas/internal/telemetry"
)

// TrainConfig controls online training. Defaults follow the paper's settings
// (§7: 50 iterations/epoch, minibatch 64, lr 1e-4, K=150 recent patches at
// 4x weight) scaled to this model's CPU-sized capacity where noted.
type TrainConfig struct {
	// ItersPerEpoch is the number of optimiser steps per training epoch.
	ItersPerEpoch int
	// Batch is the minibatch size per step.
	Batch int
	// LR is the Adam learning rate.
	LR float64
	// RecencyK is how many of the most recent samples get boosted sampling
	// weight (§6.2 "gives a larger weight to recent K patches").
	RecencyK int
	// RecencyWeight is the sampling weight multiplier for recent samples.
	RecencyWeight float64
	// MaxSamples caps the retained training set (ring buffer); 0 = 2000.
	MaxSamples int
	// GPUs is the number of data-parallel training devices (>=1).
	GPUs int
}

// DefaultTrainConfig returns paper-equivalent settings scaled to this model:
// fewer, larger-learning-rate steps because the network is ~1000x smaller
// than NAS "ultra-high" and converges proportionally faster.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		ItersPerEpoch: 16,
		Batch:         8,
		LR:            1e-2,
		RecencyK:      150,
		RecencyWeight: 4,
		MaxSamples:    2000,
		GPUs:          1,
	}
}

func (c TrainConfig) withDefaults() TrainConfig {
	d := DefaultTrainConfig()
	if c.ItersPerEpoch <= 0 {
		c.ItersPerEpoch = d.ItersPerEpoch
	}
	if c.Batch <= 0 {
		c.Batch = d.Batch
	}
	if c.LR <= 0 {
		c.LR = d.LR
	}
	if c.RecencyK <= 0 {
		c.RecencyK = d.RecencyK
	}
	if c.RecencyWeight <= 0 {
		c.RecencyWeight = d.RecencyWeight
	}
	if c.MaxSamples <= 0 {
		c.MaxSamples = d.MaxSamples
	}
	if c.GPUs <= 0 {
		c.GPUs = 1
	}
	return c
}

// Sample is one training example: a low-resolution input patch and its
// high-resolution ground-truth label, plus the residual target the model
// actually regresses (hr - bilinear(lr), precomputed once).
type Sample struct {
	LR  *nn.Tensor
	Res *nn.Tensor // residual target at HR resolution, normalised
	Seq int        // arrival sequence number (recency)
}

// Trainer performs online training of a Model on an evolving patch dataset.
// A Trainer's own methods are single-goroutine (the ingest server drives it
// from its event loop), but the trained Model may be shared: each optimiser
// step holds the model's write lock, so concurrent Processor.Sync and
// SuperResolve callers on the same model are safe (see race_test.go).
type Trainer struct {
	Model *Model
	cfg   TrainConfig
	opt   *nn.Adam
	data  []Sample
	seq   int
	rng   *rand.Rand

	replicas []*Model // data-parallel training replicas (cfg.GPUs > 1)

	// Telemetry handles (nil until SetTelemetry; nil-safe).
	mEpochs  *telemetry.Counter
	mSteps   *telemetry.Counter
	mSamples *telemetry.Counter
	mLoss    *telemetry.Gauge
}

// NewTrainer creates a trainer that updates model in place.
func NewTrainer(model *Model, cfg TrainConfig, seed int64) *Trainer {
	cfg = cfg.withDefaults()
	t := &Trainer{
		Model: model,
		cfg:   cfg,
		opt:   nn.NewAdam(cfg.LR),
		rng:   rand.New(rand.NewSource(seed)),
	}
	for i := 1; i < cfg.GPUs; i++ {
		t.replicas = append(t.replicas, model.Clone())
	}
	return t
}

// Config returns the effective training configuration.
func (t *Trainer) Config() TrainConfig { return t.cfg }

// SetTelemetry registers the trainer's metrics on reg: epochs and optimiser
// steps run (sr_train_epochs, sr_train_steps), samples admitted to the
// training set (sr_train_samples_added), and the latest epoch's mean
// minibatch loss (sr_train_loss). Handles are held; the per-step cost is
// lock-free atomics only.
func (t *Trainer) SetTelemetry(reg *telemetry.Registry) {
	t.mEpochs = reg.Counter("sr_train_epochs")
	t.mSteps = reg.Counter("sr_train_steps")
	t.mSamples = reg.Counter("sr_train_samples_added")
	t.mLoss = reg.Gauge("sr_train_loss")
}

// SampleCount reports the current training-set size.
func (t *Trainer) SampleCount() int { return len(t.data) }

// AddSample registers a new (lr, hr) patch pair. hr must be exactly
// scale x the lr dimensions.
func (t *Trainer) AddSample(lr, hr *frame.Frame) {
	s := t.Model.Scale
	if hr.W != lr.W*s || hr.H != lr.H*s {
		panic("sr: sample dimensions do not match model scale")
	}
	up := lr.ResizeBilinear(hr.W, hr.H)
	res := nn.NewTensor(1, hr.H, hr.W)
	for i := range res.Data {
		res.Data[i] = (float32(hr.Pix[i]) - float32(up.Pix[i])) / 255
	}
	t.data = append(t.data, Sample{LR: ToTensor(lr), Res: res, Seq: t.seq})
	t.seq++
	t.mSamples.Inc()
	if len(t.data) > t.cfg.MaxSamples {
		t.data = t.data[len(t.data)-t.cfg.MaxSamples:]
	}
}

// pick draws one sample index with recency weighting: the most recent
// RecencyK samples are RecencyWeight times as likely per sample as older
// ones (§6.2).
func (t *Trainer) pick() int {
	n := len(t.data)
	k := t.cfg.RecencyK
	if k > n {
		k = n
	}
	old := n - k
	wOld := float64(old)
	wNew := float64(k) * t.cfg.RecencyWeight
	if t.rng.Float64()*(wOld+wNew) < wOld {
		return t.rng.Intn(old)
	}
	return old + t.rng.Intn(k)
}

// Epoch runs one training epoch (ItersPerEpoch optimiser steps) and returns
// the mean minibatch loss. With GPUs > 1, each step shards its minibatch
// across replicas, weights each shard's gradients by the recency of its
// patches (more recent shard = larger weight, §6.2 "give a larger weight to
// the gradient computed with more recent patches"), and synchronises
// replica weights after the aggregated update.
func (t *Trainer) Epoch() float64 {
	if len(t.data) == 0 {
		return 0
	}
	var lossSum float64
	for it := 0; it < t.cfg.ItersPerEpoch; it++ {
		lossSum += t.step()
	}
	mean := lossSum / float64(t.cfg.ItersPerEpoch)
	t.mEpochs.Inc()
	t.mLoss.Set(mean)
	return mean
}

// step runs one minibatch update and returns its mean loss.
func (t *Trainer) step() float64 {
	t.mSteps.Inc()
	models := append([]*Model{t.Model}, t.replicas...)
	g := len(models)
	perShard := (t.cfg.Batch + g - 1) / g

	// Draw the whole minibatch, then order it by recency so shard g-1 holds
	// the most recent patches and receives the largest gradient weight.
	idx := make([]int, 0, perShard*g)
	for len(idx) < perShard*g {
		idx = append(idx, t.pick())
	}
	sortBySeq(idx, t.data)

	// The shard phase runs forward/backward on the master (models[0]) and
	// the update phase writes its weights; hold the master's write lock for
	// the whole step so concurrent Processor.Sync / SuperResolve callers on
	// the shared model always observe step-consistent weights (§7 "the
	// inference process is synchronized").
	t.Model.mu.Lock()
	defer t.Model.mu.Unlock()

	type shardResult struct {
		loss   float64
		weight float64
	}
	results := make([]shardResult, g)
	done := make(chan int, g)
	for si := 0; si < g; si++ {
		si := si
		go func() {
			m := models[si]
			m.zeroGrads()
			loss := t.shardGrad(m, idx[si*perShard:(si+1)*perShard])
			// Recency weight: linear ramp so the shard with the newest
			// patches counts ~2x the oldest shard.
			results[si] = shardResult{loss: loss, weight: 1 + float64(si)/float64(g)}
			done <- si
		}()
	}
	for i := 0; i < g; i++ {
		<-done
	}

	// Aggregate replica gradients into the master with shard weights. The
	// per-element arithmetic stays in float32: the float64 shard weights
	// are folded into float32 scale factors once, outside the loops, so the
	// gradient loop does no cross-precision conversion.
	if g > 1 {
		var wSum float64
		for _, r := range results {
			wSum += r.weight
		}
		scale := make([]float32, g)
		for si, r := range results {
			scale[si] = float32(r.weight * float64(g) / wSum)
		}
		grads := make([][]nn.Param, g)
		for si, m := range models {
			grads[si] = m.Params()
		}
		master := grads[0]
		for pi := range master {
			dst := master[pi].Grad
			for j := range dst {
				var acc float32
				for si := range grads {
					acc += grads[si][pi].Grad[j] * scale[si]
				}
				dst[j] = acc
			}
		}
	}
	// Normalise gradient by total sample count (losses were summed).
	total := float64(perShard * g)
	tot := float32(total)
	for _, p := range t.Model.Params() {
		for j := range p.Grad {
			p.Grad[j] /= tot
		}
	}
	t.opt.Step(t.Model.Params())
	for _, r := range t.replicas {
		// Replicas are trainer-private and the master lock is already
		// held, so copy without re-locking.
		r.copyWeights(t.Model)
	}

	var loss float64
	for _, r := range results {
		loss += r.loss
	}
	return loss / total
}

// shardGrad accumulates the gradient of the samples idx into m's gradient
// accumulators and returns the summed loss.
//
// Each sample gets a private gradient context (weight-sharing layer
// clones) so all samples of the shard run concurrently on the kernel pool;
// the private gradients are then folded into the model in ascending sample
// order. The fold order — and therefore the result — is fixed by the shard
// contents alone, never by the pool size.
func (t *Trainer) shardGrad(m *Model, idx []int) float64 {
	ctxs := m.gradContexts(len(idx))
	losses := make([]float64, len(idx))
	m.pool.Run(len(idx), func(k int) {
		ctxs[k].zeroGrads()
		losses[k] = ctxs[k].sampleGrad(t.data[idx[k]])
	})
	var loss float64
	mp := m.Params()
	for k := range idx {
		// Every training sample doubles as an int8 activation-scale
		// calibration probe (the caller holds the master's write lock).
		m.foldCalib(ctxs[k].actMax)
		for pi := range mp {
			dst := mp[pi].Grad
			for j, v := range ctxs[k].params[pi].Grad {
				dst[j] += v
			}
		}
		loss += losses[k]
	}
	return loss
}

// sortBySeq orders sample indices by ascending arrival sequence (insertion
// sort; minibatches are small).
func sortBySeq(idx []int, data []Sample) {
	for i := 1; i < len(idx); i++ {
		for j := i; j > 0 && data[idx[j]].Seq < data[idx[j-1]].Seq; j-- {
			idx[j], idx[j-1] = idx[j-1], idx[j]
		}
	}
}

// PretrainOnDataset trains a model on a fixed image set (the generic-SR and
// pre-trained baselines of §8.1): each image is split into aligned LR/HR
// patch pairs of hrSize pixels by box-downscaling, then trained for the
// given epochs. hrSize is clamped to fit the images and snapped to a
// multiple of the model's scale.
func PretrainOnDataset(model *Model, images []*frame.Frame, epochs, hrSize int, cfg TrainConfig, seed int64) {
	if len(images) == 0 {
		return
	}
	tr := NewTrainer(model, cfg, seed)
	s := model.Scale
	for _, img := range images {
		size := hrSize
		if size > img.W {
			size = img.W
		}
		if size > img.H {
			size = img.H
		}
		size = size / s * s
		if size < s {
			continue
		}
		for _, cell := range frame.Grid(img.W, img.H, size) {
			hr := frame.Patch(img, cell, size)
			tr.AddSample(hr.Downscale(s), hr)
		}
	}
	for e := 0; e < epochs; e++ {
		tr.Epoch()
	}
}
