package main

import (
	"bytes"
	"math/rand"
	"time"

	"livenas/internal/codec"
	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/nn"
	"livenas/internal/sr"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
)

// serve_hd: the media server's data path on one HD stream, as fast as it
// will go (closed loop, one stream). Set-up renders, encodes and packetises
// the clip; the timed loop is Reassembler.Add -> Decoder.Decode ->
// sr.Processor.Process on every frame, patches -> DecodePatch ->
// Trainer.AddSample, and Trainer.Epoch + Processor.Sync every EpochEvery
// frames, exactly the calls cmd/livenas-server.serve and core.server make.

var (
	opReassemble  = defOp("transport", "reassemble")
	opDecodeHD    = defOp("codec", "decode_hd")
	opPatchDecode = defOp("codec", "patch_decode_hd")
	opInferF32    = defOp("sr", "infer_f32")
	opInferInt8   = defOp("sr", "infer_int8")
	opAddSampleHD = defOp("sr", "add_sample_hd")
	opEpochHD     = defOp("sr", "train_epoch_hd")
	opSync        = defOp("sr", "sync")
	opGate        = defOp("sr", "quant_gate")
)

const (
	serveFPS       = 30
	serveVideoKbps = 1200
	serveMTU       = transport.MTU
	serveGateEvery = 8 // core.gateSampleEvery: one gate probe per 8 patches
)

type hdVideoMeta struct {
	key bool
	qp  int
}

type hdPatchMeta struct{ x, y int }

// hdFrame is one pre-encoded frame of the clip: its wire fragments, the
// encoder's own reconstruction (what a correct decoder must reproduce bit
// for bit), and the training patch cut from it, if any.
type hdFrame struct {
	video []transport.Fragment
	recon []uint8
	patch []transport.Fragment
}

type hdClip struct {
	w, h, scale int // ingest dimensions and SR factor
	frames      []hdFrame
	truth       []*frame.Frame // native frames of the last QualityFrames
}

// buildClip is serve_hd's repeatable set-up: vidgen and the encoder run
// here and nowhere in the timed loop.
func buildClip(sz sizes, seed int64) *hdClip {
	const scale = 2
	src := vidgen.NewSource(vidgen.JustChatting, sz.HDNativeW, sz.HDNativeH, 500+seed, float64(sz.ClipFrames)/serveFPS+1)
	c := &hdClip{w: sz.HDNativeW / scale, h: sz.HDNativeH / scale, scale: scale}
	enc := codec.NewEncoder(codec.Config{Profile: codec.BX8, W: c.w, H: c.h, KeyInterval: sz.GoP - 1})
	patchSize := 24 * sz.HDNativeH / 216
	cells := frame.Grid(sz.HDNativeW, sz.HDNativeH, patchSize)
	rng := rand.New(rand.NewSource(seed ^ 0x5e12e))
	targetBits := serveVideoKbps * 1000 / serveFPS
	for i := 0; i < sz.ClipFrames; i++ {
		raw := src.FrameAt(float64(i) / serveFPS)
		ef := enc.Encode(raw.Downscale(scale), targetBits)
		f := hdFrame{
			video: transport.Packetize(transport.KindVideo, i, ef.Data, hdVideoMeta{ef.Key, ef.QP}, serveMTU),
			recon: enc.Reconstructed().Pix,
		}
		if i%sz.PatchEvery == 0 && len(cells) > 0 {
			cell := cells[rng.Intn(len(cells))]
			data := codec.EncodePatch(frame.Patch(raw, cell, patchSize), codec.PatchQuality)
			f.patch = transport.Packetize(transport.KindPatch, i, data, hdPatchMeta{cell.X, cell.Y}, serveMTU)
		}
		c.frames = append(c.frames, f)
		if i >= sz.ClipFrames-sz.QualityFrames {
			c.truth = append(c.truth, raw)
		}
	}
	return c
}

// hdServer is the media-server state of one iteration: fresh model, trainer
// and processor, so every iteration does identical work.
type hdServer struct {
	clip    *hdClip
	tk      *Track
	inferOp opID

	reasm   *transport.Reassembler
	dec     *codec.Decoder
	model   *sr.Model
	trainer *sr.Trainer
	proc    *sr.Processor

	clipIdx   int // index into clip.frames of the unit being reassembled
	decoded   *frame.Frame
	out       *frame.Frame
	patches   int
	quant     bool
	failed    int
	decodeMS  []float64
	inferMS   []float64
	keepLR    []*frame.Frame // decoded inputs of the quality frames
	keepOut   []*frame.Frame // their enhanced outputs
	keepFrom  int            // clip index from which frames are kept; -1 = never
	corruptAt int            // test hook: flip one decoded pixel of this clip index; -1 = never
}

func newHDServer(clip *hdClip) *hdServer {
	s := &hdServer{clip: clip, inferOp: opInferF32, keepFrom: -1, corruptAt: -1}
	s.reasm = transport.NewReassembler()
	s.reasm.OnComplete = s.onUnit
	s.reasm.OnLoss = func(transport.Kind, int) { s.failed++ }
	s.dec = codec.NewDecoder(codec.Config{Profile: codec.BX8, W: clip.w, H: clip.h})
	s.model = sr.NewModel(clip.scale, sr.DefaultChannels, 1)
	s.trainer = sr.NewTrainer(s.model, sr.DefaultTrainConfig(), 2)
	s.proc = sr.NewProcessor(s.model, 1, sr.RTX2080Ti())
	return s
}

func (s *hdServer) onUnit(a transport.Assembled) {
	switch a.Kind {
	case transport.KindVideo:
		meta := a.Meta.(hdVideoMeta)
		if meta.key {
			s.dec.Reset()
		}
		t0 := time.Now()
		s.tk.Begin(opDecodeHD)
		lr, err := s.dec.Decode(&codec.EncodedFrame{Data: a.Data, Key: meta.key, QP: meta.qp, Seq: a.ID})
		s.tk.End()
		s.decodeMS = append(s.decodeMS, ms(time.Since(t0)))
		if err != nil {
			s.failed++
			return
		}
		if s.clipIdx == s.corruptAt {
			lr.Pix[len(lr.Pix)/2] ^= 0x80
		}
		if !bytes.Equal(lr.Pix, s.clip.frames[s.clipIdx].recon) {
			s.failed++
		}
		s.decoded = lr
		t0 = time.Now()
		s.tk.Begin(s.inferOp)
		s.out, _ = s.proc.Process(lr)
		s.tk.End()
		s.inferMS = append(s.inferMS, ms(time.Since(t0)))
		if s.keepFrom >= 0 && s.clipIdx >= s.keepFrom {
			s.keepLR = append(s.keepLR, lr)
			s.keepOut = append(s.keepOut, s.out)
		}
	case transport.KindPatch:
		meta := a.Meta.(hdPatchMeta)
		s.tk.Begin(opPatchDecode)
		hr, err := codec.DecodePatch(a.Data)
		s.tk.End()
		if err != nil || s.decoded == nil {
			s.failed++
			return
		}
		sc := s.clip.scale
		lr := s.decoded.Crop(meta.x/sc, meta.y/sc, hr.W/sc, hr.H/sc)
		s.tk.Begin(opAddSampleHD)
		s.trainer.AddSample(lr, hr)
		s.tk.End()
		s.patches++
		if s.quant && s.patches%serveGateEvery == 0 {
			s.tk.Begin(opGate)
			s.proc.ObserveGatePatch(lr, hr)
			s.tk.End()
		}
	}
}

// run pushes n frames (the clip, looped) through the data path and returns
// each frame's fragment-in -> enhanced-frame-out time in milliseconds.
// first is the global number of the first frame, which keeps unit ids
// monotonic across legs as the reassembler's loss detection expects.
func (s *hdServer) run(first, n, epochEvery int) (leg, []float64) {
	frameMS := make([]float64, 0, n)
	t0 := time.Now()
	for g := first; g < first+n; g++ {
		s.clipIdx = g % len(s.clip.frames)
		f := &s.clip.frames[s.clipIdx]
		in := time.Now()
		s.tk.Begin(opReassemble)
		for _, fr := range f.video {
			fr.ID = g
			s.reasm.Add(fr, 0)
		}
		s.tk.End()
		frameMS = append(frameMS, ms(time.Since(in)))
		if f.patch != nil {
			s.tk.Begin(opReassemble)
			for _, fr := range f.patch {
				fr.ID = g
				s.reasm.Add(fr, 0)
			}
			s.tk.End()
		}
		if (g+1)%epochEvery == 0 && s.trainer.SampleCount() > 0 {
			s.tk.Begin(opEpochHD)
			s.trainer.Epoch()
			s.tk.End()
			s.tk.Begin(opSync)
			s.proc.Sync(s.model)
			s.tk.End()
		}
	}
	return leg{ops: float64(n), wall: time.Since(t0)}, frameMS
}

func psnrMean(truth, got []*frame.Frame) float64 {
	var sum float64
	for i := range truth {
		sum += metrics.PSNR(truth[i], got[i])
	}
	return sum / float64(len(truth))
}

func serveHD(e *env) error {
	e.beginSetup()
	e.once(func() { nn.SharedPool() })
	clip := repeatSetup(e, func() *hdClip { return buildClip(e.sz, e.seed) })
	e.finishSetup()
	return serveHDLoop(e, clip, -1)
}

// serveHDLoop is the timed part; corruptAt is the test hook of hdServer.
func serveHDLoop(e *env, clip *hdClip, corruptAt int) error {
	sz := e.sz
	var frameMS, decodeMS, f32MS, int8MS []float64
	var misses, frames int
	var arenaHits, arenaMisses int64
	var quality qualityInput
	err := e.measure(func(i int, tk *Track) (leg, leg, error) {
		s := newHDServer(clip)
		s.tk, s.corruptAt = tk, corruptAt
		if i == 0 {
			// The quality frames are the clip's last ones on the f32 leg's
			// last pass; keeping them costs two slice appends per frame.
			s.keepFrom = sz.ClipFrames - sz.QualityFrames
		}
		a, fms := s.run(0, sz.LegFrames, sz.EpochEvery)
		if i == 0 {
			s.keepFrom = -1
			quality = qualityInput{lrs: s.keepLR, outs: s.keepOut, model: s.model.Clone()}
		}
		f32 := s.inferMS
		s.inferMS = nil
		s.proc.EnableQuant(s.model, 0.5)
		s.quant, s.inferOp = true, opInferInt8
		b, _ := s.run(sz.LegFrames, sz.LegFrames, sz.EpochEvery)
		e.check(s.proc.QuantActive(), "serve_hd: the int8 quality gate tripped, the int8 leg ran f32")
		e.attempted += 2 * sz.LegFrames
		e.failed += s.failed
		if tk == nil {
			frameMS = append(frameMS, fms...)
			decodeMS = append(decodeMS, s.decodeMS...)
			f32MS = append(f32MS, f32...)
			int8MS = append(int8MS, s.inferMS...)
			for _, v := range fms {
				if v > 1000.0/serveFPS {
					misses++
				}
			}
			frames += len(fms)
		}
		h, m := s.model.ArenaStats()
		ph, pm := s.proc.ArenaStats()
		arenaHits, arenaMisses = arenaHits+h+ph, arenaMisses+m+pm
		return a, b, nil
	})
	if err != nil {
		return err
	}
	e.serveQuality(clip, quality)
	e.check(e.failed == 0, "serve_hd: %d frames lost, undecodable or not bit-equal to the encoder's reconstruction", e.failed)
	e.set("serve.frame_ms_p50", median(frameMS))
	e.set("codec.decode_hd_ms", median(decodeMS))
	e.set("codec.decode_hd_ms_p95", quantile(decodeMS, 0.95))
	e.set("sr.infer_f32_ms", median(f32MS))
	e.set("sr.infer_f32_ms_p95", quantile(f32MS, 0.95))
	e.set("sr.infer_int8_ms", median(int8MS))
	e.set("sr.infer_int8_ms_p95", quantile(int8MS, 0.95))
	e.set("sr.deadline_miss_pct", 100*float64(misses)/float64(frames))
	e.set("nn.arena_miss_ratio", float64(arenaMisses)/float64(arenaHits+arenaMisses))
	if !e.trace {
		return nil
	}
	agg := e.foldTrace()
	e.set("codec.decode_hd_share", agg.share(opDecodeHD, opPatchDecode))
	e.set("transport.reassemble_us", agg.selfMean(opReassemble, time.Microsecond))
	e.set("sr.infer_share", agg.share(opInferF32, opInferInt8))
	e.set("sr.train_epoch_hd_ms", agg.mean(opEpochHD, time.Millisecond))
	e.set("sr.sync_ms", agg.mean(opSync, time.Millisecond))
	e.set("sr.train_share", agg.share(opEpochHD, opSync, opAddSampleHD, opGate))
	convKernels(e, clip.w, clip.h)
	return nil
}

// qualityInput is what the first iteration's f32 leg leaves behind for
// serveQuality: the decoded inputs and enhanced outputs of the quality
// frames, and the model as trained at the end of that leg.
type qualityInput struct {
	lrs, outs []*frame.Frame
	model     *sr.Model
}

// serveQuality measures, after the timed loop, what the enhancement is
// worth: the SR gain over bilinear against the native ground truth on the
// f32 leg's last QualityFrames, and what the int8 path loses on those same
// decoded frames with the same weights.
func (e *env) serveQuality(clip *hdClip, in qualityInput) {
	truth := clip.truth
	n := len(truth)
	e.check(len(in.outs) >= n, "serve_hd: kept %d quality frames, want %d", len(in.outs), n)
	if len(in.outs) < n {
		return
	}
	lrs, outs := in.lrs[len(in.lrs)-n:], in.outs[len(in.outs)-n:]
	bil := make([]*frame.Frame, n)
	for i, lr := range lrs {
		bil[i] = lr.ResizeBilinear(truth[i].W, truth[i].H)
	}
	e.set("virt.sr_gain_db", psnrMean(truth, outs)-psnrMean(truth, bil))

	// Both sides of the gap use the end-of-leg weights (the served outputs
	// above straddle an epoch boundary, so they cannot be the f32 side).
	enhance := func(p *sr.Processor) []*frame.Frame {
		got := make([]*frame.Frame, n)
		for i, lr := range lrs {
			got[i], _ = p.Process(lr)
		}
		return got
	}
	f32 := sr.NewProcessor(in.model, 1, sr.RTX2080Ti())
	int8 := sr.NewProcessor(in.model, 1, sr.RTX2080Ti())
	int8.EnableQuant(in.model, 0)
	e.set("virt.int8_gap_db", psnrMean(truth, enhance(f32))-psnrMean(truth, enhance(int8)))
}

// convKernels times the nn kernels directly at serve_hd's dominant layer
// shape (the C->C 3x3 hidden conv over one ingest frame), so a kernel
// change shows here before it shows in sr.infer_*.
func convKernels(e *env, w, h int) {
	const c = sr.DefaultChannels
	rng := rand.New(rand.NewSource(e.seed))
	conv := nn.NewConv2D(c, c, 3, rng)
	arena := nn.NewArena()
	conv.SetKernelContext(arena, nn.SharedPool())
	x := nn.NewTensor(c, h, w)
	for i := range x.Data {
		x.Data[i] = rng.Float32()
	}
	macs := float64(c * c * 9 * w * h)
	reps := 1 + int(2e8/macs)
	best := func(fn func()) float64 { // best of reps, GMAC/s
		fn() // warm the arena
		fastest := time.Duration(1 << 62)
		for i := 0; i < reps; i++ {
			t0 := time.Now()
			fn()
			if d := time.Since(t0); d < fastest {
				fastest = d
			}
		}
		return macs / float64(fastest.Nanoseconds())
	}
	e.set("nn.conv_fwd_gmacs_per_s", best(func() { arena.Put(conv.Forward(x)) }))
	dOut := nn.NewTensor(c, h, w)
	copy(dOut.Data, x.Data)
	y := conv.Forward(x) // Backward reads the input Forward cached
	// Backward computes dIn, gradW and gradB: twice the forward's MACs.
	e.set("nn.conv_bwd_gmacs_per_s", 2*best(func() { arena.Put(conv.Backward(dOut)) }))
	arena.Put(y)

	q := nn.QuantizeConv2D(conv)
	xq := make([]int16, c*h*w)
	for i := range xq {
		xq[i] = int16(rng.Intn(128))
	}
	scale := make([]float32, c)
	for i := range scale {
		scale[i] = 1.0 / 127
	}
	out := make([]float32, c*h*w)
	e.set("nn.int8_gmacs_per_s", best(func() { q.ForwardDequant(arena, xq, h, w, scale, q.Bias, out) }))
}
