package sr

import (
	"testing"
	"time"

	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/nn"
	"livenas/internal/telemetry"
	"livenas/internal/vidgen"
)

// trainedModel returns a content-trained model plus its stream source, so
// quantization tests exercise realistic (non-zero, calibrated) weights.
func trainedModel(t *testing.T, seed int64) (*Model, *vidgen.Source) {
	t.Helper()
	const scale = 2
	m := NewModel(scale, 6, 11)
	tr := NewTrainer(m, DefaultTrainConfig(), 5)
	src := vidgen.NewSource(vidgen.JustChatting, 128, 96, seed, 60)
	trainPairs(tr, src, scale, 48, 8)
	for e := 0; e < 6; e++ {
		tr.Epoch()
	}
	return m, src
}

func TestQuantCalibrationFlowsFromTraining(t *testing.T) {
	m, _ := trainedModel(t, 21)
	st := m.calibStats()
	if st[0] <= 0 || st[1] <= 0 {
		t.Fatalf("training did not populate calibration stats: %v", st)
	}
}

// TestQuantE2EPSNRGap pins the acceptance criterion of the int8 path: on
// held-out frames of the stream the model was trained on, quantized
// inference must stay within 0.5 dB of the f32 path.
func TestQuantE2EPSNRGap(t *testing.T) {
	m, src := trainedModel(t, 21)
	q := NewQuantModel(m)
	for _, ts := range []float64{9.7, 11.3, 14.9} {
		hr := src.FrameAt(ts)
		lr := hr.Downscale(2)
		pF := metrics.PSNR(hr, m.SuperResolve(lr))
		pQ := metrics.PSNR(hr, q.SuperResolve(lr))
		if gap := pF - pQ; gap > 0.5 {
			t.Fatalf("t=%.1f: int8 PSNR gap %.3f dB (f32 %.2f, int8 %.2f); want <= 0.5", ts, gap, pF, pQ)
		}
		// Quantized SR must still clearly beat the bilinear skip alone.
		pB := metrics.PSNR(hr, lr.ResizeBilinear(hr.W, hr.H))
		if pQ <= pB {
			t.Fatalf("t=%.1f: int8 SR %.2f dB no better than bilinear %.2f dB", ts, pQ, pB)
		}
	}
}

// TestQuantSuperResolveDeterministicAcrossPools pins the determinism
// contract of strip-parallel quantized inference: byte-identical output for
// any worker count, because the strip decomposition is fixed and the int8
// kernels are exact.
func TestQuantSuperResolveDeterministicAcrossPools(t *testing.T) {
	m, src := trainedModel(t, 33)
	lr := src.FrameAt(7.7).Downscale(2)
	var ref *frame.Frame
	for _, workers := range []int{1, 2, 8} {
		p := nn.NewPool(workers)
		m.SetKernelPool(p)
		got := NewQuantModel(m).SuperResolve(lr)
		p.Close()
		if ref == nil {
			ref = got
			continue
		}
		for i := range got.Pix {
			if got.Pix[i] != ref.Pix[i] {
				t.Fatalf("pool size %d: output differs from pool size 1 at pixel %d", workers, i)
			}
		}
	}
}

// TestQuantRegionDecompositionSeamFree checks that enhancing a frame
// cell-by-cell (the anytime scheduler's unit) is byte-identical to
// enhancing it whole: halos fully cover the receptive field.
func TestQuantRegionDecompositionSeamFree(t *testing.T) {
	m, src := trainedModel(t, 45)
	lr := src.FrameAt(5.1).Downscale(2)
	q := NewQuantModel(m)
	whole := q.SuperResolve(lr)
	cellwise := lr.ResizeBilinear(lr.W*2, lr.H*2)
	for _, c := range anytimeCells(lr) {
		q.EnhanceRegion(lr, c.x0, c.y0, c.x1, c.y1, cellwise)
	}
	for i := range whole.Pix {
		if whole.Pix[i] != cellwise.Pix[i] {
			t.Fatalf("cell-wise enhancement differs from whole-frame at pixel %d", i)
		}
	}
}

func TestQuantUncalibratedModelEqualsBilinear(t *testing.T) {
	// Zero-initialised tail conv => zero residual: the quantized path must
	// reproduce bilinear exactly, even without calibration statistics.
	m := NewModel(2, 4, 1)
	src := vidgen.NewSource(vidgen.Podcast, 64, 48, 3, 10)
	lr := src.FrameAt(1).Downscale(2)
	got := NewQuantModel(m).SuperResolve(lr)
	want := lr.ResizeBilinear(lr.W*2, lr.H*2)
	for i := range got.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatal("uncalibrated zero-tail quant model must equal bilinear")
		}
	}
}

func TestProcessorQuantPathAndTelemetry(t *testing.T) {
	m, src := trainedModel(t, 57)
	proc := NewProcessor(m, 2, RTX2080Ti())
	reg := telemetry.New()
	proc.SetTelemetry(reg)
	lr := src.FrameAt(4.4).Downscale(2)

	_, latF := proc.Process(lr)
	proc.EnableQuant(m, 0.5)
	if !proc.QuantActive() {
		t.Fatal("quant not active after EnableQuant")
	}
	got, latQ := proc.Process(lr)
	if latQ >= latF {
		t.Fatalf("int8 device latency %v not below f32 %v", latQ, latF)
	}
	want := NewQuantModel(m).SuperResolve(lr)
	for i := range got.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatal("quant Process output differs from QuantModel.SuperResolve")
		}
	}
	if n := reg.Counter("sr_quant_patches").Value(); n != 1 {
		t.Fatalf("sr_quant_patches = %d, want 1", n)
	}
}

// TestQualityGateDisablesOnInjectedError corrupts the quantized model's
// dequant multipliers to simulate catastrophic quantization error and
// checks the online gate falls back to f32, then re-enables (with
// hysteresis) once observations recover.
func TestQualityGateDisablesOnInjectedError(t *testing.T) {
	m, src := trainedModel(t, 69)
	proc := NewProcessor(m, 1, RTX2080Ti())
	reg := telemetry.New()
	proc.SetTelemetry(reg)
	proc.EnableQuant(m, 0.5)

	hr := src.FrameAt(8.8)
	lr := hr.Downscale(2)
	for i := range proc.quant.mDeq {
		proc.quant.mDeq[i] *= 40 // inject quantization error
	}
	proc.ObserveGatePatch(lr, hr)
	if proc.QuantActive() {
		gap, _ := proc.QuantGap()
		t.Fatalf("gate did not disable quant despite %.2f dB gap", gap)
	}
	if reg.Histogram("sr_quant_psnr_gap", nil).Count() == 0 {
		t.Fatal("gate did not record gap observations")
	}

	// A healthy snapshot (as a Sync would install) lets the EWMA recover;
	// the gate must re-enable below the hysteresis threshold.
	proc.quant = NewQuantModel(m)
	for i := 0; i < 100 && !proc.QuantActive(); i++ {
		proc.ObserveGatePatch(lr, hr)
	}
	if !proc.QuantActive() {
		gap, _ := proc.QuantGap()
		t.Fatalf("gate never re-enabled quant; EWMA gap %.3f dB", gap)
	}
}

func TestSyncRefreshesQuantSnapshot(t *testing.T) {
	m, src := trainedModel(t, 81)
	proc := NewProcessor(m, 1, RTX2080Ti())
	proc.EnableQuant(m, 0)
	old := proc.quant
	proc.Sync(m)
	if proc.quant == old {
		t.Fatal("Sync did not rebuild the quantized snapshot")
	}
	lr := src.FrameAt(2.2).Downscale(2)
	got, _ := proc.Process(lr)
	want := NewQuantModel(m).SuperResolve(lr)
	for i := range got.Pix {
		if got.Pix[i] != want.Pix[i] {
			t.Fatal("post-Sync quant output differs from fresh snapshot")
		}
	}
}

func TestAnytimeGenerousBudgetMatchesF32(t *testing.T) {
	m, src := trainedModel(t, 93)
	lr := src.FrameAt(6.6).Downscale(2)
	want := m.SuperResolve(lr)
	for _, gpus := range []int{1, 3} {
		proc := NewProcessor(m, gpus, RTX2080Ti())
		reg := telemetry.New()
		proc.SetTelemetry(reg)
		proc.EnableQuant(m, 0.5)
		proc.SetAnytimeBudget(time.Second) // every cell fits at f32
		got, lat := proc.Process(lr)
		if lat <= 0 {
			t.Fatal("latency must be positive")
		}
		for i := range got.Pix {
			if got.Pix[i] != want.Pix[i] {
				t.Fatalf("gpus=%d: generous anytime budget output differs from whole-frame f32 at pixel %d", gpus, i)
			}
		}
		if n := reg.Counter("infer_deadline_miss").Value(); n != 0 {
			t.Fatalf("gpus=%d: spurious deadline miss", gpus)
		}
	}
}

// mixedBudget returns an anytime budget that fits the whole-frame int8
// plan plus roughly 40% of the int8->f32 upgrade headroom on one device:
// some cells upgrade to f32, the rest stay int8, nothing degrades.
func mixedBudget(d Device, lr *frame.Frame) time.Duration {
	cI := d.PatchComputeNS(lr.W, lr.H, 2, true)
	cF := d.PatchComputeNS(lr.W, lr.H, 2, false)
	return time.Duration(d.TransferNS + float64(cI) + float64(0.4*(float64(cF)-float64(cI))))
}

func TestAnytimeTightBudgetDegradesAndCounts(t *testing.T) {
	m, _ := trainedModel(t, 105)
	// A bigger frame than the training stream, so the scheduler has a real
	// cell grid (4x3) to plan over; the model is fully convolutional.
	src := vidgen.NewSource(vidgen.JustChatting, 384, 288, 105, 60)
	proc := NewProcessor(m, 1, RTX2080Ti())
	reg := telemetry.New()
	proc.SetTelemetry(reg)
	proc.EnableQuant(m, 0.5)

	lr := src.FrameAt(3.3).Downscale(2)
	bil := lr.ResizeBilinear(lr.W*2, lr.H*2)

	// Budget below even the fixed transfer overhead: everything degrades to
	// the bilinear skip and the deadline miss is counted.
	proc.SetAnytimeBudget(time.Nanosecond)
	got, _ := proc.Process(lr)
	for i := range got.Pix {
		if got.Pix[i] != bil.Pix[i] {
			t.Fatal("sub-transfer budget must degrade every cell to bilinear")
		}
	}
	if n := reg.Counter("infer_deadline_miss").Value(); n != 1 {
		t.Fatalf("infer_deadline_miss = %d, want 1", n)
	}

	// Mixed budget: room for the int8 base plan and some f32 upgrades —
	// int8 cells must remain, and the deadline must be met.
	budget := mixedBudget(RTX2080Ti(), lr)
	proc.SetAnytimeBudget(budget)
	got, lat := proc.Process(lr)
	if lat > budget {
		t.Fatalf("anytime latency %v exceeds budget %v", lat, budget)
	}
	nInt8 := reg.Counter("sr_quant_patches").Value()
	if nInt8 == 0 {
		t.Fatal("mixed budget ran no int8 cells")
	}
	if nInt8 == int64(len(anytimeCells(lr))) {
		t.Fatal("mixed budget upgraded no cells to f32")
	}
	if n := reg.Counter("infer_deadline_miss").Value(); n != 1 {
		t.Fatal("mixed budget should meet its deadline")
	}
	enhanced := false
	for i := range got.Pix {
		if got.Pix[i] != bil.Pix[i] {
			enhanced = true
			break
		}
	}
	if !enhanced {
		t.Fatal("mixed budget produced no enhancement over bilinear")
	}
}

// TestAnytimeDeterministicAcrossPools pins that a mixed int8/f32 anytime
// plan produces byte-identical frames regardless of kernel pool size and
// across repeated runs: ranking, budgeting and cell placement are all
// deterministic, and the kernels are exact.
func TestAnytimeDeterministicAcrossPools(t *testing.T) {
	m, _ := trainedModel(t, 117)
	src := vidgen.NewSource(vidgen.Sports, 384, 288, 117, 60)
	lr := src.FrameAt(9.1).Downscale(2)
	d := RTX2080Ti()
	budget := mixedBudget(d, lr)
	var ref *frame.Frame
	for _, workers := range []int{1, 2, 8} {
		p := nn.NewPool(workers)
		defer p.Close()
		m.SetKernelPool(p)
		proc := NewProcessor(m, 2, d)
		proc.EnableQuant(m, 0.5)
		proc.SetAnytimeBudget(budget)
		for rep := 0; rep < 2; rep++ {
			got, _ := proc.Process(lr)
			if ref == nil {
				ref = got
				continue
			}
			for i := range got.Pix {
				if got.Pix[i] != ref.Pix[i] {
					t.Fatalf("pool size %d rep %d: anytime output differs at pixel %d", workers, rep, i)
				}
			}
		}
	}
}
