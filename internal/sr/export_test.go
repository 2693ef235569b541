package sr

import (
	"testing"
	"time"

	"livenas/internal/cpu"
	"livenas/internal/frame"
	"livenas/internal/nn"
)

// forEachResidualKernel runs fn as one subtest per residual row kernel this
// host can execute, with that kernel installed: the Go loop always ("go"),
// the AVX2 kernel when cpu.AVX2 ("avx2"). The installed kernel is restored
// afterwards, so the Go twin is tested on AVX2 hosts as well.
func forEachResidualKernel(t *testing.T, fn func(t *testing.T)) {
	type kernel struct {
		name string
		fn   func(pix []uint8, res []float32, idx []int32)
	}
	kernels := []kernel{{"go", addRowGo}}
	if cpu.AVX2 {
		kernels = append(kernels, kernel{"avx2", addRowAVX2})
	} else {
		t.Log("no AVX2 on this build or host; testing the Go residual row only")
	}
	saved := addRow
	defer func() { addRow = saved }()
	for _, k := range kernels {
		addRow = k.fn
		t.Run(k.name, fn)
	}
}

// Peak returns the high-water mark of concurrently held slots.
func (p *DevicePool) Peak() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.peak
}

// QuantGap returns the current EWMA of the int8-vs-f32 PSNR gap in dB and
// whether any gate observation has been made yet.
func (p *Processor) QuantGap() (float64, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.gapEWMA, p.gapInit
}

// TrainSampleTime returns the simulated cost of one training sample whose
// HR label is hrPix pixels, on one GPU.
func (d Device) TrainSampleTime(hrPix int, scale int) time.Duration {
	inPix := float64(hrPix) / float64(scale*scale)
	infer := float64(inPix*d.PerInputPixelNS) + float64(float64(hrPix)*d.PerOutputPixelNS)
	return time.Duration(infer * d.TrainFactor)
}

// EpochTime returns the simulated duration of one training epoch of iters
// steps at the given batch size, sharded across gpus data-parallel devices,
// plus one transfer per step.
func (d Device) EpochTime(iters, batch, hrPix, scale, gpus int) time.Duration {
	if gpus < 1 {
		gpus = 1
	}
	perSample := float64(d.TrainSampleTime(hrPix, scale))
	perStep := float64(perSample*float64(batch)/float64(gpus)) + d.TransferNS
	return time.Duration(perStep * float64(iters))
}

// FromTensor converts a (1, H, W) tensor in [0,1] back to a luma frame.
func FromTensor(t *nn.Tensor) *frame.Frame {
	f := frame.New(t.W, t.H)
	for i, v := range t.Data {
		x := v * 255
		switch {
		case x <= 0:
			f.Pix[i] = 0
		case x >= 255:
			f.Pix[i] = 255
		default:
			f.Pix[i] = uint8(float32(x) + 0.5)
		}
	}
	return f
}
