package sr

import "time"

// Device models GPU execution cost. The maths of training and inference run
// for real on the CPU; the *simulated wall-clock* cost of each operation is
// what experiments account against stream time and GPU-usage budgets
// (Figures 9d, 10d, 15; Table 2). Constants are calibrated so single-GPU
// 1080p-target inference and the paper's 5-second training epochs land in
// the ranges of Table 2 / §6.2.
//
// Charges are by *nominal* MAC count — pixels times taps, independent of
// the weight values. The real kernels honour the same convention: the
// convolution performs every tap multiply even for zero weights (no
// data-dependent skips), so measured CPU cost tracks the virtual clock's
// charges instead of drifting as zero-initialised layers pick up non-zero
// weights during training.
type Device struct {
	// PerInputPixelNS and PerOutputPixelNS model the convolution work at the
	// network's input resolution and the tail/upsample work at the output
	// resolution, in nanoseconds per pixel per GPU.
	PerInputPixelNS  float64
	PerOutputPixelNS float64
	// TransferNS is fixed per-frame CPU<->GPU transfer + launch overhead.
	TransferNS float64
	// StitchNS is the extra gather/stitch overhead per additional GPU when a
	// frame is split for intra-frame parallelism (§6.2).
	StitchNS float64
	// TrainFactor is the cost multiplier of one training sample (forward +
	// backward + optimiser, fp32) relative to one inference of equal size
	// (fp16, §7 "training uses single-precision ... inference with
	// half-precision").
	TrainFactor float64
	// Int8Factor is the compute-cost multiplier of int8-quantized inference
	// relative to the f32 path (dp4a/imma-style tensor throughput; < 1).
	// Zero or out-of-range values fall back to the default 0.45.
	Int8Factor float64
}

// defaultInt8Factor follows typical int8-vs-fp16 GPU tensor throughput
// ratios (dp4a/imma); it models the paper's GPUs, not the host's kernels.
const defaultInt8Factor = 0.45

func (d Device) int8Factor() float64 {
	if d.Int8Factor <= 0 || d.Int8Factor > 1 {
		return defaultInt8Factor
	}
	return d.Int8Factor
}

// RTX2080Ti returns the device model used throughout the evaluation
// (the paper's ingest server uses two GeForce RTX 2080 Ti GPUs).
func RTX2080Ti() Device {
	return Device{
		PerInputPixelNS:  11,
		PerOutputPixelNS: 6.5,
		TransferNS:       3e6,
		StitchNS:         2.5e6,
		TrainFactor:      15,
		Int8Factor:       defaultInt8Factor,
	}
}

// InferenceTime returns the simulated latency of super-resolving one frame
// of inW x inH pixels by the given scale on gpus devices, including
// transfer, per-strip compute (perfectly parallel across strips), and
// stitching. scale 1 models the bilinear-only fallback row of Table 2.
func (d Device) InferenceTime(inW, inH, scale, gpus int) time.Duration {
	return d.inferenceTime(inW, inH, scale, gpus, false)
}

// InferenceTimeQuant is InferenceTime for the int8-quantized inference path:
// the SR compute is scaled by Int8Factor; transfer and stitch are unchanged.
func (d Device) InferenceTimeQuant(inW, inH, scale, gpus int) time.Duration {
	return d.inferenceTime(inW, inH, scale, gpus, true)
}

func (d Device) inferenceTime(inW, inH, scale, gpus int, quant bool) time.Duration {
	if gpus < 1 {
		gpus = 1
	}
	compute := d.PatchComputeNS(inW, inH, scale, quant)
	ns := d.TransferNS + float64(compute)/float64(gpus) + float64(float64(gpus-1)*d.StitchNS)
	return time.Duration(ns)
}

// PatchComputeNS returns the compute-only cost (no transfer/stitch) of
// super-resolving a wLR x hLR region by the given scale — the unit the
// anytime patch scheduler budgets with. scale 1 models bilinear-only cost.
func (d Device) PatchComputeNS(wLR, hLR, scale int, quant bool) float64 {
	inPix := float64(wLR * hLR)
	outPix := inPix * float64(scale*scale)
	if scale == 1 {
		// Bilinear upsample only: cheap memory-bound pass.
		return outPix * 1.0
	}
	compute := float64(inPix*d.PerInputPixelNS) + float64(outPix*d.PerOutputPixelNS)
	if quant {
		compute *= d.int8Factor()
	}
	return compute
}
