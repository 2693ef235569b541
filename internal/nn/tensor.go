// Package nn is a small, dependency-free neural-network library built for
// LiveNAS-Go's online-trained super-resolution models: float32 CHW tensors,
// 2-D convolutions with full backpropagation, ReLU, sub-pixel (pixel-shuffle)
// upsampling, MSE loss, and the Adam optimiser the paper trains with (§7,
// "The online trainer utilizes the ADAM optimizer").
//
// It substitutes for PyTorch in the original implementation; see DESIGN.md.
// Everything is exact gradient code — the models genuinely learn — only the
// scale (layer count, channel width) is reduced to CPU-friendly sizes.
package nn

import "fmt"

// Tensor is a dense float32 tensor in channel-major (C, H, W) layout.
type Tensor struct {
	C, H, W int
	Data    []float32
}

// NewTensor allocates a zeroed tensor of shape (c, h, w).
func NewTensor(c, h, w int) *Tensor {
	if c <= 0 || h < 0 || w < 0 {
		panic(fmt.Sprintf("nn: invalid tensor shape (%d,%d,%d)", c, h, w))
	}
	return &Tensor{C: c, H: h, W: w, Data: make([]float32, c*h*w)}
}

// SameShape reports whether two tensors have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.C == o.C && t.H == o.H && t.W == o.W
}

// Param is one learnable parameter bundle: a weight slice and its gradient
// accumulator of equal length. Optimisers operate on Params.
type Param struct {
	W    []float32
	Grad []float32
}

// Layer is a differentiable module.
type Layer interface {
	// Forward computes the layer output for input x. Implementations may
	// cache what Backward needs; callers run Forward then Backward pairwise.
	Forward(x *Tensor) *Tensor
	// Backward consumes dOut (gradient w.r.t. the forward output),
	// accumulates parameter gradients, and returns the gradient w.r.t. the
	// forward input.
	Backward(dOut *Tensor) *Tensor
	// Params returns the learnable parameters (empty for stateless layers).
	Params() []Param
}

// ZeroGrads clears the gradient accumulators of all params in layers.
func ZeroGrads(layers []Layer) {
	for _, l := range layers {
		for _, p := range l.Params() {
			for i := range p.Grad {
				p.Grad[i] = 0
			}
		}
	}
}

// MSELossGradInto returns the mean squared error between pred and target
// and writes the gradient of the loss w.r.t. pred (2*(pred-target)/N) into
// a caller-provided (typically arena-recycled) tensor of the same shape,
// fully overwriting it.
func MSELossGradInto(pred, target, grad *Tensor) float64 {
	if !pred.SameShape(target) || !pred.SameShape(grad) {
		panic("nn: MSELoss shape mismatch")
	}
	n := float32(len(pred.Data))
	var loss float64
	for i := range pred.Data {
		d := pred.Data[i] - target.Data[i]
		loss += float64(float64(d) * float64(d))
		grad.Data[i] = 2 * d / n
	}
	return loss / float64(n)
}
