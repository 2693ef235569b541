package nn

import "math"

// Adam implements the Adam optimiser (Kingma & Ba 2014), the optimiser the
// paper's online trainer uses with learning rate 1e-4 (§7).
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m [][]float32 // first-moment estimates, one slice per Param
	v [][]float32 // second-moment estimates
}

// NewAdam returns an Adam optimiser with the standard moment coefficients.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// Step applies one update to every parameter using its accumulated gradient.
// params must be passed in a stable order across calls (moment state is
// positional). Gradients are not cleared; callers use ZeroGrads.
//
// The moment math deliberately runs in float64 (float32 moment estimates
// lose the small-gradient tail that makes Adam's bias correction work), so
// the per-element float32⇄float64 round trips stay.
func (a *Adam) Step(params []Param) {
	if a.m == nil {
		a.m = make([][]float32, len(params))
		a.v = make([][]float32, len(params))
		for i, p := range params {
			a.m[i] = make([]float32, len(p.W))
			a.v[i] = make([]float32, len(p.W))
		}
	}
	if len(params) != len(a.m) {
		panic("nn: Adam parameter count changed between steps")
	}
	a.t++
	c1 := 1 - math.Pow(a.Beta1, float64(a.t))
	c2 := 1 - math.Pow(a.Beta2, float64(a.t))
	b1, b2 := a.Beta1, a.Beta2
	for i, p := range params {
		m, v := a.m[i], a.v[i]
		for j := range p.W {
			g := float64(p.Grad[j])
			mj := float64(b1*float64(m[j])) + float64((1-b1)*g)
			vj := float64(b2*float64(v[j])) + float64((1-b2)*g*g)
			m[j] = float32(mj)
			v[j] = float32(vj)
			mHat := mj / c1
			vHat := vj / c2
			p.W[j] -= float32(a.LR * mHat / (math.Sqrt(vHat) + a.Eps))
		}
	}
}

// CollectParams flattens the parameters of a layer stack in a stable order.
func CollectParams(layers []Layer) []Param {
	var out []Param
	for _, l := range layers {
		out = append(out, l.Params()...)
	}
	return out
}
