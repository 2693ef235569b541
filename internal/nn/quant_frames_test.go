package nn_test

import (
	"bytes"
	"math/rand"
	"testing"
	"time"

	"livenas/internal/frame"
	"livenas/internal/nn"
	"livenas/internal/sr"
)

// TestQuantOddFrameSizes runs the int8 serving paths end to end on frames
// whose pixel count is odd: the whole-frame QuantModel.SuperResolve and the
// anytime scheduler's all-int8 plan. Each must give the same bytes with the
// vector requant body installed and with the Go loop alone, and the two
// paths the same bytes as each other. TestRequantReLUVecMatchesGo pins the
// vector body itself on misaligned rows.
func TestQuantOddFrameSizes(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	m := sr.NewModel(2, 0, 26)
	ps := m.Params()
	for _, p := range ps[len(ps)-2:] { // the zero-initialised tail
		for i := range p.W {
			p.W[i] = float32(rng.NormFloat64() * 0.1)
		}
	}
	dev := sr.RTX2080Ti()
	for _, sz := range [][2]int{{5, 3}, {7, 5}, {13, 9}, {33, 17}, {101, 53}} {
		w, h := sz[0], sz[1]
		lr := frame.New(w, h)
		for i := range lr.Pix {
			lr.Pix[i] = uint8(rng.Intn(256))
		}
		m.Calibrate([]*frame.Frame{lr})
		q := sr.NewQuantModel(m)
		proc := sr.NewProcessor(m, 1, dev)
		proc.EnableQuant(m, 0)
		// Every cell fits at int8 and none can upgrade to f32.
		proc.SetAnytimeBudget(time.Duration(dev.TransferNS + float64(dev.PatchComputeNS(w, h, 2, true)) + 1))

		var whole, anytime [2][]byte
		for i, vec := range []bool{true, false} {
			restore := nn.SetRequantVec(vec)
			whole[i] = q.SuperResolve(lr).Pix
			out, _ := proc.Process(lr)
			anytime[i] = out.Pix
			restore()
		}
		if bytes.Equal(whole[1], lr.ResizeBilinear(2*w, 2*h).Pix) {
			t.Fatalf("%dx%d: int8 residual is zero, the test compares nothing", w, h)
		}
		if !bytes.Equal(whole[0], whole[1]) {
			t.Fatalf("%dx%d: whole-frame int8 output differs between vector and Go requant", w, h)
		}
		if !bytes.Equal(anytime[0], anytime[1]) {
			t.Fatalf("%dx%d: anytime int8 output differs between vector and Go requant", w, h)
		}
		if !bytes.Equal(anytime[1], whole[1]) {
			t.Fatalf("%dx%d: anytime int8 cells differ from the whole-frame int8 output", w, h)
		}
	}
}
