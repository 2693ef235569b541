package codec

import (
	"math/rand"
	"testing"
	"testing/quick"

	"livenas/internal/frame"
	"livenas/internal/metrics"
)

// Property: every patch payload produced by EncodePatch decodes without
// error, to the right dimensions, at bounded distortion for quality 95.
func TestQuickPatchDecodability(t *testing.T) {
	f := func(seed int64, wRaw, hRaw uint8) bool {
		w := int(wRaw%80) + 8
		h := int(hRaw%80) + 8
		rng := rand.New(rand.NewSource(seed))
		p := frame.New(w, h)
		// Structured content: random blocks (worst case for run coding).
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				p.Set(x, y, uint8(rng.Intn(2)*200+rng.Intn(30)))
			}
		}
		data := EncodePatch(p, 95)
		got, err := DecodePatch(data)
		if err != nil || got.W != w || got.H != h {
			return false
		}
		return metrics.PSNR(p, got) > 20
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the encoder/decoder pair agrees bit-exactly on the
// reconstruction for arbitrary random frames and budgets (the drift-free
// invariant behind motion compensation).
func TestQuickEncoderDecoderAgreement(t *testing.T) {
	f := func(seed int64, budgetRaw uint16, deblock bool) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{Profile: BX8, W: 40, H: 32, KeyInterval: 3, Deblock: deblock}
		enc := NewEncoder(cfg)
		dec := NewDecoder(cfg)
		budget := int(budgetRaw%20000) + 500
		fr := frame.New(40, 32)
		for i := 0; i < 5; i++ {
			// Evolve the frame slightly between encodes.
			for j := range fr.Pix {
				if rng.Intn(10) == 0 {
					fr.Pix[j] = uint8(rng.Intn(256))
				}
			}
			got, err := dec.Decode(enc.Encode(fr, budget))
			if err != nil {
				return false
			}
			want := enc.Reconstructed()
			for j := range got.Pix {
				if got.Pix[j] != want.Pix[j] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: quantisation steps are strictly positive and monotone in QP for
// every coefficient and profile.
func TestQuickQuantStepMonotone(t *testing.T) {
	f := func(iRaw uint8, p bool) bool {
		i := int(iRaw % 64)
		prof := BX8
		if p {
			prof = BX9
		}
		prev := 0.0
		for qp := MinQP; qp <= MaxQP; qp++ {
			s := quantSteps(prof, qp)[i]
			if s <= prev {
				return false
			}
			prev = s
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
