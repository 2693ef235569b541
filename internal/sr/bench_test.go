package sr

import (
	"math/rand"
	"testing"

	"livenas/internal/frame"
)

// Model-level kernel benchmarks: developer tools for `go test -bench`
// (the nightly pprof step profiles BenchmarkInferenceServe). The recorded
// figures are sr.infer_f32_ms, sr.infer_int8_ms and sr.train_epoch_hd_ms
// of the serve_hd benchmark workload.

func randFrame(w, h int, rng *rand.Rand) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		f.Pix[i] = uint8(rng.Intn(256))
	}
	return f
}

// modelMACs is the nominal forward MAC count of the default model per input
// pixel: three 3×3 convs (1→C, C→C, C→s²) at input resolution.
func modelMACs(m *Model, inPix int) int64 {
	c, s := m.Channels, m.Scale
	return int64((1*c+c*c+c*s*s)*9) * int64(inPix)
}

// BenchmarkTrainEpoch trains on the paper's patch geometry scaled to the
// default config: 24×24 LR patches against 48×48 HR labels (scale 2).
func BenchmarkTrainEpoch(b *testing.B) {
	m := NewModel(2, 0, 1)
	cfg := DefaultTrainConfig()
	tr := NewTrainer(m, cfg, 2)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 32; i++ {
		tr.AddSample(randFrame(24, 24, rng), randFrame(48, 48, rng))
	}
	// Nominal epoch MACs: forward + ~2x backward per sample.
	perSample := 3 * modelMACs(m, 24*24)
	b.SetBytes(4 * perSample * int64(cfg.Batch*cfg.ItersPerEpoch))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Epoch()
	}
}

// benchInferenceQuant runs the same frame through the int8-quantized path
// or the f32 GEMM engine it is the fast path of.
func benchInferenceQuant(b *testing.B, w, h int, quant bool) {
	m := NewModel(2, 0, 1)
	rng := rand.New(rand.NewSource(5))
	lr := randFrame(w, h, rng)
	b.SetBytes(4 * modelMACs(m, w*h))
	b.ReportAllocs()
	if quant {
		q := NewQuantModel(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q.SuperResolve(lr)
		}
		return
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.SuperResolve(lr)
	}
}

// BenchmarkInferenceServe super-resolves 384×216 to 768×432, the frame the
// serve_hd workload's Processor.Process sees.
func BenchmarkInferenceServe(b *testing.B) {
	b.Run("f32", func(b *testing.B) { benchInferenceQuant(b, 384, 216, false) })
	b.Run("int8", func(b *testing.B) { benchInferenceQuant(b, 384, 216, true) })
}

// BenchmarkInference1080p super-resolves a 960×540 frame to 1920×1080, the
// paper's ingest-to-native geometry, on the f32 engine.
func BenchmarkInference1080p(b *testing.B) { benchInferenceQuant(b, 960, 540, false) }

// BenchmarkInference1080pInt8 is the same geometry on the int8 fast path.
func BenchmarkInference1080pInt8(b *testing.B) { benchInferenceQuant(b, 960, 540, true) }

// BenchmarkInference4K super-resolves 1920×1080 to 3840×2160 — the paper's
// hardest real-time target (Table 2's 4K rows) and the motivation for the
// quantized path.
func BenchmarkInference4K(b *testing.B) {
	b.Run("int8", func(b *testing.B) { benchInferenceQuant(b, 1920, 1080, true) })
	b.Run("f32", func(b *testing.B) { benchInferenceQuant(b, 1920, 1080, false) })
}
