package codec

import (
	"math"
	"math/rand"
	"testing"

	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/vidgen"
)

func TestDCTRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var src, freq, back [64]float64
	for i := range src {
		src[i] = float64(rng.Intn(256)) - 128
	}
	fdct8(&src, &freq)
	idct8(&freq, &back)
	for i := range src {
		if math.Abs(src[i]-back[i]) > 1e-9 {
			t.Fatalf("DCT round trip failed at %d: %v vs %v", i, src[i], back[i])
		}
	}
}

func TestDCTEnergyConservation(t *testing.T) {
	// Orthonormal DCT preserves the L2 norm (Parseval).
	rng := rand.New(rand.NewSource(2))
	var src, freq [64]float64
	var es, ef float64
	for i := range src {
		src[i] = float64(rng.Float64()*200) - 100
		es += float64(src[i] * src[i])
	}
	fdct8(&src, &freq)
	for i := range freq {
		ef += float64(freq[i] * freq[i])
	}
	if math.Abs(es-ef)/es > 1e-9 {
		t.Fatalf("energy not conserved: %v vs %v", es, ef)
	}
}

func TestDCTDCCoefficient(t *testing.T) {
	// A constant block c has DC = 8c and zero AC.
	var src, freq [64]float64
	for i := range src {
		src[i] = 50
	}
	fdct8(&src, &freq)
	if math.Abs(freq[0]-400) > 1e-9 {
		t.Fatalf("DC=%v want 400", freq[0])
	}
	for i := 1; i < 64; i++ {
		if math.Abs(freq[i]) > 1e-9 {
			t.Fatalf("AC[%d]=%v want 0", i, freq[i])
		}
	}
}

func TestZigzagIsPermutation(t *testing.T) {
	seen := make(map[int]bool)
	for _, v := range zigzag {
		if v < 0 || v > 63 || seen[v] {
			t.Fatalf("zigzag invalid at %d", v)
		}
		seen[v] = true
	}
}

func TestQPScaleDoubling(t *testing.T) {
	if r := qpScale(12) / qpScale(6); math.Abs(r-2) > 1e-9 {
		t.Fatalf("+6 QP should double step, got %v", r)
	}
}

func srcFrames(cat vidgen.Category, w, h, n int, fps float64) []*frame.Frame {
	src := vidgen.NewSource(cat, w, h, 77, 120)
	out := make([]*frame.Frame, n)
	for i := range out {
		out[i] = src.FrameAt(float64(i) / fps)
	}
	return out
}

func TestKeyFrameRoundTrip(t *testing.T) {
	cfg := Config{Profile: BX8, W: 96, H: 56, KeyInterval: 30}
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	f := srcFrames(vidgen.JustChatting, 96, 56, 1, 30)[0]
	ef := enc.Encode(f, 80000) // generous budget => high quality
	if !ef.Key {
		t.Fatal("first frame must be a key frame")
	}
	got, err := dec.Decode(ef)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 96 || got.H != 56 {
		t.Fatalf("decoded %dx%d", got.W, got.H)
	}
	if p := metrics.PSNR(f, got); p < 30 {
		t.Fatalf("high-budget key frame PSNR %.1f too low", p)
	}
}

func TestEncoderDecoderAgree(t *testing.T) {
	// Decoder output must exactly match the encoder's in-loop reconstruction
	// for every frame of a GoP (this is the property that makes motion
	// compensation drift-free).
	cfg := Config{Profile: BX9, W: 80, H: 48, KeyInterval: 10}
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	for i, f := range srcFrames(vidgen.Sports, 80, 48, 12, 30) {
		ef := enc.Encode(f, 8000)
		got, err := dec.Decode(ef)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := enc.Reconstructed()
		for j := range got.Pix {
			if got.Pix[j] != want.Pix[j] {
				t.Fatalf("frame %d: decoder/encoder reconstruction mismatch at %d", i, j)
			}
		}
	}
}

func TestInterFramesSmallerThanIntra(t *testing.T) {
	cfg := Config{Profile: BX8, W: 96, H: 56}
	enc := NewEncoder(cfg)
	frames := srcFrames(vidgen.JustChatting, 96, 56, 5, 30)
	sizes := make([]int, len(frames))
	for i, f := range frames {
		sizes[i] = len(enc.Encode(f, 6000).Data)
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] >= sizes[0] {
			t.Fatalf("P frame %d (%dB) not smaller than key frame (%dB)", i, sizes[i], sizes[0])
		}
	}
}

func TestGoPStructure(t *testing.T) {
	cfg := Config{Profile: BX8, W: 48, H: 48, KeyInterval: 4}
	enc := NewEncoder(cfg)
	frames := srcFrames(vidgen.Podcast, 48, 48, 10, 30)
	for i, f := range frames {
		ef := enc.Encode(f, 4000)
		wantKey := i%5 == 0 // frame 0 key, then 4 P frames, then key again
		if ef.Key != wantKey {
			t.Fatalf("frame %d key=%v want %v", i, ef.Key, wantKey)
		}
	}
}

func TestForceKeyFrame(t *testing.T) {
	cfg := Config{Profile: BX8, W: 48, H: 48}
	enc := NewEncoder(cfg)
	frames := srcFrames(vidgen.Podcast, 48, 48, 3, 30)
	enc.Encode(frames[0], 4000)
	if enc.Encode(frames[1], 4000).Key {
		t.Fatal("second frame should be P")
	}
	enc.ForceKeyFrame()
	if !enc.Encode(frames[2], 4000).Key {
		t.Fatal("ForceKeyFrame ignored")
	}
}

func TestRateControlConverges(t *testing.T) {
	cfg := Config{Profile: BX8, W: 160, H: 96}
	enc := NewEncoder(cfg)
	src := vidgen.NewSource(vidgen.LeagueOfLegends, 160, 96, 5, 60)
	target := 6000 // bits per frame
	var tail []int
	for i := 0; i < 60; i++ {
		f := src.FrameAt(float64(i) / 30)
		ef := enc.Encode(f, target)
		if i >= 30 && !ef.Key {
			tail = append(tail, ef.Bits())
		}
	}
	var mean float64
	for _, b := range tail {
		mean += float64(b)
	}
	mean /= float64(len(tail))
	if mean < float64(target)*0.4 || mean > float64(target)*2.2 {
		t.Fatalf("steady-state bits %.0f not near target %d", mean, target)
	}
}

func TestQualityImprovesWithBitrate(t *testing.T) {
	// The premise of Eq. 1: Q_video(rate) is increasing.
	quality := func(bits int) float64 {
		cfg := Config{Profile: BX8, W: 128, H: 72}
		enc := NewEncoder(cfg)
		src := vidgen.NewSource(vidgen.FoodCooking, 128, 72, 9, 60)
		var ps []float64
		for i := 0; i < 12; i++ {
			f := src.FrameAt(float64(i) / 30)
			enc.Encode(f, bits)
			ps = append(ps, metrics.PSNR(f, enc.Reconstructed()))
		}
		return metrics.Mean(ps[4:])
	}
	// Monotone over a wide range (the Eq. 1 premise)...
	qs := []float64{quality(2000), quality(8000), quality(16000), quality(32000), quality(64000)}
	for i := 1; i < len(qs); i++ {
		if qs[i] <= qs[i-1] {
			t.Fatalf("quality not increasing with rate: %v", qs)
		}
	}
	// ...and concave in the upper operating range (posterised synthetic
	// content has a convex knee at very low rates where AC coefficients
	// first survive quantisation; above it, doubling the rate must show
	// diminishing returns).
	if g1, g2 := qs[3]-qs[2], qs[4]-qs[3]; g2 >= g1 {
		t.Fatalf("no diminishing returns at high rates: gains %.2f then %.2f", g1, g2)
	}
}

func TestBX9BeatsBX8(t *testing.T) {
	// At equal bitrate BX9 should deliver equal-or-better PSNR (Fig 14's
	// codec comparison premise).
	run := func(p Profile) float64 {
		cfg := Config{Profile: p, W: 128, H: 72}
		enc := NewEncoder(cfg)
		src := vidgen.NewSource(vidgen.LeagueOfLegends, 128, 72, 31, 60)
		var ps []float64
		var bits int
		for i := 0; i < 16; i++ {
			f := src.FrameAt(float64(i) / 30)
			ef := enc.Encode(f, 5000)
			bits += ef.Bits()
			ps = append(ps, metrics.PSNR(f, enc.Reconstructed()))
		}
		return metrics.Mean(ps[4:])
	}
	p8, p9 := run(BX8), run(BX9)
	if p9 < p8-0.1 {
		t.Fatalf("BX9 (%.2f dB) should not be worse than BX8 (%.2f dB)", p9, p8)
	}
}

func TestDecodeInterWithoutReference(t *testing.T) {
	cfg := Config{Profile: BX8, W: 48, H: 48}
	enc := NewEncoder(cfg)
	frames := srcFrames(vidgen.Podcast, 48, 48, 2, 30)
	enc.Encode(frames[0], 4000)
	p := enc.Encode(frames[1], 4000)
	dec := NewDecoder(cfg)
	if _, err := dec.Decode(p); err == nil {
		t.Fatal("decoding P frame without reference must fail")
	}
}

func TestDecoderResetDropsReference(t *testing.T) {
	cfg := Config{Profile: BX8, W: 48, H: 48}
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	frames := srcFrames(vidgen.Podcast, 48, 48, 3, 30)
	k := enc.Encode(frames[0], 4000)
	if _, err := dec.Decode(k); err != nil {
		t.Fatal(err)
	}
	dec.Reset()
	p := enc.Encode(frames[1], 4000)
	if _, err := dec.Decode(p); err == nil {
		t.Fatal("reset decoder must refuse inter frames")
	}
}

func TestDecodeCorruptData(t *testing.T) {
	cfg := Config{Profile: BX8, W: 48, H: 48}
	dec := NewDecoder(cfg)
	// Random garbage must error out, not panic.
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 20; trial++ {
		data := make([]byte, rng.Intn(64)+1)
		rng.Read(data)
		dec.Reset()
		_, _ = dec.Decode(&EncodedFrame{Data: data, Key: true}) // must not panic
	}
}

func TestTruncatedBitstream(t *testing.T) {
	cfg := Config{Profile: BX8, W: 64, H: 64}
	enc := NewEncoder(cfg)
	f := srcFrames(vidgen.Sports, 64, 64, 1, 30)[0]
	ef := enc.Encode(f, 20000)
	for _, cut := range []int{1, len(ef.Data) / 2, len(ef.Data) - 1} {
		dec := NewDecoder(cfg)
		_, err := dec.Decode(&EncodedFrame{Data: ef.Data[:cut], Key: true})
		if err == nil && cut < len(ef.Data)/2 {
			t.Fatalf("heavily truncated stream (%d bytes) decoded without error", cut)
		}
	}
}

func TestNonBlockAlignedDims(t *testing.T) {
	cfg := Config{Profile: BX8, W: 50, H: 35} // not multiples of 8
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	f := frame.New(50, 35)
	for i := range f.Pix {
		f.Pix[i] = uint8(i % 251)
	}
	ef := enc.Encode(f, 30000)
	got, err := dec.Decode(ef)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != 50 || got.H != 35 {
		t.Fatalf("decoded %dx%d", got.W, got.H)
	}
	if p := metrics.PSNR(f, got); p < 25 {
		t.Fatalf("PSNR %.1f too low for generous budget", p)
	}
}

func TestEncodePanicsOnWrongSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewEncoder(Config{Profile: BX8, W: 48, H: 48}).Encode(frame.New(24, 24), 1000)
}

func TestPatchRoundTrip(t *testing.T) {
	src := vidgen.NewSource(vidgen.JustChatting, 240, 240, 3, 10)
	p := src.FrameAt(1).Crop(10, 10, frame.PatchSize, frame.PatchSize)
	data := EncodePatch(p, PatchQuality)
	got, err := DecodePatch(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.W != frame.PatchSize || got.H != frame.PatchSize {
		t.Fatalf("patch dims %dx%d", got.W, got.H)
	}
	if q := metrics.PSNR(p, got); q < 38 {
		t.Fatalf("quality-95 patch PSNR %.1f; want near-transparent (>=38)", q)
	}
	// Compression must be substantial vs raw (paper: ~10x).
	if len(data) >= p.Bytes()/2 {
		t.Fatalf("patch only compressed to %d of %d raw bytes", len(data), p.Bytes())
	}
}

func TestPatchQualityOrdering(t *testing.T) {
	src := vidgen.NewSource(vidgen.Fortnite, 240, 240, 4, 10)
	p := src.FrameAt(2).Crop(0, 0, frame.PatchSize, frame.PatchSize)
	d50 := EncodePatch(p, 50)
	d95 := EncodePatch(p, 95)
	if len(d50) >= len(d95) {
		t.Fatal("lower quality should produce fewer bytes")
	}
	f50, _ := DecodePatch(d50)
	f95, _ := DecodePatch(d95)
	if metrics.PSNR(p, f50) >= metrics.PSNR(p, f95) {
		t.Fatal("lower quality should produce lower PSNR")
	}
}

// TestEncodePatchSideBound: a patch side PatchDims would refuse, or that
// the 16-bit header would wrap (65544 reads back as 8), panics before any
// payload exists, as NewEncoder does for a side <= 0; a side of exactly
// maxPatchSide still round-trips.
func TestEncodePatchSideBound(t *testing.T) {
	for _, dims := range [][2]int{{maxPatchSide + 1, 1}, {1, maxPatchSide + 1}, {1<<16 + 8, 8}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("EncodePatch of a %dx%d patch did not panic", dims[0], dims[1])
				}
			}()
			EncodePatch(frame.New(dims[0], dims[1]), PatchQuality)
		}()
	}
	for _, dims := range [][2]int{{maxPatchSide, 1}, {1, maxPatchSide}} {
		data := EncodePatch(frame.New(dims[0], dims[1]), PatchQuality)
		if w, h, err := PatchDims(data); err != nil || w != dims[0] || h != dims[1] {
			t.Fatalf("%dx%d patch: PatchDims %dx%d, %v", dims[0], dims[1], w, h, err)
		}
		if got, err := DecodePatch(data); err != nil || got.W != dims[0] || got.H != dims[1] {
			t.Fatalf("%dx%d patch did not round-trip: %v", dims[0], dims[1], err)
		}
	}
}

func TestDecodePatchMalformed(t *testing.T) {
	if _, err := DecodePatch(nil); err == nil {
		t.Fatal("nil payload must error")
	}
	if _, err := DecodePatch([]byte{0, 0, 0, 0, 1}); err == nil {
		t.Fatal("zero-dims payload must error")
	}
}

func TestDeblockEncoderDecoderAgree(t *testing.T) {
	// The deblocking filter is in-loop: decoder output must still exactly
	// match the encoder reconstruction on every frame.
	cfg := Config{Profile: BX8, W: 80, H: 48, KeyInterval: 10, Deblock: true}
	enc := NewEncoder(cfg)
	dec := NewDecoder(cfg)
	for i, f := range srcFrames(vidgen.LeagueOfLegends, 80, 48, 10, 30) {
		ef := enc.Encode(f, 4000)
		got, err := dec.Decode(ef)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		want := enc.Reconstructed()
		for j := range got.Pix {
			if got.Pix[j] != want.Pix[j] {
				t.Fatalf("frame %d: drift with deblocking at %d", i, j)
			}
		}
	}
}

func TestDeblockHelpsAtLowBitrate(t *testing.T) {
	// At starvation bitrates, deblocking should not hurt quality and
	// usually improves it on smooth content.
	quality := func(deblock bool) float64 {
		cfg := Config{Profile: BX8, W: 128, H: 72, Deblock: deblock}
		enc := NewEncoder(cfg)
		src := vidgen.NewSource(vidgen.Podcast, 128, 72, 9, 60)
		var ps []float64
		for i := 0; i < 10; i++ {
			f := src.FrameAt(float64(i) / 30)
			enc.Encode(f, 1200)
			ps = append(ps, metrics.PSNR(f, enc.Reconstructed()))
		}
		return metrics.Mean(ps[3:])
	}
	plain, filtered := quality(false), quality(true)
	if filtered < plain-0.3 {
		t.Fatalf("deblocking hurt quality: %.2f vs %.2f", filtered, plain)
	}
}

func TestDeblockPreservesStrongEdges(t *testing.T) {
	// A step edge larger than the threshold must pass through untouched.
	f := frame.New(16, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 16; x++ {
			if x >= 8 {
				f.Set(x, y, 250)
			} else {
				f.Set(x, y, 10)
			}
		}
	}
	deblockFrame(f, 20)
	if f.At(7, 0) != 10 || f.At(8, 0) != 250 {
		t.Fatal("strong edge was smoothed")
	}
	// A small step at the boundary must be smoothed.
	g := frame.New(16, 8)
	for y := 0; y < 8; y++ {
		for x := 0; x < 16; x++ {
			if x >= 8 {
				g.Set(x, y, 104)
			} else {
				g.Set(x, y, 100)
			}
		}
	}
	deblockFrame(g, 20)
	if g.At(7, 0) == 100 && g.At(8, 0) == 104 {
		t.Fatal("artifact step was not smoothed")
	}
}
