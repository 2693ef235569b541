package codec

// Reference codec: the seed implementation's per-coefficient math.Pow
// quantiser, textbook double-loop DCT, per-pixel clamped SAD and reference
// fetch, and allocate-per-attempt encoder, kept verbatim as the ground truth
// the table-driven codec and its vector kernels are differentially tested
// against — byte-equal streams, pixel-equal reconstructions,
// Float64bits-equal transforms, equal costs. They are oracles, not a codec:
// nothing outside the tests can reach them. What the two share (bit I/O,
// zigzag, baseQuant, dcPrediction, refSample, clampAdd, deblockFrame) did
// not change; deblockFrame's threshold table is checked against the Pow
// expression below.

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"livenas/internal/frame"
	"livenas/internal/vidgen"
)

// qpScale converts QP to a quantiser step multiplier; +6 QP doubles the step.
func qpScale(qp int) float64 {
	return 0.15 * math.Pow(2, float64(qp)/6.0)
}

func quantStepRef(p Profile, qp int, i int) float64 {
	q := baseQuant[i]
	if p == BX9 {
		q = 6 + float64((q-6)*0.8)
	}
	return q * qpScale(qp)
}

func deblockThresholdRef(qp int) int {
	t := int(2 + float64(qpScale(qp)*1.5))
	if t > 48 {
		t = 48
	}
	return t
}

func fdct8Ref(src, dst *[64]float64) {
	var tmp [64]float64
	// Rows.
	for y := 0; y < 8; y++ {
		for k := 0; k < 8; k++ {
			var s float64
			for n := 0; n < 8; n++ {
				s += float64(dctBasis[k][n] * src[y*8+n])
			}
			tmp[y*8+k] = s
		}
	}
	// Columns.
	for x := 0; x < 8; x++ {
		for k := 0; k < 8; k++ {
			var s float64
			for n := 0; n < 8; n++ {
				s += float64(dctBasis[k][n] * tmp[n*8+x])
			}
			dst[k*8+x] = s
		}
	}
}

func idct8Ref(src, dst *[64]float64) {
	var tmp [64]float64
	// Columns.
	for x := 0; x < 8; x++ {
		for n := 0; n < 8; n++ {
			var s float64
			for k := 0; k < 8; k++ {
				s += float64(dctBasis[k][n] * src[k*8+x])
			}
			tmp[n*8+x] = s
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		for n := 0; n < 8; n++ {
			var s float64
			for k := 0; k < 8; k++ {
				s += float64(dctBasis[k][n] * tmp[y*8+k])
			}
			dst[y*8+n] = s
		}
	}
}

func padFrameRef(f *frame.Frame) *frame.Frame {
	pw, ph := padTo8(f.W), padTo8(f.H)
	if pw == f.W && ph == f.H {
		return f
	}
	out := frame.New(pw, ph)
	for y := 0; y < ph; y++ {
		sy := y
		if sy >= f.H {
			sy = f.H - 1
		}
		for x := 0; x < pw; x++ {
			sx := x
			if sx >= f.W {
				sx = f.W - 1
			}
			out.Pix[y*pw+x] = f.Pix[sy*f.W+sx]
		}
	}
	return out
}

// refEncoder is the seed Encoder: same rate control, one fresh
// reconstruction frame per encode attempt.
type refEncoder struct {
	cfg       Config
	ref       *frame.Frame
	seq       int
	sinceKey  int
	forceKey  bool
	qp        int
	rcInertia float64
}

func (e *refEncoder) Encode(f *frame.Frame, targetBits int) *EncodedFrame {
	if targetBits < 256 {
		targetBits = 256
	}
	key := e.ref == nil || e.forceKey ||
		(e.cfg.KeyInterval > 0 && e.sinceKey >= e.cfg.KeyInterval)
	e.forceKey = false

	budget := targetBits
	if key {
		budget = targetBits * 3
	}

	padded := padFrameRef(f)
	data, recon := e.encodeOnce(padded, key, e.qp)
	for attempt := 0; attempt < 4; attempt++ {
		bitsGot := len(data) * 8
		if bitsGot > budget*2 && e.qp < MaxQP {
			e.qp = min(MaxQP, e.qp+6)
		} else if bitsGot*4 < budget && e.qp > MinQP {
			e.qp = max(MinQP, e.qp-6)
		} else {
			break
		}
		data, recon = e.encodeOnce(padded, key, e.qp)
	}

	err := math.Log2(float64(len(data)*8) / float64(budget))
	e.rcInertia = float64(0.6*e.rcInertia) + float64(0.4*err)
	step := int(math.Round(2.5 * e.rcInertia))
	if step != 0 {
		e.qp = min(MaxQP, max(MinQP, e.qp+step))
		e.rcInertia = 0
	}

	e.ref = recon
	if key {
		e.sinceKey = 0
	} else {
		e.sinceKey++
	}
	ef := &EncodedFrame{Data: data, Key: key, QP: e.qp, Seq: e.seq}
	e.seq++
	return ef
}

func (e *refEncoder) encodeOnce(padded *frame.Frame, key bool, qp int) ([]byte, *frame.Frame) {
	w := &bitWriter{}
	w.writeBit(boolBit(key))
	w.writeBits(uint64(qp), 6)

	pw, ph := padded.W, padded.H
	recon := frame.New(pw, ph)
	var blk, freq [64]float64
	var prevMVX, prevMVY int

	for by := 0; by < ph; by += blockSize {
		prevMVX, prevMVY = 0, 0
		for bx := 0; bx < pw; bx += blockSize {
			if key || e.ref == nil {
				e.encodeIntraBlock(w, padded, recon, bx, by, qp, &blk, &freq)
				continue
			}
			mvx, mvy, sadInter := e.searchMotion(padded, bx, by, prevMVX, prevMVY)
			sadIntra := intraSADRef(padded, recon, bx, by)
			if sadIntra+32 < sadInter {
				w.writeBit(1) // intra
				e.encodeIntraBlock(w, padded, recon, bx, by, qp, &blk, &freq)
				prevMVX, prevMVY = 0, 0
				continue
			}
			w.writeBit(0) // inter
			w.writeSE(int32(mvx - prevMVX))
			w.writeSE(int32(mvy - prevMVY))
			prevMVX, prevMVY = mvx, mvy
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					pred := refSample(e.ref, bx+x+mvx, by+y+mvy)
					blk[y*blockSize+x] = float64(padded.Pix[(by+y)*pw+bx+x]) - float64(pred)
				}
			}
			codeBlockRef(w, &blk, &freq, e.cfg.Profile, qp)
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					pred := refSample(e.ref, bx+x+mvx, by+y+mvy)
					recon.Pix[(by+y)*pw+bx+x] = clampAdd(pred, blk[y*blockSize+x])
				}
			}
		}
	}
	if e.cfg.Deblock {
		deblockFrame(recon, qp)
	}
	return w.finish(), recon
}

func (e *refEncoder) encodeIntraBlock(w *bitWriter, src, recon *frame.Frame, bx, by, qp int, blk, freq *[64]float64) {
	pred := dcPrediction(recon, bx, by)
	pw := src.W
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			blk[y*blockSize+x] = float64(src.Pix[(by+y)*pw+bx+x]) - pred
		}
	}
	codeBlockRef(w, blk, freq, e.cfg.Profile, qp)
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			recon.Pix[(by+y)*pw+bx+x] = clampAdd(uint8(pred), blk[y*blockSize+x])
		}
	}
}

func codeBlockRef(w *bitWriter, blk, freq *[64]float64, p Profile, qp int) {
	fdct8Ref(blk, freq)
	var q [64]int32
	nnz := 0
	for i := 0; i < 64; i++ {
		step := quantStepRef(p, qp, i)
		v := int32(math.Round(freq[i] / step))
		q[i] = v
		if v != 0 {
			nnz++
		}
	}
	w.writeUE(uint32(nnz))
	run := uint32(0)
	for _, pos := range zigzag {
		if q[pos] == 0 {
			run++
			continue
		}
		w.writeUE(run)
		w.writeSE(q[pos])
		run = 0
	}
	for i := 0; i < 64; i++ {
		freq[i] = float64(q[i]) * quantStepRef(p, qp, i)
	}
	idct8Ref(freq, blk)
}

func (e *refEncoder) searchMotion(cur *frame.Frame, bx, by, predX, predY int) (int, int, int) {
	r := e.cfg.Profile.searchRange()
	bestX, bestY := 0, 0
	best := blockSADRef(cur, e.ref, bx, by, 0, 0)
	if predX != 0 || predY != 0 {
		if s := blockSADRef(cur, e.ref, bx, by, predX, predY); s < best {
			best, bestX, bestY = s, predX, predY
		}
	}
	for step := r; step >= 1; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, d := range [4][2]int{{step, 0}, {-step, 0}, {0, step}, {0, -step}} {
				nx, ny := bestX+d[0], bestY+d[1]
				if nx < -r || nx > r || ny < -r || ny > r {
					continue
				}
				if s := blockSADRef(cur, e.ref, bx, by, nx, ny); s < best {
					best, bestX, bestY = s, nx, ny
					improved = true
				}
			}
		}
	}
	return bestX, bestY, best
}

// intraSADRef is the seed intra cost: Σ int(|p − pred|) in float64.
func intraSADRef(cur, recon *frame.Frame, bx, by int) int {
	pred := dcPrediction(recon, bx, by)
	var sad int
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			d := float64(cur.Pix[(by+y)*cur.W+bx+x]) - pred
			if d < 0 {
				d = -d
			}
			sad += int(d)
		}
	}
	return sad
}

func blockSADRef(cur, ref *frame.Frame, bx, by, mvx, mvy int) int {
	var sad int
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			c := int(cur.Pix[(by+y)*cur.W+bx+x])
			r := int(refSample(ref, bx+x+mvx, by+y+mvy))
			d := c - r
			if d < 0 {
				d = -d
			}
			sad += d
		}
	}
	return sad
}

// refDecoder is the seed Decoder.
type refDecoder struct {
	cfg Config
	ref *frame.Frame
}

func (d *refDecoder) Decode(ef *EncodedFrame) (*frame.Frame, error) {
	r := newBitReader(ef.Data)
	keyBit, err := r.readBit()
	if err != nil {
		return nil, err
	}
	key := keyBit == 1
	qpBits, err := r.readBits(6)
	if err != nil {
		return nil, err
	}
	qp := int(qpBits)
	if !key && d.ref == nil {
		return nil, errBitstream
	}

	pw, ph := padTo8(d.cfg.W), padTo8(d.cfg.H)
	recon := frame.New(pw, ph)
	var blk, freq [64]float64
	var prevMVX, prevMVY int

	for by := 0; by < ph; by += blockSize {
		prevMVX, prevMVY = 0, 0
		for bx := 0; bx < pw; bx += blockSize {
			intra := key
			if !key {
				m, err := r.readBit()
				if err != nil {
					return nil, err
				}
				intra = m == 1
			}
			if intra {
				pred := dcPrediction(recon, bx, by)
				if err := decodeBlockRef(r, &blk, &freq, d.cfg.Profile, qp); err != nil {
					return nil, err
				}
				for y := 0; y < blockSize; y++ {
					for x := 0; x < blockSize; x++ {
						recon.Pix[(by+y)*pw+bx+x] = clampAdd(uint8(pred), blk[y*blockSize+x])
					}
				}
				if !key {
					prevMVX, prevMVY = 0, 0
				}
				continue
			}
			dx, err := r.readSE()
			if err != nil {
				return nil, err
			}
			dy, err := r.readSE()
			if err != nil {
				return nil, err
			}
			mvx, mvy := prevMVX+int(dx), prevMVY+int(dy)
			prevMVX, prevMVY = mvx, mvy
			if err := decodeBlockRef(r, &blk, &freq, d.cfg.Profile, qp); err != nil {
				return nil, err
			}
			for y := 0; y < blockSize; y++ {
				for x := 0; x < blockSize; x++ {
					pred := refSample(d.ref, bx+x+mvx, by+y+mvy)
					recon.Pix[(by+y)*pw+bx+x] = clampAdd(pred, blk[y*blockSize+x])
				}
			}
		}
	}
	if d.cfg.Deblock {
		deblockFrame(recon, qp)
	}
	d.ref = recon
	return recon.Crop(0, 0, d.cfg.W, d.cfg.H), nil
}

func decodeBlockRef(r *bitReader, blk, freq *[64]float64, p Profile, qp int) error {
	nnz, err := r.readUE()
	if err != nil {
		return err
	}
	if nnz > 64 {
		return errBitstream
	}
	var q [64]int32
	scan := 0
	for i := uint32(0); i < nnz; i++ {
		run, err := r.readUE()
		if err != nil {
			return err
		}
		scan += int(run)
		if scan >= 64 {
			return errBitstream
		}
		lvl, err := r.readSE()
		if err != nil {
			return err
		}
		q[zigzag[scan]] = lvl
		scan++
	}
	for i := 0; i < 64; i++ {
		freq[i] = float64(q[i]) * quantStepRef(p, qp, i)
	}
	idct8Ref(freq, blk)
	return nil
}

// TestQuantTableMatchesPow: every table entry a decoder can reach is exactly
// the float (or int) the per-coefficient math.Pow expression produces.
func TestQuantTableMatchesPow(t *testing.T) {
	for _, p := range []Profile{BX8, BX9} {
		for qp := 0; qp < wireQPs; qp++ {
			steps := quantSteps(p, qp)
			for i := range steps {
				if got, want := steps[i], quantStepRef(p, qp, i); got != want {
					t.Fatalf("%v qp %d coef %d: table %v, expression %v", p, qp, i, got, want)
				}
			}
		}
	}
	for qp := 0; qp < wireQPs; qp++ {
		if got, want := deblockTab[qp], deblockThresholdRef(qp); got != want {
			t.Fatalf("deblock threshold at qp %d: table %d, expression %d", qp, got, want)
		}
	}
}

// dctCases returns blocks that exercise every skip in dct1d: dense random
// residuals, dequantised-looking sparse blocks, single coefficients, rows
// and columns of zeros, negative zeros, and the all-zero block.
func dctCases() [][64]float64 {
	rng := rand.New(rand.NewSource(8))
	var cases [][64]float64
	cases = append(cases, [64]float64{}) // all +0
	var negZero [64]float64
	for i := range negZero {
		negZero[i] = math.Copysign(0, -1)
	}
	cases = append(cases, negZero)
	for n := 0; n < 200; n++ {
		var dense, sparse, mixed [64]float64
		for i := range dense {
			dense[i] = float64(rng.Intn(511) - 255)
			if rng.Intn(8) == 0 {
				sparse[i] = float64(rng.Intn(41)-20) * quantStepRef(BX8, rng.Intn(wireQPs), i)
			}
			switch rng.Intn(4) {
			case 0:
				mixed[i] = rng.NormFloat64() * 40
			case 1:
				mixed[i] = math.Copysign(0, -1)
			}
		}
		var single [64]float64
		single[rng.Intn(64)] = rng.NormFloat64() * 300
		var rowsOnly [64]float64
		for x := 0; x < 8; x++ {
			rowsOnly[8*(n%8)+x] = rng.NormFloat64() * 100
		}
		cases = append(cases, dense, sparse, mixed, single, rowsOnly)
	}
	return cases
}

// TestDCTMatchesRef: both transforms are bit-for-bit the textbook loops,
// including the sign of every zero, under every kernel set.
func TestDCTMatchesRef(t *testing.T) {
	cases := dctCases()
	forEachCodecKernels(t, func(t *testing.T) {
		for n, src := range cases {
			for _, tr := range []struct {
				name     string
				got, ref func(src, dst *[64]float64)
			}{{"fdct8", fdct8, fdct8Ref}, {"idct8", idct8, idct8Ref}} {
				var got, want [64]float64
				tr.got(&src, &got)
				tr.ref(&src, &want)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s case %d coef %d: %v (%#x), oracle %v (%#x)", tr.name, n, i,
							got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
					}
				}
			}
		}
	})
}

// TestEncodeBitstreamMatchesRef runs the encoder and the oracle encoder side
// by side over moving content, a budget that makes rate control re-encode,
// periodic and forced key frames, and requires byte-equal streams and
// pixel-equal reconstructions at every frame; the decoder and the oracle
// decoder must then agree on every stream too. It runs under every kernel
// set.
func TestEncodeBitstreamMatchesRef(t *testing.T) {
	forEachCodecKernels(t, func(t *testing.T) {
		const frames = 60
		for _, cat := range []vidgen.Category{vidgen.LeagueOfLegends, vidgen.Fortnite} {
			// 100x52 pads to 104x56: the edge-clamped paths run on real content.
			src := vidgen.NewSource(cat, 200, 104, 3, 60)
			for _, profile := range []Profile{BX8, BX9} {
				for _, deblock := range []bool{false, true} {
					cfg := Config{Profile: profile, W: 100, H: 52, KeyInterval: 25, Deblock: deblock}
					enc, ref := NewEncoder(cfg), &refEncoder{cfg: cfg, qp: 30}
					dec, refDec := NewDecoder(cfg), &refDecoder{cfg: cfg}
					for i := 0; i < frames; i++ {
						f := src.FrameAt(float64(i) / 10).Downscale(2)
						bits := 4000 + 9000*(i%7) // swings hard enough to trigger re-encodes
						if i == 13 || i == 14 || i == 40 {
							enc.ForceKeyFrame()
							ref.forceKey = true
						}
						got, want := enc.Encode(f, bits), ref.Encode(f, bits)
						if !bytes.Equal(got.Data, want.Data) || got.Key != want.Key || got.QP != want.QP || got.Seq != want.Seq {
							t.Fatalf("%v %v deblock=%v frame %d: stream differs from oracle (%d vs %d bytes, key %v/%v, qp %d/%d)",
								cat, profile, deblock, i, len(got.Data), len(want.Data), got.Key, want.Key, got.QP, want.QP)
						}
						wantRecon := ref.ref.Crop(0, 0, cfg.W, cfg.H)
						if !bytes.Equal(enc.Reconstructed().Pix, wantRecon.Pix) {
							t.Fatalf("%v %v deblock=%v frame %d: reconstruction differs from oracle", cat, profile, deblock, i)
						}
						d1, err1 := dec.Decode(got)
						d2, err2 := refDec.Decode(want)
						if err1 != nil || err2 != nil {
							t.Fatalf("frame %d: decode errors %v / %v", i, err1, err2)
						}
						if !bytes.Equal(d1.Pix, d2.Pix) || !bytes.Equal(d1.Pix, wantRecon.Pix) {
							t.Fatalf("%v %v deblock=%v frame %d: decoder differs from oracle", cat, profile, deblock, i)
						}
					}
				}
			}
		}
	})
}

// sadFrames returns current and reference frame pairs of one size, as in
// the encoder: random bytes, a reference that is the current frame shifted
// by (3, 2) plus noise, and flat 0 against flat 255 (the largest SAD,
// 64*255). The bordered reference is wider than the current frame, so a
// kernel that read one block with the other's stride would fail.
func sadFrames() [][2]*frame.Frame {
	rng := rand.New(rand.NewSource(5))
	cur, ref := frame.New(48, 40), frame.New(48, 40)
	for i := range cur.Pix {
		cur.Pix[i] = uint8(rng.Intn(256))
	}
	for i := range ref.Pix {
		ref.Pix[i] = uint8(rng.Intn(256))
	}
	shifted := frame.New(48, 40)
	for y := 0; y < shifted.H; y++ {
		for x := 0; x < shifted.W; x++ {
			v := int(cur.Pix[min(max(y-2, 0), cur.H-1)*cur.W+min(max(x-3, 0), cur.W-1)]) + rng.Intn(9) - 4
			shifted.Pix[y*shifted.W+x] = uint8(min(max(v, 0), 255))
		}
	}
	black, white := frame.New(48, 40), frame.New(48, 40)
	for i := range white.Pix {
		white.Pix[i] = 255
	}
	return [][2]*frame.Frame{{cur, ref}, {cur, shifted}, {black, white}}
}

// TestSADMatchesRef holds the encoder's bordered reference to the per-pixel
// clamped oracle under every kernel set, at both profiles' search ranges:
// for every block of the frame (each within searchRange()+8 of an edge:
// the frames are 48x40) and every vector the search can test, within
// ±searchRange() on each axis, sad8x8 of the current block against the
// bordered block at the corner shifted by the border equals blockSADRef on
// the plain reference, and that block's samples are the refSample block.
func TestSADMatchesRef(t *testing.T) {
	forEachCodecKernels(t, func(t *testing.T) {
		for n, pair := range sadFrames() {
			cur, ref := pair[0], pair[1]
			for _, p := range []Profile{BX8, BX9} {
				r := p.searchRange()
				bordered := borderRef(nil, ref, r)
				for by := 0; by < cur.H; by += blockSize {
					for bx := 0; bx < cur.W; bx += blockSize {
						for mvy := -r; mvy <= r; mvy++ {
							for mvx := -r; mvx <= r; mvx++ {
								pred := blockAt(bordered, bx+mvx+r, by+mvy+r)
								if got, want := sad8x8(blockAt(cur, bx, by), cur.W, pred, bordered.W), blockSADRef(cur, ref, bx, by, mvx, mvy); got != want {
									t.Fatalf("frames %d %v block (%d,%d) mv (%d,%d): SAD %d, oracle %d", n, p, bx, by, mvx, mvy, got, want)
								}
								for i := 0; i < 64; i++ {
									x, y := i%blockSize, i/blockSize
									if v, want := pred[y*bordered.W+x], refSample(ref, bx+mvx+x, by+mvy+y); v != want {
										t.Fatalf("frames %d %v block (%d,%d) mv (%d,%d): prediction[%d] %d, oracle %d", n, p, bx, by, mvx, mvy, i, v, want)
									}
								}
							}
						}
					}
				}
			}
		}
	})
}

// TestSearchMotionMatchesRef holds the encoder's motion search, which
// skips the candidates it has already scored, to the seed's search, which
// scores every one: for every block of each sadFrames pair, both profiles
// and a spread of predictors (zero, small, and at each corner of the
// range), the vector and SAD must be the oracle's.
func TestSearchMotionMatchesRef(t *testing.T) {
	forEachCodecKernels(t, func(t *testing.T) {
		for n, pair := range sadFrames() {
			cur, ref := pair[0], pair[1]
			for _, p := range []Profile{BX8, BX9} {
				r := p.searchRange()
				cfg := Config{Profile: p, W: cur.W, H: cur.H}
				e := &Encoder{cfg: cfg, ref: borderRef(nil, ref, r)}
				oracle := &refEncoder{cfg: cfg, ref: ref}
				for by := 0; by < cur.H; by += blockSize {
					for bx := 0; bx < cur.W; bx += blockSize {
						for _, pv := range [][2]int{{0, 0}, {1, -2}, {-3, 3}, {r, r}, {-r, -r}, {r, -r}} {
							gx, gy, gs := e.searchMotion(cur, bx, by, pv[0], pv[1])
							wx, wy, ws := oracle.searchMotion(cur, bx, by, pv[0], pv[1])
							if gx != wx || gy != wy || gs != ws {
								t.Fatalf("frames %d %v block (%d,%d) predictor %v: (%d,%d) SAD %d, oracle (%d,%d) SAD %d", n, p, bx, by, pv, gx, gy, gs, wx, wy, ws)
							}
						}
					}
				}
			}
		}
	})
}

// TestIntraSADMatchesRef holds intraSAD to the seed's float form,
// Σ int(|p − pred|), under every kernel set: first on every block of random
// frames (top-left, top-row, left-column and interior blocks, so the
// prediction is 128, an eighth or a sixteenth of a sum), then exhaustively:
// for every prediction the codec can make and every pixel value, the
// integer form max(p−⌈pred⌉, 0) + max(⌊pred⌋−p, 0) is the float term, and
// intraSAD8x8 sums it over blocks that hold all 256 pixel values.
func TestIntraSADMatchesRef(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	cur, recon := frame.New(48, 40), frame.New(48, 40)
	for i := range cur.Pix {
		cur.Pix[i] = uint8(rng.Intn(256))
		recon.Pix[i] = uint8(rng.Intn(256))
	}
	var preds []float64
	for sum := 0; sum <= 16*255; sum++ {
		if sum <= 8*255 {
			preds = append(preds, float64(sum)/8)
		}
		preds = append(preds, float64(sum)/16)
	}
	preds = append(preds, 128)
	// The four 8x8 blocks of a 16x16 frame hold pixel values 0..255, block
	// b at (b%2*8, b/2*8).
	all := frame.New(16, 16)
	for b := 0; b < 4; b++ {
		for i := 0; i < 64; i++ {
			all.Pix[(b/2*8+i/8)*16+b%2*8+i%8] = uint8(b*64 + i)
		}
	}
	forEachCodecKernels(t, func(t *testing.T) {
		for by := 0; by < cur.H; by += blockSize {
			for bx := 0; bx < cur.W; bx += blockSize {
				if got, want := intraSAD(cur, recon, bx, by), intraSADRef(cur, recon, bx, by); got != want {
					t.Fatalf("block (%d,%d): intraSAD %d, oracle %d", bx, by, got, want)
				}
			}
		}
		for _, pred := range preds {
			fl, ce := int(math.Floor(pred)), int(math.Ceil(pred))
			want := 0
			for p := 0; p < 256; p++ {
				d := float64(p) - pred
				if d < 0 {
					d = -d
				}
				if term := max(p-ce, 0) + max(fl-p, 0); term != int(d) {
					t.Fatalf("pred %v pixel %d: integer term %d, float term %d", pred, p, term, int(d))
				}
				want += int(d)
			}
			got := 0
			for b := 0; b < 4; b++ {
				got += intraSAD8x8(all.Pix[b/2*8*16+b%2*8:][:7*16+blockSize], 16, fl, ce)
			}
			if got != want {
				t.Fatalf("pred %v: intraSAD8x8 over all pixel values %d, float sum %d", pred, got, want)
			}
		}
	})
}

// blockStrides are the (block, prediction) row strides the block kernels
// are tested at: packed rows, rows wider than the block (a frame, and the
// bordered reference, whose stride differs), and a prediction repeating
// one row (a flat intra block).
var blockStrides = [][2]int{{8, 8}, {21, 8}, {21, 29}, {13, 0}}

// guardedBlock returns a buffer holding an 8x8 block at stride s with
// guard bytes around and between its rows, and the block's slice of it.
func guardedBlock(s int) (buf, blk []uint8) {
	buf = make([]uint8, 3+(blockSize-1)*max(s, 1)+blockSize+3)
	for i := range buf {
		buf[i] = 0xA5
	}
	return buf, buf[3:][:(blockSize-1)*s+blockSize]
}

// TestReconstructMatchesRef holds reconstruct to the seed's per-pixel
// clampAdd under every kernel set: every prediction byte against residuals
// at the clamp and rounding edges (−0.5, 254.5 and 255 ± 1 ulp, ±0, ±0.5),
// at and far beyond ±2³¹ (a decoder's dequantised levels come off the
// wire), and random values, at every stride pair of blockStrides. No byte
// outside the block may change.
func TestReconstructMatchesRef(t *testing.T) {
	residuals := []float64{math.Copysign(0, -1), 0, 0.5, -0.5, 1, -1, 127.5, -255, 255, 256, -256,
		math.Nextafter(-0.5, -1), math.Nextafter(-0.5, 0),
		254.5, math.Nextafter(254.5, 0), math.Nextafter(254.5, 300),
		math.Nextafter(255, 0), math.Nextafter(255, 300),
		1 << 31, -1 << 31, 1<<31 + 1, -1<<31 - 1, 1 << 32, -1 << 32, 5.6e13, -5.6e13, 1e300, -1e300}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		residuals = append(residuals, float64(rng.Intn(1<<20)-1<<19)/1024)
	}
	// Lane i of the b-th block pairs prediction byte (b*64+i) % 256 with
	// residual (b*64+i) / 256, so every pair is tested (with a stride of
	// 0, a row's lanes share the prediction the last of them wrote).
	n := 256 * len(residuals)
	forEachCodecKernels(t, func(t *testing.T) {
		for _, st := range blockStrides {
			ds, ps := st[0], st[1]
			for b := 0; b < n; b += 64 {
				var blk [64]float64
				pred := make([]uint8, (blockSize-1)*ps+blockSize)
				for i := range blk {
					k := (b + i) % n
					blk[i] = residuals[k/256]
					pred[i/blockSize*ps+i%blockSize] = uint8(k)
				}
				buf, dst := guardedBlock(ds)
				reconstruct(dst, ds, pred, ps, &blk)
				for i := range blk {
					p := pred[i/blockSize*ps+i%blockSize]
					if got, want := dst[i/blockSize*ds+i%blockSize], clampAdd(p, blk[i]); got != want {
						t.Fatalf("strides %v: pred %d + residual %v = %d, seed %d", st, p, blk[i], got, want)
					}
				}
				for i, v := range buf {
					if j := i - 3; (j < 0 || j >= len(dst) || j%ds >= blockSize) && v != 0xA5 {
						t.Fatalf("strides %v: byte %d outside the block written", st, j)
					}
				}
			}
		}
	})
}

// ratioFreq returns a coefficient whose ratio to step is exactly r, and
// whether one exists within a few ulps of r*step.
func ratioFreq(r, step float64) (float64, bool) {
	f := r * step
	for i := 0; i < 8; i++ {
		switch q := f / step; {
		case q == r:
			return f, true
		case q < r:
			f = math.Nextafter(f, math.Inf(1))
		default:
			f = math.Nextafter(f, math.Inf(-1))
		}
	}
	return 0, false
}

// TestQuantiseMatchesRef holds quantise to the seed's per-coefficient
// int32(math.Round(freq/step)) and float64(level)*step under every kernel
// set, for every profile and wire QP: levels, the dequantised coefficients
// bit for bit (−0 included), and the nonzero mask. The coefficients are
// chosen so the ratios land on the rounding edges — ±0.5, ±1.5 and ±2.5
// and one ulp either side — and on −0 (a −0 coefficient, and negative
// ones too small to leave a nonzero quotient), then random ones across the
// encoder's range.
func TestQuantiseMatchesRef(t *testing.T) {
	var ratios []float64
	for _, r := range []float64{0.5, 1.5, 2.5, 1, 700.5} {
		for _, v := range []float64{r, -r} {
			ratios = append(ratios, v, math.Nextafter(v, 0), math.Nextafter(v, 2*v))
		}
	}
	rng := rand.New(rand.NewSource(12))
	forEachCodecKernels(t, func(t *testing.T) {
		for _, p := range []Profile{BX8, BX9} {
			for qp := 0; qp < wireQPs; qp++ {
				steps := quantSteps(p, qp)
				var cases [][64]float64
				var c [64]float64
				for i := range c {
					if r := ratios[i%len(ratios)]; i < 2*len(ratios) {
						c[i], _ = ratioFreq(r, steps[i])
					}
				}
				c[60], c[61], c[62], c[63] = math.Copysign(0, -1), -math.SmallestNonzeroFloat64, -1e-300, 0
				cases = append(cases, c)
				for n := 0; n < 4; n++ {
					for i := range c {
						c[i] = float64(rng.Intn(4081)-2040) + float64(rng.Float64())
					}
					cases = append(cases, c)
				}
				for _, freq := range cases {
					got := freq
					var q [64]int32
					nz := quantise(&got, steps, &q)
					for i, f := range freq {
						lv := int32(math.Round(f / steps[i]))
						deq := float64(lv) * steps[i]
						if q[i] != lv || math.Float64bits(got[i]) != math.Float64bits(deq) || (nz>>i&1 == 1) != (lv != 0) {
							t.Fatalf("%v qp %d coefficient %d: freq %v step %v gives level %d dequantised %v mask %d, seed %d %v",
								p, qp, i, f, steps[i], q[i], got[i], nz>>i&1, lv, deq)
						}
					}
				}
			}
		}
	})
}

// TestResidualMatchesRef holds residual to the seed's per-pixel
// float64(src) − float64(pred) under every kernel set, bit for bit: every
// pair of bytes, at every stride pair of blockStrides.
func TestResidualMatchesRef(t *testing.T) {
	forEachCodecKernels(t, func(t *testing.T) {
		for _, st := range blockStrides {
			ss, ps := st[0], st[1]
			for b := 0; b < 1<<16; b += 64 {
				src := make([]uint8, (blockSize-1)*ss+blockSize)
				pred := make([]uint8, (blockSize-1)*ps+blockSize)
				for i := 0; i < 64; i++ {
					src[i/blockSize*ss+i%blockSize] = uint8(b + i)
					pred[i/blockSize*ps+i%blockSize] = uint8((b + i) >> 8)
				}
				var blk [64]float64
				residual(src, ss, pred, ps, &blk)
				for i, got := range blk {
					want := float64(src[i/blockSize*ss+i%blockSize]) - float64(pred[i/blockSize*ps+i%blockSize])
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("strides %v lane %d: residual %v, seed %v", st, i, got, want)
					}
				}
			}
		}
	})
}
