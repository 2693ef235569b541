package codec

// Reference codec: the seed implementation's per-coefficient math.Pow
// quantiser, textbook double-loop DCT, per-pixel clamped SAD and reference
// fetch, and allocate-per-attempt encoder, kept verbatim as the ground truth
// the table-driven codec is differentially tested against — byte-equal
// streams, pixel-equal reconstructions, Float64bits-equal transforms. They
// are oracles, not a codec: nothing outside the tests can reach them. What
// the two share (bit I/O, zigzag, baseQuant, dcPrediction, intraSAD,
// refSample, clampAdd, deblockFrame) did not change; deblockFrame's
// threshold table is checked against the Pow expression below.

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
		q = 6 + (q-6)*0.8
	}
	return q * qpScale(qp)
}

func deblockThresholdRef(qp int) int {
	t := int(2 + qpScale(qp)*1.5)
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
				s += dctBasis[k][n] * src[y*8+n]
			}
			tmp[y*8+k] = s
		}
	}
	// Columns.
	for x := 0; x < 8; x++ {
		for k := 0; k < 8; k++ {
			var s float64
			for n := 0; n < 8; n++ {
				s += dctBasis[k][n] * tmp[n*8+x]
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
				s += dctBasis[k][n] * src[k*8+x]
			}
			tmp[n*8+x] = s
		}
	}
	// Rows.
	for y := 0; y < 8; y++ {
		for n := 0; n < 8; n++ {
			var s float64
			for k := 0; k < 8; k++ {
				s += dctBasis[k][n] * tmp[y*8+k]
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
	e.rcInertia = 0.6*e.rcInertia + 0.4*err
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
			sadIntra := intraSAD(padded, recon, bx, by)
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
// including the sign of every zero.
func TestDCTMatchesRef(t *testing.T) {
	for n, src := range dctCases() {
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
}

// TestEncodeBitstreamMatchesRef runs the encoder and the oracle encoder side
// by side over moving content, a budget that makes rate control re-encode,
// periodic and forced key frames, and requires byte-equal streams and
// pixel-equal reconstructions at every frame; the decoder and the oracle
// decoder must then agree on every stream too.
func TestEncodeBitstreamMatchesRef(t *testing.T) {
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
}
