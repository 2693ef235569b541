package codec

import (
	"fmt"
	"math"

	"livenas/internal/frame"
)

// Profile selects the codec generation. BX8 stands in for VP8 and BX9 for
// VP9: BX9 spends more search effort and uses a flatter high-frequency
// quantiser, buying roughly 10-15% bitrate at equal quality — the relation
// the paper's codec-agnostic experiment (Figure 14) exercises.
type Profile int

const (
	BX8 Profile = iota
	BX9
)

func (p Profile) String() string {
	if p == BX9 {
		return "BX9"
	}
	return "BX8"
}

// searchRange returns the motion search radius in pixels.
func (p Profile) searchRange() int {
	if p == BX9 {
		return 12
	}
	return 8
}

// Config describes one encoded stream.
type Config struct {
	Profile Profile
	W, H    int // visible frame dimensions
	// KeyInterval is the maximum number of frames between key frames
	// (a GoP); 0 means only the first frame is a key frame.
	KeyInterval int
	// Deblock enables the in-loop deblocking filter (see deblock.go). Both
	// endpoints must agree on it; it is part of the stream configuration.
	Deblock bool
}

// EncodedFrame is one compressed frame: a self-contained decodable payload.
type EncodedFrame struct {
	Data []byte
	Key  bool
	QP   int
	Seq  int // encoder-assigned sequence number
}

// Bits returns the payload size in bits.
func (ef *EncodedFrame) Bits() int { return len(ef.Data) * 8 }

// padTo8 rounds up to a multiple of the transform block size.
func padTo8(x int) int { return (x + blockSize - 1) / blockSize * blockSize }

// Encoder compresses a sequence of frames. It maintains the reconstructed
// reference frame (the same images a decoder will see), a GoP counter, and
// rate-control state.
type Encoder struct {
	cfg Config
	// ref is the reconstructed previous frame (padded dims); spare is the
	// buffer the next reconstruction is written into. The two swap after
	// every frame, so re-encode attempts and steady state allocate nothing.
	ref, spare *frame.Frame
	padded     *frame.Frame // block-aligned copy of the input, when it needs one
	lastBytes  int          // previous frame's stream length: sizes the next bitWriter
	seq        int
	sinceKey   int
	forceKey   bool
	qp         int
	rcInertia  float64 // smoothed log2(bits/target) error
}

// NewEncoder returns an encoder for the given configuration.
func NewEncoder(cfg Config) *Encoder {
	if cfg.W <= 0 || cfg.H <= 0 {
		panic(fmt.Sprintf("codec: invalid dimensions %dx%d", cfg.W, cfg.H))
	}
	return &Encoder{cfg: cfg, qp: 30}
}

// Config returns the encoder's configuration.
func (e *Encoder) Config() Config { return e.cfg }

// ForceKeyFrame makes the next encoded frame a key frame (used by the ingest
// pipeline to recover from reference loss).
func (e *Encoder) ForceKeyFrame() { e.forceKey = true }

// QP reports the current rate-control quantisation parameter.
func (e *Encoder) QP() int { return e.qp }

// Encode compresses f against a per-frame bit budget. Rate control adapts QP
// across frames toward the budget and re-encodes within the frame only on
// gross mismatch, mirroring a one-pass real-time encoder.
func (e *Encoder) Encode(f *frame.Frame, targetBits int) *EncodedFrame {
	if f.W != e.cfg.W || f.H != e.cfg.H {
		panic(fmt.Sprintf("codec: frame %dx%d does not match config %dx%d", f.W, f.H, e.cfg.W, e.cfg.H))
	}
	if targetBits < 256 {
		targetBits = 256
	}
	key := e.ref == nil || e.forceKey ||
		(e.cfg.KeyInterval > 0 && e.sinceKey >= e.cfg.KeyInterval)
	e.forceKey = false

	budget := targetBits
	if key {
		// Key frames legitimately cost more; give them headroom so quality
		// does not crater, as real-time encoders do.
		budget = targetBits * 3
	}

	padded := e.pad(f)
	data := e.encodeOnce(padded, key, e.qp)
	// Bounded re-encode on gross budget violation (cheap insurance for
	// scene changes and one-shot encodes; steady state is handled by the
	// inter-frame loop below).
	for attempt := 0; attempt < 4; attempt++ {
		bitsGot := len(data) * 8
		if bitsGot > budget*2 && e.qp < MaxQP {
			e.qp = min(MaxQP, e.qp+6)
		} else if bitsGot*4 < budget && e.qp > MinQP {
			e.qp = max(MinQP, e.qp-6)
		} else {
			break
		}
		data = e.encodeOnce(padded, key, e.qp)
	}

	// Inter-frame QP adaptation: proportional control on the log bit error,
	// smoothed to avoid oscillation.
	err := math.Log2(float64(len(data)*8) / float64(budget))
	e.rcInertia = 0.6*e.rcInertia + 0.4*err
	step := int(math.Round(2.5 * e.rcInertia))
	if step != 0 {
		e.qp = min(MaxQP, max(MinQP, e.qp+step))
		e.rcInertia = 0
	}

	e.ref, e.spare = e.spare, e.ref
	e.lastBytes = len(data)
	if key {
		e.sinceKey = 0
	} else {
		e.sinceKey++
	}
	ef := &EncodedFrame{Data: data, Key: key, QP: e.qp, Seq: e.seq}
	e.seq++
	return ef
}

// Reconstructed returns the encoder-side reconstruction of the last encoded
// frame (cropped to visible dimensions). The ingest client uses it to measure
// encoded quality without running a separate decoder (§5.2 patch selection).
func (e *Encoder) Reconstructed() *frame.Frame {
	if e.ref == nil {
		return nil
	}
	return e.ref.Crop(0, 0, e.cfg.W, e.cfg.H)
}

// pad extends f to block-aligned dimensions by edge replication.
func (e *Encoder) pad(f *frame.Frame) *frame.Frame {
	pw, ph := padTo8(f.W), padTo8(f.H)
	if pw == f.W && ph == f.H {
		return f
	}
	if e.padded == nil {
		e.padded = frame.New(pw, ph)
	}
	for y := 0; y < ph; y++ {
		src := f.Pix[min(y, f.H-1)*f.W:][:f.W]
		dst := e.padded.Pix[y*pw:][:pw]
		copy(dst, src)
		for x := f.W; x < pw; x++ {
			dst[x] = src[f.W-1]
		}
	}
	return e.padded
}

// encodeOnce runs one full encode of a padded frame at a fixed QP, writes
// the reconstruction (the next reference) into e.spare, and returns the
// bitstream.
func (e *Encoder) encodeOnce(padded *frame.Frame, key bool, qp int) []byte {
	w := &bitWriter{buf: make([]byte, 0, e.lastBytes+e.lastBytes/4+64)}
	w.writeBit(boolBit(key))
	w.writeBits(uint64(qp), 6)

	pw, ph := padded.W, padded.H
	if e.spare == nil {
		e.spare = frame.New(pw, ph)
	}
	recon := e.spare
	steps := quantSteps(e.cfg.Profile, qp)
	var blk, freq [64]float64
	var pred [64]uint8
	var prevMVX, prevMVY int

	for by := 0; by < ph; by += blockSize {
		prevMVX, prevMVY = 0, 0
		for bx := 0; bx < pw; bx += blockSize {
			if key || e.ref == nil {
				encodeIntraBlock(w, padded, recon, bx, by, steps, &blk, &freq, &pred)
				continue
			}
			// Motion search against the reconstructed reference.
			mvx, mvy, sadInter := e.searchMotion(padded, bx, by, prevMVX, prevMVY)
			sadIntra := intraSAD(padded, recon, bx, by)
			if sadIntra+32 < sadInter {
				w.writeBit(1) // intra
				encodeIntraBlock(w, padded, recon, bx, by, steps, &blk, &freq, &pred)
				prevMVX, prevMVY = 0, 0
				continue
			}
			w.writeBit(0) // inter
			w.writeSE(int32(mvx - prevMVX))
			w.writeSE(int32(mvy - prevMVY))
			prevMVX, prevMVY = mvx, mvy
			// Residual against motion-compensated prediction.
			fetchPred(e.ref, bx+mvx, by+mvy, &pred)
			for y := 0; y < blockSize; y++ {
				src := padded.Pix[(by+y)*pw+bx:][:blockSize]
				for x, v := range src {
					blk[y*blockSize+x] = float64(v) - float64(pred[y*blockSize+x])
				}
			}
			codeBlock(w, &blk, &freq, steps)
			reconstruct(recon, bx, by, &pred, &blk)
		}
	}
	if e.cfg.Deblock {
		deblockFrame(recon, qp)
	}
	return w.finish()
}

// encodeIntraBlock DC-predicts from the already-reconstructed left/top
// neighbours, codes the residual, and reconstructs in-loop.
func encodeIntraBlock(w *bitWriter, src, recon *frame.Frame, bx, by int, steps, blk, freq *[64]float64, pred *[64]uint8) {
	dc := dcPrediction(recon, bx, by)
	pw := src.W
	for y := 0; y < blockSize; y++ {
		row := src.Pix[(by+y)*pw+bx:][:blockSize]
		for x, v := range row {
			blk[y*blockSize+x] = float64(v) - dc
		}
	}
	codeBlock(w, blk, freq, steps)
	flatPred(uint8(dc), pred)
	reconstruct(recon, bx, by, pred, blk)
}

// flatPred fills pred with an intra block's DC prediction.
func flatPred(dc uint8, pred *[64]uint8) {
	for i := range pred {
		pred[i] = dc
	}
}

// reconstruct writes prediction plus residual into the block at (bx, by).
func reconstruct(recon *frame.Frame, bx, by int, pred *[64]uint8, blk *[64]float64) {
	for y := 0; y < blockSize; y++ {
		row := recon.Pix[(by+y)*recon.W+bx:][:blockSize]
		for x := range row {
			row[x] = clampAdd(pred[y*blockSize+x], blk[y*blockSize+x])
		}
	}
}

// codeBlock transforms blk, quantises it, entropy-codes it, and replaces blk
// with the dequantised spatial-domain reconstruction (in place).
func codeBlock(w *bitWriter, blk, freq, steps *[64]float64) {
	fdct8(blk, freq)
	var q [64]int32
	nnz := 0
	for i, step := range steps {
		// A ratio inside (-0.5, 0.5) rounds to zero; most do, and skip the
		// math.Round call.
		if r := freq[i] / step; r <= -0.5 || r >= 0.5 {
			q[i] = int32(math.Round(r))
			nnz++
		}
	}
	w.writeUE(uint32(nnz))
	if nnz == 0 {
		*blk = [64]float64{}
		return
	}
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
	// Dequantise for reconstruction.
	for i, step := range steps {
		freq[i] = float64(q[i]) * step
	}
	idct8(freq, blk)
}

// searchMotion runs a small diamond search seeded at (0,0) and the left
// neighbour's motion vector, returning the best vector and its SAD. A
// candidate is abandoned once its partial SAD reaches the best so far, and
// the search ends at a perfect match: neither can change the winner, which
// must be strictly better.
func (e *Encoder) searchMotion(cur *frame.Frame, bx, by, predX, predY int) (int, int, int) {
	r := e.cfg.Profile.searchRange()
	bestX, bestY := 0, 0
	best := blockSAD(cur, e.ref, bx, by, 0, 0, math.MaxInt)
	if predX != 0 || predY != 0 {
		if s := blockSAD(cur, e.ref, bx, by, predX, predY, best); s < best {
			best, bestX, bestY = s, predX, predY
		}
	}
	for step := r; step >= 1 && best > 0; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, d := range [4][2]int{{step, 0}, {-step, 0}, {0, step}, {0, -step}} {
				nx, ny := bestX+d[0], bestY+d[1]
				if nx < -r || nx > r || ny < -r || ny > r {
					continue
				}
				if s := blockSAD(cur, e.ref, bx, by, nx, ny, best); s < best {
					best, bestX, bestY = s, nx, ny
					improved = true
				}
			}
		}
	}
	return bestX, bestY, best
}

// blockSAD computes the sum of absolute differences between the current
// block and the reference block displaced by (mvx, mvy) (edge-clamped). It
// returns early, with a partial sum that is at least limit, once the sum
// reaches limit.
func blockSAD(cur, ref *frame.Frame, bx, by, mvx, mvy, limit int) int {
	x0, y0 := bx+mvx, by+mvy
	in := inside(ref, x0, y0)
	var edge [blockSize]uint8
	var sad int
	for y := 0; y < blockSize; y++ {
		c := cur.Pix[(by+y)*cur.W+bx:][:blockSize]
		r := refRow(ref, x0, y0+y, in, &edge)
		for x, cv := range c {
			d := int(cv) - int(r[x])
			if d < 0 {
				d = -d
			}
			sad += d
		}
		if sad >= limit {
			break
		}
	}
	return sad
}

// inside reports whether the 8x8 block whose top-left corner is (x0, y0)
// lies wholly within f. The corner comes from a motion vector a decoder read
// off the wire, so it can be anywhere.
func inside(f *frame.Frame, x0, y0 int) bool {
	return x0 >= 0 && y0 >= 0 && x0 <= f.W-blockSize && y0 <= f.H-blockSize
}

// refRow returns the eight reference samples starting at (x0, y): a slice of
// the frame itself when the block is inside it, otherwise edge-clamped
// copies in edge.
func refRow(ref *frame.Frame, x0, y int, in bool, edge *[blockSize]uint8) []uint8 {
	if in {
		return ref.Pix[y*ref.W+x0:][:blockSize]
	}
	for x := range edge {
		edge[x] = refSample(ref, x0+x, y)
	}
	return edge[:]
}

// fetchPred copies the motion-compensated prediction, the reference block
// whose top-left corner is (x0, y0), into pred.
func fetchPred(ref *frame.Frame, x0, y0 int, pred *[64]uint8) {
	in := inside(ref, x0, y0)
	var edge [blockSize]uint8
	for y := 0; y < blockSize; y++ {
		copy(pred[y*blockSize:][:blockSize], refRow(ref, x0, y0+y, in, &edge))
	}
}

// intraSAD estimates the cost of DC-intra coding the block.
func intraSAD(cur, recon *frame.Frame, bx, by int) int {
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

// dcPrediction predicts a block's DC level from reconstructed neighbours:
// the mean of the column immediately left and the row immediately above.
func dcPrediction(recon *frame.Frame, bx, by int) float64 {
	var sum, n float64
	if bx > 0 {
		for y := 0; y < blockSize; y++ {
			sum += float64(recon.Pix[(by+y)*recon.W+bx-1])
			n++
		}
	}
	if by > 0 {
		for x := 0; x < blockSize; x++ {
			sum += float64(recon.Pix[(by-1)*recon.W+bx+x])
			n++
		}
	}
	if n == 0 {
		return 128
	}
	return sum / n
}

// refSample reads the reference frame with edge clamping.
func refSample(ref *frame.Frame, x, y int) uint8 {
	if x < 0 {
		x = 0
	} else if x >= ref.W {
		x = ref.W - 1
	}
	if y < 0 {
		y = 0
	} else if y >= ref.H {
		y = ref.H - 1
	}
	return ref.Pix[y*ref.W+x]
}

func clampAdd(base uint8, delta float64) uint8 {
	v := float64(base) + delta
	if v <= 0 {
		return 0
	}
	if v >= 255 {
		return 255
	}
	return uint8(v + 0.5)
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Decoder reconstructs frames from EncodedFrames. Frames must be fed in
// encode order; a missing reference is reported so the caller can request a
// key frame.
type Decoder struct {
	cfg Config
	// ref is the previous reconstruction (padded dims); spare is the buffer
	// the next one is decoded into. They swap after every decoded frame; a
	// frame that fails to decode leaves ref untouched.
	ref, spare *frame.Frame
}

// NewDecoder returns a decoder for the stream configuration.
func NewDecoder(cfg Config) *Decoder { return &Decoder{cfg: cfg} }

// Reset drops the reference frame (e.g. after packet loss).
func (d *Decoder) Reset() {
	if d.ref != nil {
		d.ref, d.spare = nil, d.ref
	}
}

// Decode reconstructs one frame.
func (d *Decoder) Decode(ef *EncodedFrame) (*frame.Frame, error) {
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
		return nil, fmt.Errorf("codec: inter frame %d without reference", ef.Seq)
	}

	pw, ph := padTo8(d.cfg.W), padTo8(d.cfg.H)
	if d.spare == nil {
		d.spare = frame.New(pw, ph)
	}
	recon := d.spare
	steps := quantSteps(d.cfg.Profile, qp)
	var blk, freq [64]float64
	var pred [64]uint8
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
				dc := dcPrediction(recon, bx, by)
				if err := decodeBlock(r, &blk, &freq, steps); err != nil {
					return nil, err
				}
				flatPred(uint8(dc), &pred)
				reconstruct(recon, bx, by, &pred, &blk)
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
			if err := decodeBlock(r, &blk, &freq, steps); err != nil {
				return nil, err
			}
			fetchPred(d.ref, bx+mvx, by+mvy, &pred)
			reconstruct(recon, bx, by, &pred, &blk)
		}
	}
	if d.cfg.Deblock {
		deblockFrame(recon, qp)
	}
	d.ref, d.spare = recon, d.ref
	return recon.Crop(0, 0, d.cfg.W, d.cfg.H), nil
}

// decodeBlock entropy-decodes one block and leaves the dequantised spatial
// residual in blk.
func decodeBlock(r *bitReader, blk, freq, steps *[64]float64) error {
	nnz, err := r.readUE()
	if err != nil {
		return err
	}
	if nnz > 64 {
		return errBitstream
	}
	if nnz == 0 {
		*blk = [64]float64{}
		return nil
	}
	*freq = [64]float64{}
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
		pos := zigzag[scan]
		freq[pos] = float64(lvl) * steps[pos]
		scan++
	}
	idct8(freq, blk)
	return nil
}
