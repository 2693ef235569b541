package codec

import (
	"fmt"
	"math"
	"math/bits"

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
		return maxSearchRange
	}
	return 8
}

// maxSearchRange is the largest searchRange() of any profile.
const maxSearchRange = 12

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

// padTo8 rounds up to a multiple of the transform block size.
func padTo8(x int) int { return (x + blockSize - 1) / blockSize * blockSize }

// Encoder compresses a sequence of frames. It maintains the reconstructed
// reference frame (the same images a decoder will see), a GoP counter, and
// rate-control state.
type Encoder struct {
	cfg Config
	// recon is the buffer every encode attempt writes its reconstruction
	// into (padded dims). ref is the reference the next inter frame
	// predicts from: the kept reconstruction with an edge-replicated border
	// of searchRange() pixels on every side (borderRef), so every block the
	// motion search can reach lies inside it. Both are allocated once, so
	// re-encode attempts and steady state allocate nothing.
	recon, ref *frame.Frame
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

// ForceKeyFrame makes the next encoded frame a key frame (used by the ingest
// pipeline to recover from reference loss).
func (e *Encoder) ForceKeyFrame() { e.forceKey = true }

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
	e.rcInertia = float64(0.6*e.rcInertia) + float64(0.4*err)
	step := int(math.Round(2.5 * e.rcInertia))
	if step != 0 {
		e.qp = min(MaxQP, max(MinQP, e.qp+step))
		e.rcInertia = 0
	}

	e.ref = borderRef(e.ref, e.recon, e.cfg.Profile.searchRange())
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
	return e.recon.Crop(0, 0, e.cfg.W, e.cfg.H)
}

// borderRef writes src into dst's interior, b pixels in from every side,
// and replicates src's edge samples across the border: dst holds
// refSample(src, x−b, y−b) at every (x, y), so a block displaced by up to b
// pixels from anywhere in src lies inside dst and reads what the clamped
// fetch would. dst is allocated on first use and returned.
func borderRef(dst, src *frame.Frame, b int) *frame.Frame {
	if dst == nil {
		dst = frame.New(src.W+2*b, src.H+2*b)
	}
	for y := 0; y < dst.H; y++ {
		s := src.Pix[min(max(y-b, 0), src.H-1)*src.W:][:src.W]
		d := dst.Pix[y*dst.W:][:dst.W]
		copy(d[b:], s)
		for x := 0; x < b; x++ {
			d[x], d[len(d)-1-x] = s[0], s[len(s)-1]
		}
	}
	return dst
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
// the reconstruction (the next reference) into e.recon, and returns the
// bitstream.
func (e *Encoder) encodeOnce(padded *frame.Frame, key bool, qp int) []byte {
	w := &bitWriter{buf: make([]byte, 0, e.lastBytes+e.lastBytes/4+64)}
	w.writeBit(boolBit(key))
	w.writeBits(uint64(qp), 6)

	pw, ph := padded.W, padded.H
	if e.recon == nil {
		e.recon = frame.New(pw, ph)
	}
	recon := e.recon
	border := e.cfg.Profile.searchRange()
	steps := quantSteps(e.cfg.Profile, qp)
	var blk, freq [64]float64
	var prevMVX, prevMVY int

	for by := 0; by < ph; by += blockSize {
		prevMVX, prevMVY = 0, 0
		for bx := 0; bx < pw; bx += blockSize {
			if key || e.ref == nil {
				encodeIntraBlock(w, padded, recon, bx, by, steps, &blk, &freq)
				continue
			}
			// Motion search against the reconstructed reference.
			mvx, mvy, sadInter := e.searchMotion(padded, bx, by, prevMVX, prevMVY)
			sadIntra := intraSAD(padded, recon, bx, by)
			if sadIntra+32 < sadInter {
				w.writeBit(1) // intra
				encodeIntraBlock(w, padded, recon, bx, by, steps, &blk, &freq)
				prevMVX, prevMVY = 0, 0
				continue
			}
			w.writeBit(0) // inter
			w.writeSE(int32(mvx - prevMVX))
			w.writeSE(int32(mvy - prevMVY))
			prevMVX, prevMVY = mvx, mvy
			// Residual against the motion-compensated prediction, a block
			// of the bordered reference.
			pred := blockAt(e.ref, bx+mvx+border, by+mvy+border)
			residual(blockAt(padded, bx, by), pw, pred, e.ref.W, &blk)
			codeBlock(w, &blk, &freq, steps)
			reconstruct(blockAt(recon, bx, by), pw, pred, e.ref.W, &blk)
		}
	}
	if e.cfg.Deblock {
		deblockFrame(recon, qp)
	}
	return w.finish()
}

// encodeIntraBlock DC-predicts from the already-reconstructed left/top
// neighbours, codes the residual, and reconstructs in-loop.
func encodeIntraBlock(w *bitWriter, src, recon *frame.Frame, bx, by int, steps, blk, freq *[64]float64) {
	dc := dcPrediction(recon, bx, by)
	pw := src.W
	for y := 0; y < blockSize; y++ {
		row := src.Pix[(by+y)*pw+bx:][:blockSize]
		for x, v := range row {
			blk[y*blockSize+x] = float64(v) - dc
		}
	}
	codeBlock(w, blk, freq, steps)
	flat := flatRow(dc)
	reconstruct(blockAt(recon, bx, by), pw, flat[:], 0, blk)
}

// flatRow is an intra block's DC prediction as one row of eight pixels; the
// block kernels read it with a stride of 0.
func flatRow(dc float64) (row [blockSize]uint8) {
	for i := range row {
		row[i] = uint8(dc)
	}
	return row
}

// blockAt returns the bytes of f's 8x8 block whose top-left corner is
// (x, y): row j starts at j*f.W, and the slice ends after row 7.
func blockAt(f *frame.Frame, x, y int) []uint8 {
	return f.Pix[y*f.W+x:][:(blockSize-1)*f.W+blockSize]
}

// codeBlock transforms blk, quantises it, entropy-codes it, and replaces blk
// with the dequantised spatial-domain reconstruction (in place). The
// entropy loop visits only the nonzero levels, in zig-zag order: the
// quantiser's raster mask is moved to scan positions bit by bit, and runs
// are the gaps between set bits.
func codeBlock(w *bitWriter, blk, freq, steps *[64]float64) {
	fdct8(blk, freq)
	var q [64]int32
	nz := quantise(freq, steps, &q) // freq now holds the dequantised levels
	w.writeUE(uint32(bits.OnesCount64(nz)))
	if nz == 0 {
		*blk = [64]float64{}
		return
	}
	var scan uint64
	for m := nz; m != 0; m &= m - 1 {
		scan |= 1 << scanIndex[bits.TrailingZeros64(m)]
	}
	next := 0 // the scan position after the last level written
	for ; scan != 0; scan &= scan - 1 {
		k := bits.TrailingZeros64(scan)
		w.writeUE(uint32(k - next))
		w.writeSE(q[zigzag[k]])
		next = k + 1
	}
	idct8(freq, blk)
}

// searchMotion runs a small diamond search seeded at (0,0) and the left
// neighbour's motion vector, returning the best vector and its SAD; the
// search ends at a perfect match, which no candidate can beat. Every
// candidate lies within ±searchRange() on each axis (the left neighbour's
// vector is an earlier result), so each is one sad8x8 against the bordered
// reference (borderRef), at an offset from the zero vector's block. A
// candidate this search has already scored is skipped: its SAD was no less
// than the best at the time, and the best only falls, so scoring it again
// could not win.
func (e *Encoder) searchMotion(cur *frame.Frame, bx, by, predX, predY int) (int, int, int) {
	r := e.cfg.Profile.searchRange()
	ref := e.ref
	rs := ref.W
	c := blockAt(cur, bx, by)
	span := (blockSize-1)*rs + blockSize
	base := (by+r)*rs + bx + r // the zero vector's block
	side := 2*r + 1
	// seen has bit (my+r)*side + mx+r set for every vector scored.
	var seen [((2*maxSearchRange+1)*(2*maxSearchRange+1) + 63) / 64]uint64
	seen[(r*side+r)>>6] |= 1 << ((r*side + r) & 63)
	bestX, bestY := 0, 0
	best := sad8x8(c, cur.W, ref.Pix[base:][:span], rs)
	if predX != 0 || predY != 0 {
		b := (predY+r)*side + predX + r
		seen[b>>6] |= 1 << (b & 63)
		if s := sad8x8(c, cur.W, ref.Pix[base+predY*rs+predX:][:span], rs); s < best {
			best, bestX, bestY = s, predX, predY
		}
	}
	sse2 := useSSE2
	for step := r; step >= 1 && best > 0; step /= 2 {
		improved := true
		for improved {
			improved = false
			for _, d := range &diamond {
				nx, ny := bestX+d[0]*step, bestY+d[1]*step
				if nx < -r || nx > r || ny < -r || ny > r {
					continue
				}
				b := (ny+r)*side + nx + r
				if seen[b>>6]&(1<<(b&63)) != 0 {
					continue
				}
				seen[b>>6] |= 1 << (b & 63)
				// sad8x8 with its choice made once above: the wrapper's two
				// calls keep it from being inlined on this, the codec's
				// most frequent call.
				cand := ref.Pix[base+ny*rs+nx:][:span]
				var s int
				if sse2 {
					s = sad8x8SSE2(c, cur.W, cand, rs)
				} else {
					s = sad8x8Go(c, cur.W, cand, rs)
				}
				if s < best {
					best, bestX, bestY = s, nx, ny
					improved = true
				}
			}
		}
	}
	return bestX, bestY, best
}

// diamond is the motion search's pattern: the four unit steps, in the order
// the search tries them.
var diamond = [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}}

// inside reports whether the 8x8 block whose top-left corner is (x0, y0)
// lies wholly within f. The corner comes from a motion vector a decoder read
// off the wire, so it can be anywhere.
func inside(f *frame.Frame, x0, y0 int) bool {
	return x0 >= 0 && y0 >= 0 && x0 <= f.W-blockSize && y0 <= f.H-blockSize
}

// fetchClamped copies the reference block whose top-left corner is
// (x0, y0) into pred, each sample edge-clamped: the decoder's prediction
// when a vector off the wire points outside its reference.
func fetchClamped(ref *frame.Frame, x0, y0 int, pred *[64]uint8) {
	for y := 0; y < blockSize; y++ {
		for x := 0; x < blockSize; x++ {
			pred[y*blockSize+x] = refSample(ref, x0+x, y0+y)
		}
	}
}

// intraSAD estimates the cost of DC-intra coding the block: Σ int(|p − pred|)
// over its pixels, the truncated float distance to the DC prediction. pred
// is a sum of at most 16 bytes over 8 or 16, or 128, so it is exact, and
// with fl = ⌊pred⌋ and ce = ⌈pred⌉ every term is the integer
// max(p−ce, 0) + max(fl−p, 0): a pixel at or past ce truncates p − pred down
// to p − ce, one at or below fl truncates pred − p down to fl − p, and when
// pred is whole both bounds are pred. intraSAD8x8 sums that form.
func intraSAD(cur, recon *frame.Frame, bx, by int) int {
	pred := dcPrediction(recon, bx, by)
	fl := int(pred) // pred >= 0, so truncation is the floor
	ce := fl
	if float64(fl) < pred {
		ce++
	}
	return intraSAD8x8(blockAt(cur, bx, by), cur.W, fl, ce)
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
				flat := flatRow(dc)
				reconstruct(blockAt(recon, bx, by), pw, flat[:], 0, &blk)
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
			// The prediction is the reference block itself when it lies
			// inside the reference, else an edge-clamped copy.
			if x0, y0 := bx+mvx, by+mvy; inside(d.ref, x0, y0) {
				reconstruct(blockAt(recon, bx, by), pw, blockAt(d.ref, x0, y0), d.ref.W, &blk)
			} else {
				fetchClamped(d.ref, x0, y0, &pred)
				reconstruct(blockAt(recon, bx, by), pw, pred[:], blockSize, &blk)
			}
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
