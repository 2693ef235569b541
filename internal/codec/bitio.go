// Package codec implements the block-transform video codec that stands in
// for VP8/VP9 in this reproduction (profiles BX8 and BX9, see DESIGN.md).
//
// It is a real codec, not a model: frames are transformed (8x8 DCT),
// quantised, entropy-coded into a decodable bitstream (zig-zag run/level
// coding with exponential-Golomb codes), and reconstructed through the same
// loop the encoder uses for motion-compensated prediction. Rate control
// adapts the quantisation parameter to a target bitrate, which yields the
// concave bitrate-to-quality curves LiveNAS's quality-optimizing scheduler
// relies on (§5.1, Figure 6).
package codec

import (
	"errors"
	"math"
	"math/bits"
)

// bitWriter accumulates a most-significant-bit-first bitstream.
type bitWriter struct {
	buf  []byte
	acc  uint64
	nAcc uint
}

func (w *bitWriter) writeBits(v uint64, n uint) {
	if n == 0 {
		return
	}
	w.acc = w.acc<<n | (v & (1<<n - 1))
	w.nAcc += n
	for w.nAcc >= 8 {
		w.nAcc -= 8
		w.buf = append(w.buf, byte(w.acc>>w.nAcc))
	}
}

func (w *bitWriter) writeBit(b uint64) { w.writeBits(b, 1) }

// writeUE writes an unsigned exponential-Golomb code.
func (w *bitWriter) writeUE(v uint32) { w.writeGolomb(uint64(v)) }

// writeGolomb writes the exponential-Golomb code of u < 2^33-1: u+1 in
// binary after one leading zero per bit below its top one.
func (w *bitWriter) writeGolomb(u uint64) {
	x := u + 1
	n := uint(bits.Len64(x))
	w.writeBits(0, n-1) // n-1 leading zeros
	w.writeBits(x, n)
}

// writeSE writes a signed exponential-Golomb code (0, 1, -1, 2, -2, ...).
// The mapped code is computed in 64 bits: math.MinInt32 maps to 2^32, one
// past the uint32 range, and readSE reads it back.
func (w *bitWriter) writeSE(v int32) {
	u := uint64(-2 * int64(v))
	if v > 0 {
		u = uint64(2*int64(v) - 1)
	}
	w.writeGolomb(u)
}

// finish flushes any partial byte and returns the stream.
func (w *bitWriter) finish() []byte {
	if w.nAcc > 0 {
		w.buf = append(w.buf, byte(w.acc<<(8-w.nAcc)))
		w.nAcc = 0
		w.acc = 0
	}
	return w.buf
}

// errBitstream reports a truncated or corrupt bitstream.
var errBitstream = errors.New("codec: corrupt bitstream")

// bitReader consumes a bitstream produced by bitWriter.
type bitReader struct {
	buf []byte
	pos int // next byte
	acc uint64
	n   uint
}

func newBitReader(b []byte) *bitReader { return &bitReader{buf: b} }

func (r *bitReader) readBits(n uint) (uint64, error) {
	// The accumulator refills in whole bytes, so it can hold at most
	// n+7 <= 63 bits during a read; larger requests would silently drop
	// high bits. No codec symbol is wider than 33 bits (readGolomb).
	if n > 56 {
		return 0, errBitstream
	}
	for r.n < n {
		if r.pos >= len(r.buf) {
			return 0, errBitstream
		}
		r.acc = r.acc<<8 | uint64(r.buf[r.pos])
		r.pos++
		r.n += 8
	}
	r.n -= n
	v := (r.acc >> r.n) & (1<<n - 1)
	return v, nil
}

func (r *bitReader) readBit() (uint64, error) { return r.readBits(1) }

func (r *bitReader) readUE() (uint32, error) {
	u, err := r.readGolomb()
	if err != nil {
		return 0, err
	}
	if u > math.MaxUint32 {
		return 0, errBitstream
	}
	return uint32(u), nil
}

// readGolomb reads an exponential-Golomb code of at most 32 leading zeros,
// so a value below 2^33-1.
func (r *bitReader) readGolomb() (uint64, error) {
	var zeros uint
	for {
		b, err := r.readBit()
		if err != nil {
			return 0, err
		}
		if b == 1 {
			break
		}
		zeros++
		if zeros > 32 {
			return 0, errBitstream
		}
	}
	rest, err := r.readBits(zeros)
	if err != nil {
		return 0, err
	}
	return (1<<zeros | rest) - 1, nil
}

// readSE reads writeSE's code; one that maps outside int32 is corrupt.
func (r *bitReader) readSE() (int32, error) {
	u, err := r.readGolomb()
	if err != nil {
		return 0, err
	}
	if u%2 == 1 {
		if u/2 >= math.MaxInt32 {
			return 0, errBitstream
		}
		return int32(u/2) + 1, nil
	}
	if u/2 > -math.MinInt32 {
		return 0, errBitstream
	}
	return int32(-int64(u / 2)), nil
}
