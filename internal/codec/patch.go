package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"livenas/internal/frame"
)

// Patch compression (§5.2 "Patch encoding and transmission"): LiveNAS sends
// high-quality training labels as JPEG-compressed crops at quality 95, ~1/10
// the raw size with <0.1 dB training impact. We implement the equivalent:
// standalone intra coding of the patch at a quality-mapped QP, with a small
// header carrying the dimensions.

// PatchQuality is the paper's default JPEG quality level for patches.
const PatchQuality = 95

// qualityToQP maps a JPEG-style quality level (1..100, higher = better) to
// our QP scale. Quality 95 lands near-transparent; quality 50 mid-range.
func qualityToQP(quality int) int {
	if quality < 1 {
		quality = 1
	}
	if quality > 100 {
		quality = 100
	}
	qp := (100 - quality) * MaxQP / 100
	return min(MaxQP, max(MinQP, qp))
}

// maxPatchSide is the largest patch side a payload may declare.
const maxPatchSide = 1 << 14

// EncodePatch compresses a raw patch at the given quality level (1..100).
// The payload is self-contained and decodable with DecodePatch. It panics
// on a side outside 1..maxPatchSide, which the 16-bit header could not carry
// or PatchDims would refuse.
func EncodePatch(p *frame.Frame, quality int) []byte {
	if p.W > maxPatchSide || p.H > maxPatchSide {
		panic(fmt.Sprintf("codec: patch %dx%d exceeds %d on a side", p.W, p.H, maxPatchSide))
	}
	qp := qualityToQP(quality)
	enc := NewEncoder(Config{Profile: BX9, W: p.W, H: p.H})
	enc.qp = qp
	data := enc.encodeOnce(enc.pad(p), true, qp)
	hdr := make([]byte, 4)
	binary.BigEndian.PutUint16(hdr[0:2], uint16(p.W))
	binary.BigEndian.PutUint16(hdr[2:4], uint16(p.H))
	return append(hdr, data...)
}

// errPatch reports a malformed patch payload.
var errPatch = errors.New("codec: malformed patch payload")

// PatchDims returns the size a patch payload declares without decoding it,
// so a receiver can hold the size to its own geometry before DecodePatch
// allocates a decoder of that size.
func PatchDims(data []byte) (w, h int, err error) {
	if len(data) < 5 {
		return 0, 0, errPatch
	}
	w = int(binary.BigEndian.Uint16(data[0:2]))
	h = int(binary.BigEndian.Uint16(data[2:4]))
	if w == 0 || h == 0 || w > maxPatchSide || h > maxPatchSide {
		return 0, 0, errPatch
	}
	return w, h, nil
}

// DecodePatch reconstructs a patch produced by EncodePatch.
func DecodePatch(data []byte) (*frame.Frame, error) {
	w, h, err := PatchDims(data)
	if err != nil {
		return nil, err
	}
	dec := NewDecoder(Config{Profile: BX9, W: w, H: h})
	return dec.Decode(&EncodedFrame{Data: data[4:], Key: true})
}
