package codec

import (
	"bytes"
	"testing"

	"livenas/internal/frame"
)

// FuzzBitReader exercises the entropy-coding layer both ways. Phase 1
// interprets the fuzz input as a script of write operations, encodes them
// with bitWriter, and requires the bitReader to return every value exactly.
// Phase 2 points a reader at the raw fuzz bytes and drains it with the same
// op script: every read must return a value or errBitstream — never panic,
// never loop forever.
func FuzzBitReader(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x10, 0x20, 0x40, 0x80})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(bytes.Repeat([]byte{0x00}, 16)) // long zero runs stress readUE
	{
		// A genuine stream: values 0..7 as UE then as SE.
		var w bitWriter
		for i := 0; i < 8; i++ {
			w.writeUE(uint32(i))
			w.writeSE(int32(i - 4))
		}
		f.Add(w.finish())
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Phase 1: write/read round trip driven by the input script. Each
		// input byte picks an op and a value; values are widened with the
		// byte's position so multi-byte symbols appear too.
		type op struct {
			kind int // 0 = raw bits, 1 = UE, 2 = SE
			v    uint64
			n    uint
		}
		var script []op
		for i, b := range data {
			o := op{kind: int(b % 3)}
			raw := uint64(b)<<24 | uint64(i*2654435761)&0xFFFFFF
			switch o.kind {
			case 0:
				o.n = uint(b%32) + 1
				o.v = raw & (1<<o.n - 1)
			case 1:
				o.v = raw & 0x7FFFFFFF
			case 2:
				o.v = raw & 0xFFFF // keeps 2*v within int32
			}
			script = append(script, o)
		}

		var w bitWriter
		for _, o := range script {
			switch o.kind {
			case 0:
				w.writeBits(o.v, o.n)
			case 1:
				w.writeUE(uint32(o.v))
			case 2:
				w.writeSE(int32(o.v) - 0x8000)
			}
		}
		r := newBitReader(w.finish())
		for i, o := range script {
			switch o.kind {
			case 0:
				got, err := r.readBits(o.n)
				if err != nil {
					t.Fatalf("op %d: readBits(%d): %v", i, o.n, err)
				}
				if got != o.v {
					t.Fatalf("op %d: readBits(%d) = %d, want %d", i, o.n, got, o.v)
				}
			case 1:
				got, err := r.readUE()
				if err != nil {
					t.Fatalf("op %d: readUE: %v", i, err)
				}
				if got != uint32(o.v) {
					t.Fatalf("op %d: readUE = %d, want %d", i, got, o.v)
				}
			case 2:
				want := int32(o.v) - 0x8000
				got, err := r.readSE()
				if err != nil {
					t.Fatalf("op %d: readSE: %v", i, err)
				}
				if got != want {
					t.Fatalf("op %d: readSE = %d, want %d", i, got, want)
				}
			}
		}

		// Phase 2: the raw fuzz bytes as an adversarial bitstream. Reads
		// must fail cleanly on corrupt input; stop at the first error.
		r = newBitReader(data)
		for _, o := range script {
			var err error
			switch o.kind {
			case 0:
				_, err = r.readBits(o.n)
			case 1:
				_, err = r.readUE()
			case 2:
				_, err = r.readSE()
			}
			if err != nil {
				break
			}
		}
	})
}

// fuzzDims are the streams FuzzDecode decodes into: a block-aligned frame
// and one that pads (20x12 -> 24x16), so clamped reference rows are hit.
var fuzzDims = [][2]int{{32, 24}, {20, 12}}

// fuzzConfig picks the stream configuration from the fuzzer's mode byte.
func fuzzConfig(mode uint8) Config {
	d := fuzzDims[mode>>2&1]
	cfg := Config{W: d[0], H: d[1], Deblock: mode&2 != 0}
	if mode&1 != 0 {
		cfg.Profile = BX9
	}
	return cfg
}

// fuzzClip returns a real key frame and the inter frame that follows it.
func fuzzClip(cfg Config) (key, inter *EncodedFrame) {
	enc := NewEncoder(cfg)
	a, b := frame.New(cfg.W, cfg.H), frame.New(cfg.W, cfg.H)
	for i := range a.Pix {
		a.Pix[i] = uint8(i*7 + i/cfg.W*13)
		b.Pix[i] = uint8((i+2)*7 + i/cfg.W*13) // the same texture, shifted
	}
	return enc.Encode(a, 6000), enc.Encode(b, 3000)
}

// FuzzDecode feeds arbitrary bytes to the decoder and to the per-pixel oracle
// decoder (ref_test.go), both primed with the same real key frame: they must
// produce the same frame or both fail, and a failed frame must leave the
// reference intact. The decoder's row-slice reference fetch is the one place
// that indexes a frame with a wire-supplied offset and no clamp, so a wrong
// inside() test shows up here as an out-of-range panic.
func FuzzDecode(f *testing.F) {
	// One real clip per configuration, encoded once: seeds, and the frames
	// every execution decodes around its input.
	var keys, inters [8]*EncodedFrame
	for mode := range keys {
		keys[mode], inters[mode] = fuzzClip(fuzzConfig(uint8(mode)))
		f.Add(keys[mode].Data, uint8(mode))
		f.Add(inters[mode].Data, uint8(mode))
	}
	// Hand-built inter frames: every wire QP above MaxQP (the encoder never
	// emits them, the 6-bit field can), and motion vectors of ±2^30 that
	// accumulate along a block row.
	for qp := MaxQP + 1; qp < wireQPs; qp++ {
		var w bitWriter
		w.writeBit(0) // inter frame
		w.writeBits(uint64(qp), 6)
		for blk := 0; blk < 12; blk++ {
			w.writeBit(uint64(blk) % 2) // alternate inter / intra blocks
			if blk%2 == 0 {
				w.writeSE(int32(1<<30) * int32(1-blk%4)) // +2^30, then -2^30
				w.writeSE(int32(-1<<30) + int32(blk))
			}
			w.writeUE(2) // two coefficients: DC and one after a run
			w.writeUE(0)
			w.writeSE(int32(qp - 57))
			w.writeUE(uint32(blk))
			w.writeSE(-3)
		}
		f.Add(w.finish(), uint8(qp))
	}

	f.Fuzz(func(t *testing.T, data []byte, mode uint8) {
		cfg := fuzzConfig(mode)
		key, inter := keys[mode&7], inters[mode&7]
		dec, ref := NewDecoder(cfg), &refDecoder{cfg: cfg}
		check := func(what string, ef *EncodedFrame) {
			got, err := dec.Decode(ef)
			want, refErr := ref.Decode(ef)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("%s: decoder error %v, oracle error %v", what, err, refErr)
			}
			if err == nil && !bytes.Equal(got.Pix, want.Pix) {
				t.Fatalf("%s: decoded frame differs from oracle", what)
			}
		}
		check("key frame", key)
		check("fuzz input", &EncodedFrame{Data: data})
		// Whatever the input did, both references must still agree.
		check("following inter frame", inter)
	})
}
