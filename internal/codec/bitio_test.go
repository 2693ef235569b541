package codec

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitWriterReadBack(t *testing.T) {
	w := &bitWriter{}
	w.writeBit(1)
	w.writeBits(0b1011, 4)
	w.writeBits(0xDEAD, 16)
	data := w.finish()
	r := newBitReader(data)
	if b, _ := r.readBit(); b != 1 {
		t.Fatal("bit 1")
	}
	if v, _ := r.readBits(4); v != 0b1011 {
		t.Fatalf("nibble %b", v)
	}
	if v, _ := r.readBits(16); v != 0xDEAD {
		t.Fatalf("word %x", v)
	}
}

func TestBitLen(t *testing.T) {
	w := &bitWriter{}
	w.writeBits(0, 13)
	if w.bitLen() != 13 {
		t.Fatalf("bitLen=%d", w.bitLen())
	}
	w.finish()
	if len(w.buf) != 2 {
		t.Fatalf("finish padded to %d bytes", len(w.buf))
	}
}

func TestUEKnownCodes(t *testing.T) {
	// Exp-Golomb: 0 -> "1", 1 -> "010", 2 -> "011", 3 -> "00100".
	w := &bitWriter{}
	w.writeUE(0)
	w.writeUE(1)
	w.writeUE(2)
	w.writeUE(3)
	r := newBitReader(w.finish())
	for want := uint32(0); want < 4; want++ {
		got, err := r.readUE()
		if err != nil || got != want {
			t.Fatalf("readUE=%d,%v want %d", got, err, want)
		}
	}
}

func TestSERoundTrip(t *testing.T) {
	vals := []int32{0, 1, -1, 2, -2, 17, -300, 1 << 20, -(1 << 20)}
	w := &bitWriter{}
	for _, v := range vals {
		w.writeSE(v)
	}
	r := newBitReader(w.finish())
	for _, want := range vals {
		got, err := r.readSE()
		if err != nil || got != want {
			t.Fatalf("readSE=%d,%v want %d", got, err, want)
		}
	}
}

// TestSEEveryInt32Edge round-trips writeSE at the edges of int32, each
// followed by a UE sentinel so a code of the wrong length shows. Every
// value's code has the length of its mapped value u (0, 1, -1, 2, ... ->
// 0, 1, 2, 3, ...): math.MinInt32 maps to 2^32, past the uint32 range, and
// a 32-bit computation of -2v wrapped it to 0, the code of level 0.
func TestSEEveryInt32Edge(t *testing.T) {
	for _, c := range []struct {
		v int32
		u uint64
	}{
		{0, 0}, {1, 1}, {-1, 2},
		{math.MaxInt32, 1<<32 - 3}, {-math.MaxInt32, 1<<32 - 2}, {math.MinInt32, 1 << 32},
	} {
		w := &bitWriter{}
		w.writeSE(c.v)
		if got, want := w.bitLen(), 2*bits.Len64(c.u+1)-1; got != want {
			t.Errorf("writeSE(%d) wrote %d bits, want %d (u = %d)", c.v, got, want, c.u)
		}
		w.writeUE(5)
		r := newBitReader(w.finish())
		got, err := r.readSE()
		if err != nil || got != c.v {
			t.Errorf("readSE = %d, %v; want %d", got, err, c.v)
			continue
		}
		if s, err := r.readUE(); err != nil || s != 5 {
			t.Errorf("after %d: sentinel %d, %v; want 5", c.v, s, err)
		}
	}
	// The codes just past the int32 range are corrupt, not wrapped.
	for _, u := range []uint64{1<<32 - 1, 1<<32 + 1, 1<<32 + 2, 1<<33 - 2} {
		w := &bitWriter{}
		w.writeGolomb(u)
		if got, err := newBitReader(w.finish()).readSE(); err == nil {
			t.Errorf("readSE of code %d = %d; want errBitstream", u, got)
		}
	}
}

// TestUEPastUint32Corrupt: a UE code whose value exceeds uint32 is corrupt;
// readUE reports it rather than returning the value mod 2^32.
func TestUEPastUint32Corrupt(t *testing.T) {
	w := &bitWriter{}
	w.writeUE(math.MaxUint32)
	w.writeGolomb(1 << 32)
	r := newBitReader(w.finish())
	if got, err := r.readUE(); err != nil || got != math.MaxUint32 {
		t.Fatalf("readUE = %d, %v; want %d", got, err, uint32(math.MaxUint32))
	}
	if got, err := r.readUE(); err == nil {
		t.Fatalf("readUE of 2^32 = %d; want errBitstream", got)
	}
}

func TestReadPastEnd(t *testing.T) {
	r := newBitReader([]byte{0xFF})
	if _, err := r.readBits(16); err == nil {
		t.Fatal("expected error reading past end")
	}
}

func TestCorruptUE(t *testing.T) {
	// All zeros: leading-zero run never terminates within the stream.
	r := newBitReader(make([]byte, 8))
	if _, err := r.readUE(); err == nil {
		t.Fatal("expected error for unterminated UE")
	}
}

func TestQuickUERoundTrip(t *testing.T) {
	f := func(vals []uint32) bool {
		w := &bitWriter{}
		for _, v := range vals {
			w.writeUE(v % (1 << 30))
		}
		r := newBitReader(w.finish())
		for _, v := range vals {
			got, err := r.readUE()
			if err != nil || got != v%(1<<30) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickMixedRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	for trial := 0; trial < 50; trial++ {
		type op struct {
			kind int
			u    uint64
			n    uint
			s    int32
		}
		var ops []op
		w := &bitWriter{}
		for i := 0; i < 200; i++ {
			switch rng.Intn(3) {
			case 0:
				n := uint(rng.Intn(32) + 1)
				v := rng.Uint64() & (1<<n - 1)
				ops = append(ops, op{kind: 0, u: v, n: n})
				w.writeBits(v, n)
			case 1:
				v := uint32(rng.Intn(1 << 16))
				ops = append(ops, op{kind: 1, u: uint64(v)})
				w.writeUE(v)
			default:
				v := int32(rng.Intn(1<<15) - 1<<14)
				ops = append(ops, op{kind: 2, s: v})
				w.writeSE(v)
			}
		}
		r := newBitReader(w.finish())
		for i, o := range ops {
			switch o.kind {
			case 0:
				got, err := r.readBits(o.n)
				if err != nil || got != o.u {
					t.Fatalf("trial %d op %d bits: got %d err %v", trial, i, got, err)
				}
			case 1:
				got, err := r.readUE()
				if err != nil || uint64(got) != o.u {
					t.Fatalf("trial %d op %d ue: got %d err %v", trial, i, got, err)
				}
			default:
				got, err := r.readSE()
				if err != nil || got != o.s {
					t.Fatalf("trial %d op %d se: got %d err %v", trial, i, got, err)
				}
			}
		}
	}
}
