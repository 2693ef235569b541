package wire

import (
	"bytes"
	"encoding/binary"
	"testing"
)

// fuzzSeeds returns encoded messages covering every message type, used
// both whole and truncated as the seed corpus: each as a valid frame and as
// the near-miss a pre-versioning peer would send (bare length prefix, no
// version byte).
func fuzzSeeds(t testing.TB) [][]byte {
	var seeds [][]byte
	for _, m := range sampleMessages() {
		frame := encode(t, m)
		unversioned := binary.BigEndian.AppendUint32(nil, uint32(len(frame)-5))
		seeds = append(seeds, append(unversioned, frame[5:]...), frame)
	}
	return seeds
}

// FuzzWireRead feeds arbitrary bytes to ReadFrame. It must return an error
// or a message — never panic — and because the encoding is canonical, any
// frame it accepts must re-encode to exactly the bytes it was decoded from.
// A *VersionError carries no message by design.
func FuzzWireRead(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
		if len(s) > 5 {
			f.Add(s[:5])           // truncated header/body boundary
			f.Add(s[:len(s)-1])    // truncated body
			f.Add(append(s, s...)) // trailing garbage after a valid message
		}
	}
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF}) // length prefix over maxMessage
	f.Add([]byte{0, 0, 0, 1, 0xFE})       // framed: unknown version, empty body
	f.Add(v1GobFrame)
	for _, nc := range nonCanonical() {
		f.Add(nc.frame)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if m != nil {
				t.Fatalf("error %v came with a message", err)
			}
			return
		}
		frame := data[:4+binary.BigEndian.Uint32(data)]
		if again := encode(t, m); !bytes.Equal(again, frame) {
			t.Fatalf("accepted frame is not canonical:\n read % x\nwrote % x", frame, again)
		}
	})
}
