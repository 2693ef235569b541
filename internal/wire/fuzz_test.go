package wire

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"
)

// fuzzSeeds returns encoded messages covering every message type, used
// both whole and truncated as the seed corpus: each as a valid frame and as
// the near-miss a pre-versioning peer would send (bare length prefix, no
// version byte).
func fuzzSeeds(t interface{ Fatalf(string, ...interface{}) }) [][]byte {
	msgs := []*Message{
		{Type: MsgHello, IngestW: 640, IngestH: 360, NativeW: 1280, NativeH: 720, FPS: 30},
		{Type: MsgVideo, FrameID: 7, Key: true, QP: 24, Data: []byte{1, 2, 3, 4}},
		{Type: MsgPatch, FrameID: 7, X: 64, Y: 128, Data: bytes.Repeat([]byte{0xAB}, 33)},
		{Type: MsgStats, GainDB: 1.25, Epochs: 3, Samples: 150},
		{Type: MsgBye},
		{Type: MsgSubscribe, Channel: "ch000", FrameID: 4},
		{Type: MsgPlaylist, Channel: "ch000", Data: bytes.Repeat([]byte{0x31}, 40)},
		{Type: MsgSegmentReq, Channel: "ch000", FrameID: 11, Rung: 3},
		{Type: MsgSegment, Channel: "ch000", FrameID: 11, Rung: 3, SegID: "cafef00d", SegDurUS: 1_000_000, Data: bytes.Repeat([]byte{0x7}, 64)},
	}
	var seeds [][]byte
	for _, m := range msgs {
		var fbuf bytes.Buffer
		if err := WriteFrame(&fbuf, m); err != nil {
			t.Fatalf("seed frame encode: %v", err)
		}
		frame := fbuf.Bytes()
		unversioned := binary.BigEndian.AppendUint32(nil, uint32(len(frame)-5))
		seeds = append(seeds, append(unversioned, frame[5:]...), frame)
	}
	return seeds
}

// FuzzWireRead feeds arbitrary bytes to ReadFrame. It must return an error
// or a message — never panic — and any message it accepts must survive a
// round trip through WriteFrame unchanged. A *VersionError carries no
// message by design, so the round-trip check skips it.
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

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			if _, ok := err.(*VersionError); ok && m != nil {
				t.Fatalf("VersionError must not carry a message")
			}
			return
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatalf("re-encode accepted message: %v", err)
		}
		m2, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode own encoding: %v", err)
		}
		// gob does not distinguish nil from empty slices; normalise before
		// comparing.
		if len(m.Data) == 0 {
			m.Data = nil
		}
		if len(m2.Data) == 0 {
			m2.Data = nil
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", m2, m)
		}
	})
}
