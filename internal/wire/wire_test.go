package wire

import (
	"bytes"
	"io"
	"testing"
)

func TestRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		{Type: MsgHello, IngestW: 192, IngestH: 108, NativeW: 384, NativeH: 216, FPS: 10},
		{Type: MsgVideo, FrameID: 7, Key: true, QP: 31, Data: []byte{1, 2, 3}},
		{Type: MsgPatch, FrameID: 7, X: 48, Y: 24, Data: make([]byte, 5000)},
		{Type: MsgStats, GainDB: 1.25, Epochs: 3, Samples: 42},
		{Type: MsgBye},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.FrameID != want.FrameID || got.GainDB != want.GainDB ||
			got.IngestW != want.IngestW || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("got %+v want %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

func TestReadTruncated(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: MsgVideo, Data: make([]byte, 100)}); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()[:buf.Len()-10]
	if _, err := ReadFrame(bytes.NewReader(data)); err == nil {
		t.Fatal("truncated frame must error")
	}
}

func TestReadOversized(t *testing.T) {
	// Header claiming a frame beyond the limit must be rejected before
	// allocation.
	hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
	if _, err := ReadFrame(bytes.NewReader(hdr)); err == nil {
		t.Fatal("oversized frame accepted")
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	msgs := []*Message{
		{Type: MsgHello, Channel: "alice", IngestW: 192, IngestH: 108, NativeW: 384, NativeH: 216, FPS: 10},
		{Type: MsgSubscribe, Channel: "alice", FrameID: 3},
		{Type: MsgPlaylist, Channel: "alice", Data: []byte("playlist-bytes")},
		{Type: MsgSegmentReq, Channel: "alice", FrameID: 9, Rung: 2},
		{Type: MsgSegment, Channel: "alice", FrameID: 9, Rung: 2, SegID: "deadbeef", SegDurUS: 1_000_000, Data: make([]byte, 2048)},
		{Type: MsgBye},
	}
	for _, m := range msgs {
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range msgs {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != want.Type || got.FrameID != want.FrameID || got.Rung != want.Rung ||
			got.SegID != want.SegID || got.SegDurUS != want.SegDurUS ||
			got.Channel != want.Channel || !bytes.Equal(got.Data, want.Data) {
			t.Fatalf("got %+v want %+v", got, want)
		}
	}
	if _, err := ReadFrame(&buf); err != io.EOF {
		t.Fatalf("expected EOF, got %v", err)
	}
}

// TestFrameUnknownVersionSkippable pins the forward-compatibility contract:
// a frame carrying a newer version byte yields *VersionError with the whole
// frame consumed, so the reader picks up the next frame cleanly.
func TestFrameUnknownVersionSkippable(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: MsgVideo, FrameID: 1, Data: []byte{1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	// Rewrite the first frame's version byte to a future version.
	raw := buf.Bytes()
	raw[4] = FrameVersion + 7
	var stream bytes.Buffer
	stream.Write(raw)
	if err := WriteFrame(&stream, &Message{Type: MsgBye, Reason: "after-unknown"}); err != nil {
		t.Fatal(err)
	}

	_, err := ReadFrame(&stream)
	ve, ok := err.(*VersionError)
	if !ok {
		t.Fatalf("want *VersionError, got %v", err)
	}
	if ve.Version != FrameVersion+7 {
		t.Fatalf("VersionError.Version = %d, want %d", ve.Version, FrameVersion+7)
	}
	m, err := ReadFrame(&stream)
	if err != nil {
		t.Fatalf("frame after unknown-version frame: %v", err)
	}
	if m.Type != MsgBye || m.Reason != "after-unknown" {
		t.Fatalf("resynchronised on wrong frame: %+v", m)
	}
}

// TestFrameUnknownTypeDecodes pins the unknown-message tolerance: a frame
// whose Type is beyond this build's constants still decodes (dispatch
// loops ignore it); it must not error the whole stream.
func TestFrameUnknownTypeDecodes(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Message{Type: MsgType(200), Channel: "x", Data: []byte{9}}); err != nil {
		t.Fatal(err)
	}
	m, err := ReadFrame(&buf)
	if err != nil {
		t.Fatalf("unknown message type must decode, got %v", err)
	}
	if m.Type != MsgType(200) || m.Channel != "x" {
		t.Fatalf("got %+v", m)
	}
}

func TestWireSizeCharges(t *testing.T) {
	small := &Message{Type: MsgSegmentReq}
	big := &Message{Type: MsgSegment, Channel: "c", SegID: "0123456789abcdef", Data: make([]byte, 4096)}
	if small.WireSize() <= 0 || big.WireSize() <= small.WireSize() {
		t.Fatalf("WireSize not monotone with content: small %d big %d", small.WireSize(), big.WireSize())
	}
	if got := big.WireSize(); got < 4096+16+1 {
		t.Fatalf("WireSize %d does not cover payload and strings", got)
	}
}
