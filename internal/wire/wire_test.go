package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
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
	// Cut inside the payload, inside the fields, and right after the length:
	// a stream that ends inside a frame is never a clean EOF.
	for _, cut := range []int{buf.Len() - 10, 7, 4} {
		if _, err := ReadFrame(bytes.NewReader(buf.Bytes()[:cut])); err != io.ErrUnexpectedEOF {
			t.Fatalf("frame cut at %d: got %v, want io.ErrUnexpectedEOF", cut, err)
		}
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

// TestWireSizeMatchesFrame: the size the simulated links charge for a
// message is the size of the frame the real ones carry.
func TestWireSizeMatchesFrame(t *testing.T) {
	for _, m := range sampleMessages() {
		if got, want := m.WireSize(), len(encode(t, m)); got != want {
			t.Errorf("type %d: WireSize %d, frame %d bytes", m.Type, got, want)
		}
	}
	matches := func(q quickMessage) bool {
		return q.WireSize() == len(encode(t, &q.Message))
	}
	if err := quick.Check(matches, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Fatal(err)
	}
}

// sampleMessages is one message of each of the nine types: the layout pin
// holds their bytes, the fuzz corpus starts from them.
func sampleMessages() []*Message {
	return []*Message{
		{Type: MsgHello, IngestW: 640, IngestH: 360, NativeW: 1280, NativeH: 720, FPS: 30},
		{Type: MsgVideo, FrameID: 7, Key: true, QP: 24, Data: []byte{1, 2, 3, 4}},
		{Type: MsgPatch, FrameID: 7, X: 64, Y: -128, Data: bytes.Repeat([]byte{0xAB}, 3)},
		{Type: MsgStats, GainDB: 1.25, Epochs: 3, Samples: 150},
		{Type: MsgBye},
		{Type: MsgSubscribe, Channel: "ch000", FrameID: 4},
		{Type: MsgPlaylist, Channel: "ch000", Data: []byte{}},
		{Type: MsgSegmentReq, Channel: "ch000", FrameID: 11, Rung: 3},
		{Type: MsgSegment, Channel: "ch000", FrameID: 11, Rung: 3, SegID: "cafef00d", SegDurUS: 1_000_000, SentAtUS: -1, Data: []byte{7, 7}},
	}
}

func encode(t testing.TB, m *Message) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, m); err != nil {
		t.Fatalf("WriteFrame(%+v): %v", m, err)
	}
	return buf.Bytes()
}

// TestFrameLayoutPinned holds the v2 bytes literally. If this test has to
// change, the format changed: bump FrameVersion and say so in DESIGN.md.
func TestFrameLayoutPinned(t *testing.T) {
	if FrameVersion != 2 {
		t.Fatalf("FrameVersion = %d: re-cut the bytes below for the new layout", FrameVersion)
	}
	// [4B length][version][type][3B mask] fields...
	want := [][]byte{
		// Hello: IngestW..FPS = bits 1-5; zig-zag 640→1280 = 80 0a, …; FPS 30.0 bits.
		{0, 0, 0, 21, 2, 0, 0x00, 0x00, 0x3e, 0x80, 0x0a, 0xd0, 0x05, 0x80, 0x14, 0xa0, 0x0b, 0x40, 0x3e, 0, 0, 0, 0, 0, 0},
		// Video: FrameID(6) Key(7, no body) QP(8) Data(19).
		{0, 0, 0, 12, 2, 1, 0x08, 0x01, 0xc0, 14, 48, 4, 1, 2, 3, 4},
		// Patch: FrameID(6) X(9) Y(10) Data(19); Y = -128 → 255 = ff 01.
		{0, 0, 0, 14, 2, 2, 0x08, 0x06, 0x40, 14, 0x80, 0x01, 0xff, 0x01, 3, 0xab, 0xab, 0xab},
		// Stats: GainDB(11) Epochs(12) Samples(13); 150 → 300 = ac 02.
		{0, 0, 0, 16, 2, 3, 0x00, 0x38, 0x00, 0x3f, 0xf4, 0, 0, 0, 0, 0, 0, 6, 0xac, 0x02},
		// Bye: nothing present.
		{0, 0, 0, 5, 2, 4, 0, 0, 0},
		// Subscribe: Channel(0) FrameID(6).
		{0, 0, 0, 12, 2, 5, 0x00, 0x00, 0x41, 5, 'c', 'h', '0', '0', '0', 8},
		// Playlist: Channel(0) and an empty, non-nil Data(19).
		{0, 0, 0, 12, 2, 6, 0x08, 0x00, 0x01, 5, 'c', 'h', '0', '0', '0', 0},
		// SegmentReq: Channel(0) FrameID(6) Rung(15).
		{0, 0, 0, 13, 2, 7, 0x00, 0x80, 0x41, 5, 'c', 'h', '0', '0', '0', 22, 6},
		// Segment: Channel(0) FrameID(6) Rung(15) SegID(16) SegDurUS(17)
		// SentAtUS(18) Data(19); 1e6 → 2e6 = 80 89 7a; -1 → 1.
		{0, 0, 0, 29, 2, 8, 0x0f, 0x80, 0x41, 5, 'c', 'h', '0', '0', '0', 22, 6,
			8, 'c', 'a', 'f', 'e', 'f', '0', '0', 'd', 0x80, 0x89, 0x7a, 1, 2, 7, 7},
	}
	for i, m := range sampleMessages() {
		if got := encode(t, m); !bytes.Equal(got, want[i]) {
			t.Errorf("type %d layout changed:\n got % x\nwant % x", m.Type, got, want[i])
		}
		got, err := ReadFrame(bytes.NewReader(want[i]))
		if err != nil || !reflect.DeepEqual(got, m) {
			t.Errorf("type %d: pinned bytes decode to %+v, %v; want %+v", m.Type, got, err, m)
		}
	}
}

// TestFrameLargePayload takes the vectored-write path (Data above
// inlinePayload) through a plain io.Writer and back.
func TestFrameLargePayload(t *testing.T) {
	m := &Message{Type: MsgSegment, Channel: "c", Data: bytes.Repeat([]byte{0x5a}, inlinePayload+1)}
	frame := encode(t, m)
	if want := 4 + 5 + 2 + 2 + len(m.Data); len(frame) != want {
		t.Fatalf("frame is %d bytes, want %d", len(frame), want)
	}
	// A reader with no ReadByte that returns one byte per Read.
	got, err := ReadFrame(oneByteReader{bytes.NewReader(frame)})
	if err != nil || !reflect.DeepEqual(got, m) {
		t.Fatalf("round trip through a plain reader: %v", err)
	}
}

type oneByteReader struct{ r io.Reader }

func (o oneByteReader) Read(p []byte) (int, error) {
	if len(p) > 1 {
		p = p[:1]
	}
	return o.r.Read(p)
}

func TestWriteOversizedRefused(t *testing.T) {
	var buf bytes.Buffer
	err := WriteFrame(&buf, &Message{Type: MsgSegment, Data: make([]byte, maxMessage)})
	if err == nil || buf.Len() != 0 {
		t.Fatalf("oversized message: err %v, %d bytes written", err, buf.Len())
	}
}

// quickMessage generates Messages from the values an encoder gets wrong:
// sign and width extremes, NaN and -0, nil against empty payloads, strings
// longer than any scratch buffer.
type quickMessage struct{ Message }

func (quickMessage) Generate(r *rand.Rand, _ int) reflect.Value {
	ints := []int64{0, 0, 1, -1, 63, 64, -64, -65, 1 << 20, math.MaxInt32, math.MinInt32, math.MaxInt64, math.MinInt64}
	i64 := func() int64 {
		if r.Intn(4) == 0 {
			return int64(r.Uint64())
		}
		return ints[r.Intn(len(ints))]
	}
	floats := []float64{0, 0, math.Copysign(0, -1), 1.25, -30, math.NaN(), math.Inf(1), math.Inf(-1),
		math.SmallestNonzeroFloat64, math.MaxFloat64, math.Float64frombits(0x7ff8000000000001)}
	f64 := func() float64 { return floats[r.Intn(len(floats))] }
	str := func() string {
		switch r.Intn(6) {
		case 0:
			return strings.Repeat("s", 64<<10)
		case 1, 2:
			return ""
		}
		b := make([]byte, 1+r.Intn(40))
		r.Read(b) // arbitrary bytes: strings are not required to be UTF-8
		return string(b)
	}
	m := Message{
		Type: MsgType(r.Intn(256)), Channel: str(),
		IngestW: int(i64()), IngestH: int(i64()), NativeW: int(i64()), NativeH: int(i64()), FPS: f64(),
		FrameID: int(i64()), Key: r.Intn(2) == 0, QP: int(i64()), X: int(i64()), Y: int(i64()),
		GainDB: f64(), Epochs: int(i64()), Samples: int(i64()), Reason: str(),
		Rung: int(i64()), SegID: str(), SegDurUS: i64(), SentAtUS: i64(),
	}
	switch r.Intn(4) {
	case 0: // nil
	case 1:
		m.Data = []byte{}
	case 2:
		m.Data = make([]byte, inlinePayload+r.Intn(8<<10))
		r.Read(m.Data)
	default:
		m.Data = make([]byte, 1+r.Intn(300))
		r.Read(m.Data)
	}
	return reflect.ValueOf(quickMessage{m})
}

// sameMessage is reflect.DeepEqual with the floats compared by their bits
// (NaN payloads and the sign of zero must survive).
func sameMessage(a, b *Message) bool {
	if math.Float64bits(a.FPS) != math.Float64bits(b.FPS) || math.Float64bits(a.GainDB) != math.Float64bits(b.GainDB) {
		return false
	}
	x, y := *a, *b
	x.FPS, x.GainDB, y.FPS, y.GainDB = 0, 0, 0, 0
	return reflect.DeepEqual(x, y)
}

func TestFrameQuickRoundTrip(t *testing.T) {
	roundTrip := func(q quickMessage) bool {
		frame := encode(t, &q.Message)
		got, err := ReadFrame(bytes.NewReader(frame))
		if err != nil || !sameMessage(got, &q.Message) {
			t.Logf("decode: %v", err)
			return false
		}
		return bytes.Equal(encode(t, got), frame)
	}
	if err := quick.Check(roundTrip, &quick.Config{MaxCount: 400, Rand: rand.New(rand.NewSource(18))}); err != nil {
		t.Fatal(err)
	}
}

// v1GobFrame is a frame as the version 1 (gob body) WriteFrame wrote it,
// captured from the last commit that spoke it:
// Message{Type: MsgSegmentReq, Channel: "ch", FrameID: 11, Rung: 3}.
var v1GobFrame = []byte{
	0x00, 0x00, 0x00, 0xfc, 0x01, 0xff, 0xeb, 0x7f, 0x03, 0x01, 0x01, 0x07,
	0x4d, 0x65, 0x73, 0x73, 0x61, 0x67, 0x65, 0x01, 0xff, 0x80, 0x00, 0x01,
	0x15, 0x01, 0x04, 0x54, 0x79, 0x70, 0x65, 0x01, 0x06, 0x00, 0x01, 0x07,
	0x43, 0x68, 0x61, 0x6e, 0x6e, 0x65, 0x6c, 0x01, 0x0c, 0x00, 0x01, 0x07,
	0x49, 0x6e, 0x67, 0x65, 0x73, 0x74, 0x57, 0x01, 0x04, 0x00, 0x01, 0x07,
	0x49, 0x6e, 0x67, 0x65, 0x73, 0x74, 0x48, 0x01, 0x04, 0x00, 0x01, 0x07,
	0x4e, 0x61, 0x74, 0x69, 0x76, 0x65, 0x57, 0x01, 0x04, 0x00, 0x01, 0x07,
	0x4e, 0x61, 0x74, 0x69, 0x76, 0x65, 0x48, 0x01, 0x04, 0x00, 0x01, 0x03,
	0x46, 0x50, 0x53, 0x01, 0x08, 0x00, 0x01, 0x07, 0x46, 0x72, 0x61, 0x6d,
	0x65, 0x49, 0x44, 0x01, 0x04, 0x00, 0x01, 0x03, 0x4b, 0x65, 0x79, 0x01,
	0x02, 0x00, 0x01, 0x02, 0x51, 0x50, 0x01, 0x04, 0x00, 0x01, 0x01, 0x58,
	0x01, 0x04, 0x00, 0x01, 0x01, 0x59, 0x01, 0x04, 0x00, 0x01, 0x06, 0x47,
	0x61, 0x69, 0x6e, 0x44, 0x42, 0x01, 0x08, 0x00, 0x01, 0x06, 0x45, 0x70,
	0x6f, 0x63, 0x68, 0x73, 0x01, 0x04, 0x00, 0x01, 0x07, 0x53, 0x61, 0x6d,
	0x70, 0x6c, 0x65, 0x73, 0x01, 0x04, 0x00, 0x01, 0x06, 0x52, 0x65, 0x61,
	0x73, 0x6f, 0x6e, 0x01, 0x0c, 0x00, 0x01, 0x04, 0x52, 0x75, 0x6e, 0x67,
	0x01, 0x04, 0x00, 0x01, 0x05, 0x53, 0x65, 0x67, 0x49, 0x44, 0x01, 0x0c,
	0x00, 0x01, 0x08, 0x53, 0x65, 0x67, 0x44, 0x75, 0x72, 0x55, 0x53, 0x01,
	0x04, 0x00, 0x01, 0x08, 0x53, 0x65, 0x6e, 0x74, 0x41, 0x74, 0x55, 0x53,
	0x01, 0x04, 0x00, 0x01, 0x04, 0x44, 0x61, 0x74, 0x61, 0x01, 0x0a, 0x00,
	0x00, 0x00, 0x0d, 0xff, 0x80, 0x01, 0x07, 0x01, 0x02, 0x63, 0x68, 0x06,
	0x16, 0x09, 0x06, 0x00,
}

// TestFrameV1GobSkipped: an old peer's gob frame is skipped whole, exactly
// like a newer peer's, and the v2 frame behind it decodes.
func TestFrameV1GobSkipped(t *testing.T) {
	next := &Message{Type: MsgBye, Reason: "after-v1"}
	stream := bytes.NewReader(append(append([]byte{}, v1GobFrame...), encode(t, next)...))
	_, err := ReadFrame(stream)
	var ve *VersionError
	if !errors.As(err, &ve) || ve.Version != 1 {
		t.Fatalf("v1 frame: got %v, want *VersionError{1}", err)
	}
	if m, err := ReadFrame(stream); err != nil || !reflect.DeepEqual(m, next) {
		t.Fatalf("frame after the v1 frame: %+v, %v", m, err)
	}
}

type zeroReader struct{}

func (zeroReader) Read(p []byte) (int, error) {
	clear(p)
	return len(p), nil
}

// TestFrameUnknownVersionSkipDoesNotAllocate: five bytes from a peer may
// claim a 16 MB frame of a version this build skips. Skipping reads it away;
// it must not buy the peer 16 MB of this process's memory.
func TestFrameUnknownVersionSkipDoesNotAllocate(t *testing.T) {
	claim := []byte{0, 0, 0, 0, FrameVersion + 1}
	binary.BigEndian.PutUint32(claim, maxMessage)
	next := &Message{Type: MsgBye, Reason: "after-16MB"}
	stream := io.MultiReader(bytes.NewReader(claim), io.LimitReader(zeroReader{}, maxMessage-1), bytes.NewReader(encode(t, next)))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(stream)
	runtime.ReadMemStats(&after)
	var ve *VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("got %v, want *VersionError", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Fatalf("skipping a 16 MB claim allocated %d bytes", grew)
	}
	if m, err := ReadFrame(stream); err != nil || !reflect.DeepEqual(m, next) {
		t.Fatalf("frame after the skipped one: %+v, %v", m, err)
	}

	truncated := io.MultiReader(bytes.NewReader(claim), io.LimitReader(zeroReader{}, 10))
	if _, err := ReadFrame(truncated); err != io.ErrUnexpectedEOF {
		t.Fatalf("truncated unknown-version frame: got %v, want io.ErrUnexpectedEOF", err)
	}
}

type badFrame struct {
	name  string
	frame []byte
}

// nonCanonical lists frames that decode to a sensible Message under a lax
// reader and must be refused by this one.
func nonCanonical() []badFrame {
	return []badFrame{
		{"zero int marked present", []byte{0, 0, 0, 6, 2, 4, 0, 0, 0x40, 0}},
		{"zero float marked present", []byte{0, 0, 0, 13, 2, 4, 0, 0, 0x20, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"empty string marked present", []byte{0, 0, 0, 6, 2, 4, 0, 0, 0x01, 0}},
		{"unknown mask bit", []byte{0, 0, 0, 5, 2, 4, 0x10, 0, 0}},
		{"padded uvarint", []byte{0, 0, 0, 7, 2, 4, 0, 0, 0x40, 0x81, 0x00}},
		{"uvarint over 64 bits", []byte{0, 0, 0, 15, 2, 4, 0, 0, 0x40, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02}},
		{"short payload", []byte{0, 0, 0, 9, 2, 1, 0x08, 0, 0, 2, 1, 2, 3}},
		{"long payload", []byte{0, 0, 0, 8, 2, 1, 0x08, 0, 0, 3, 1, 2}},
		{"string overruns the frame", []byte{0, 0, 0, 8, 2, 4, 0, 0, 0x01, 9, 'a', 'b'}},
		{"trailing bytes, no payload", []byte{0, 0, 0, 6, 2, 4, 0, 0, 0, 0xee}},
		{"header cut short", []byte{0, 0, 0, 3, 2, 4, 0}},
	}
}

// TestFrameNonCanonicalRejected: each is an error, and each leaves the
// stream on the next frame boundary.
func TestFrameNonCanonicalRejected(t *testing.T) {
	next := &Message{Type: MsgBye, Reason: "still framed"}
	for _, nc := range nonCanonical() {
		name := nc.name
		stream := bytes.NewReader(append(append([]byte{}, nc.frame...), encode(t, next)...))
		m, err := ReadFrame(stream)
		var ve *VersionError
		if err == nil || m != nil || errors.As(err, &ve) || err == io.ErrUnexpectedEOF {
			t.Errorf("%s: got %+v, %v; want a decode error", name, m, err)
			continue
		}
		if m, err := ReadFrame(stream); err != nil || !reflect.DeepEqual(m, next) {
			t.Errorf("%s: stream lost framing: %+v, %v", name, m, err)
		}
	}
}

// TestFrameAllocCeilings pins what the relay pays per small message: the
// writer only what the destination buffer needs, the reader the Message,
// its two strings and its payload.
func TestFrameAllocCeilings(t *testing.T) {
	m := &Message{Type: MsgSegment, Channel: "small", FrameID: 1, Rung: 1, SegID: "0123456789abcdef",
		SegDurUS: 1e6, SentAtUS: 1, Data: make([]byte, 256)}
	var buf bytes.Buffer
	if n := testing.AllocsPerRun(200, func() {
		buf.Reset()
		if err := WriteFrame(&buf, m); err != nil {
			t.Fatal(err)
		}
	}); n > 1 {
		t.Errorf("WriteFrame of a 256-byte segment: %v allocs, want <= 1", n)
	}
	frame := append([]byte{}, buf.Bytes()...)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := ReadFrame(bytes.NewReader(frame)); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("ReadFrame of a 256-byte segment: %v allocs, want <= 6", n)
	}
	if over := len(frame) - len(m.Data); over > 48 {
		t.Errorf("framing overhead %d bytes on a segment message, want <= 48", over)
	}
}
