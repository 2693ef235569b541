// Package wire defines the length-prefixed gob protocol the real-network
// paths run over: the ingest demo (cmd/livenas-server and
// cmd/livenas-client) carrying encoded video frames and high-quality
// training patches, and the distribution edge (cmd/livenas-edge) carrying
// playlists and enhanced-output segments.
//
// There is one framing (WriteFrame/ReadFrame): a 4-byte big-endian length,
// one version byte, then the gob body. The version byte lets the protocol
// evolve: a reader that meets a frame with a newer version consumes the
// whole frame and reports a *VersionError, leaving the stream positioned
// at the next frame — peers skip what they do not understand instead of
// desynchronising. Unknown message *types* are tolerated one level up:
// decode succeeds (the Type field is just a number) and dispatch loops
// ignore types they do not know.
package wire

import (
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"
)

// MsgType tags a protocol message.
type MsgType uint8

const (
	// MsgHello opens a session and carries the stream geometry.
	MsgHello MsgType = iota
	// MsgVideo carries one encoded video frame.
	MsgVideo
	// MsgPatch carries one compressed high-quality training patch.
	MsgPatch
	// MsgStats is the server's periodic quality feedback.
	MsgStats
	// MsgBye closes the session.
	MsgBye

	// Edge (distribution) messages.

	// MsgSubscribe asks an origin or relay for a channel's playlist stream.
	// FrameID carries the resume index: the subscriber already holds every
	// segment below it (0 = from the live window's start).
	MsgSubscribe
	// MsgPlaylist pushes a channel's rolling playlist (Data = encoded
	// Playlist; see internal/edge).
	MsgPlaylist
	// MsgSegmentReq asks for one segment: FrameID is the segment index and
	// Rung the ladder rung wanted.
	MsgSegmentReq
	// MsgSegment carries one enhanced-output segment: FrameID/Rung identify
	// it, SegID is its content address, SegDurUS its duration in
	// microseconds of virtual time, Data its payload.
	MsgSegment
)

// Message is the single on-wire unit.
type Message struct {
	Type MsgType

	// Hello fields. Channel is the streamer's channel key (the RTMP
	// stream-key analogue): the multi-tenant server admits or refuses the
	// session under it, and a MsgBye carrying Reason echoes it back.
	Channel          string
	IngestW, IngestH int
	NativeW, NativeH int
	FPS              float64

	// Video fields.
	FrameID int
	Key     bool
	QP      int

	// Patch fields (X, Y in native coordinates).
	X, Y int

	// Stats fields.
	GainDB  float64
	Epochs  int
	Samples int

	// Bye field: why the server is closing the session (empty on a normal
	// client-initiated goodbye; e.g. an admission-refusal note when the
	// GPU pool is saturated).
	Reason string

	// Edge fields. FrameID doubles as the segment index on
	// MsgSubscribe/MsgSegmentReq/MsgSegment.
	Rung     int    // ladder rung index
	SegID    string // content-addressed segment id
	SegDurUS int64  // segment duration, microseconds of virtual time
	SentAtUS int64  // sender's clock at send, microseconds; meaningful for
	// per-hop latency only where sender and receiver share a clock (the
	// simulator, or same-host demos)

	// Payload: encoded frame, patch, segment or playlist bytes.
	Data []byte
}

// WireSize is the byte-size model the simulated transport charges for a
// message: the payload plus a fixed framing/field overhead and the
// variable-length strings. It deliberately avoids a real gob encode — the
// simulator sends the same *Message to hundreds of viewers and only the
// deterministic size matters there, not the exact gob framing.
func (m *Message) WireSize() int {
	// A Message belongs to one sender or receiver at a time; edge actors
	// lock their own registries, not the wire type.
	return 64 + len(m.Channel) + len(m.Reason) + len(m.SegID) + len(m.Data)
}

// maxMessage bounds a message to keep a malformed peer from exhausting
// memory.
const maxMessage = 16 << 20

// FrameVersion is the current versioned-framing protocol version. Bump it
// when the framing itself (not the gob body — gob already ignores fields
// the receiving type lacks) changes incompatibly.
const FrameVersion = 1

// VersionError reports a frame written with a framing version this build
// does not speak. The frame has been fully consumed when it is returned:
// the caller may skip it and keep reading the stream.
type VersionError struct{ Version uint8 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: unsupported frame version %d (have %d)", e.Version, FrameVersion)
}

// WriteFrame sends one message in the versioned framing: a 4-byte
// big-endian length covering everything after it, one version byte, then
// the gob body.
func WriteFrame(w io.Writer, m *Message) error {
	var buf lengthBuffer
	buf.b = append(buf.b, 0, 0, 0, 0, FrameVersion)
	if err := gob.NewEncoder(&buf).Encode(m); err != nil {
		return fmt.Errorf("wire: encode: %w", err)
	}
	binary.BigEndian.PutUint32(buf.b[:4], uint32(len(buf.b)-4))
	_, err := w.Write(buf.b)
	return err
}

// ReadFrame receives one versioned frame. A frame with an unknown version
// byte is consumed whole and reported as *VersionError so the caller can
// tolerate newer peers by skipping to the next frame. Malformed input from
// the peer yields an error, never a panic: the decode step runs under
// recover because gob is not hardened against adversarial bytes.
func ReadFrame(r io.Reader) (*Message, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 {
		return nil, fmt.Errorf("wire: empty frame")
	}
	if n > maxMessage {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	body := make([]byte, n)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	if body[0] != FrameVersion {
		return nil, &VersionError{Version: body[0]}
	}
	return decodeBody(body[1:])
}

// decodeBody gob-decodes one message body under recover (gob is not
// hardened against adversarial bytes; a panic must surface as an error).
func decodeBody(body []byte) (m *Message, err error) {
	defer func() {
		if p := recover(); p != nil {
			m, err = nil, fmt.Errorf("wire: decode: panic: %v", p)
		}
	}()
	var msg Message
	if err := gob.NewDecoder(&byteReader{b: body}).Decode(&msg); err != nil {
		return nil, fmt.Errorf("wire: decode: %w", err)
	}
	return &msg, nil
}

type lengthBuffer struct{ b []byte }

func (l *lengthBuffer) Write(p []byte) (int, error) {
	l.b = append(l.b, p...)
	return len(p), nil
}

type byteReader struct {
	b   []byte
	pos int
}

func (r *byteReader) Read(p []byte) (int, error) {
	if r.pos >= len(r.b) {
		return 0, io.EOF
	}
	n := copy(p, r.b[r.pos:])
	r.pos += n
	return n, nil
}
