// Package wire defines the length-prefixed binary protocol the
// real-network paths run over: the ingest demo (cmd/livenas-server and
// cmd/livenas-client) carrying encoded video frames and high-quality
// training patches, and the distribution edge (cmd/livenas-edge) carrying
// playlists and enhanced-output segments.
//
// There is one framing (WriteFrame/ReadFrame) and one hand-laid body for
// the fixed Message struct:
//
//	[4B big-endian length of everything after it]
//	[1B FrameVersion][1B Type][3B big-endian field-presence mask]
//	the present fields, in mask-bit order with Data last
//
// Mask bit i (fieldChannel … fieldSuspended) says field i is non-zero and
// follows; absent fields are zero and cost nothing. Bits 0-19 follow the
// declaration order; the epoch feedback added since (PrevGainDB, PatchKbps,
// Suspended) has bits 20-22, so no earlier message changed its bytes. Ints
// are zig-zag uvarints, floats 8 big-endian bytes of their IEEE bits,
// strings and Data a uvarint length then the bytes, Key and Suspended their
// mask bits alone. Data comes last and must end the frame exactly, so a
// writer hands a large payload to the socket without copying it (writev)
// and a reader reads it straight into the slice it returns.
//
// The encoding is canonical — one byte sequence per Message. A reader
// rejects a present field holding its zero value, a mask bit it does not
// know, a non-minimal uvarint, a field that overruns the frame and bytes
// left over after the last field; whatever it rejects it also discards to
// the frame's end, so the stream stays framed.
//
// The version byte lets the protocol evolve: a reader that meets a frame
// with another version (a newer peer, or a v1 gob frame from an older one)
// discards the whole frame and reports a *VersionError, leaving the stream
// positioned at the next frame — peers skip what they do not understand
// instead of desynchronising. Unknown message *types* are tolerated one
// level up: decode succeeds (the Type field is just a number) and dispatch
// loops ignore types they do not know.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"sync"
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

	// Stats fields: the server's epoch feedback (core.Feedback).
	GainDB     float64
	Epochs     int
	Samples    int
	PrevGainDB float64
	PatchKbps  float64
	Suspended  bool

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

// WireSize is exactly the number of bytes WriteFrame puts on the socket for
// m, length prefix included: what the simulated transport charges a link for
// a message and what the edge actors count as egress.
func (m *Message) WireSize() int {
	var scratch [128]byte // on the stack unless a string outgrows it
	e := frameWriter{b: scratch[:0]}.header(m)
	return len(e.b) + len(m.Data)
}

// maxMessage bounds a message to keep a malformed peer from exhausting
// memory.
const maxMessage = 16 << 20

// FrameVersion is the current framing-and-body protocol version. Bump it
// whenever the bytes WriteFrame produces for some Message change:
// TestFrameLayoutPinned holds them literally. Version 1 was a gob body.
const FrameVersion = 2

// VersionError reports a frame written with a framing version this build
// does not speak. The frame has been fully consumed when it is returned:
// the caller may skip it and keep reading the stream.
type VersionError struct{ Version uint8 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("wire: unsupported frame version %d (have %d)", e.Version, FrameVersion)
}

// Presence-mask bit of each Message field after Type, in declaration order.
const (
	fieldChannel = iota
	fieldIngestW
	fieldIngestH
	fieldNativeW
	fieldNativeH
	fieldFPS
	fieldFrameID
	fieldKey
	fieldQP
	fieldX
	fieldY
	fieldGainDB
	fieldEpochs
	fieldSamples
	fieldReason
	fieldRung
	fieldSegID
	fieldSegDurUS
	fieldSentAtUS
	fieldData
	fieldPrevGainDB
	fieldPatchKbps
	fieldSuspended
	numFields
)

// inlinePayload is the largest Data WriteFrame copies behind the header to
// send the frame in one Write; anything larger goes out uncopied as the
// second operand of a vectored write.
const inlinePayload = 4 << 10

var (
	errZeroField = errors.New("wire: field marked present holds its zero value")
	errUnknown   = errors.New("wire: unknown bit in field mask")
	errVarint    = errors.New("wire: malformed uvarint")
	errOverrun   = errors.New("wire: field overruns the frame")
	errTrailing  = errors.New("wire: bytes after the last field")
	errIntRange  = errors.New("wire: integer field out of range")
)

// scratchPool holds the buffers WriteFrame lays headers out in and
// ReadFrame reads fixed-width fields and string bodies through.
var scratchPool = sync.Pool{New: func() any {
	b := make([]byte, 0, 512)
	return &b
}}

// putScratch returns b to the pool through sp, unless one long string or
// a run of them grew it past what is worth keeping.
func putScratch(sp *[]byte, b []byte) {
	if cap(b) <= 64<<10 {
		*sp = b[:0]
		scratchPool.Put(sp)
	}
}

// frameWriter appends the present fields of one message and collects their
// mask bits. It is passed and returned by value so that b can live in the
// caller's frame: WireSize lays a header out on its stack.
type frameWriter struct {
	b    []byte
	mask uint32
}

func (e frameWriter) int(bit uint, v int64) frameWriter {
	if v != 0 {
		e.mask |= 1 << bit
		e.b = binary.AppendVarint(e.b, v) // zig-zag, then uvarint
	}
	return e
}

func (e frameWriter) float(bit uint, f float64) frameWriter {
	if bits := math.Float64bits(f); bits != 0 {
		e.mask |= 1 << bit
		e.b = binary.BigEndian.AppendUint64(e.b, bits)
	}
	return e
}

func (e frameWriter) str(bit uint, s string) frameWriter {
	if s != "" {
		e.mask |= 1 << bit
		e.b = binary.AppendUvarint(e.b, uint64(len(s)))
		e.b = append(e.b, s...)
	}
	return e
}

// header lays out everything of m's frame but the payload bytes. The length
// prefix is left zero: only WriteFrame needs it.
func (e frameWriter) header(m *Message) frameWriter {
	e.b = append(e.b[:0], 0, 0, 0, 0, FrameVersion, byte(m.Type), 0, 0, 0)
	e = e.str(fieldChannel, m.Channel)
	e = e.int(fieldIngestW, int64(m.IngestW))
	e = e.int(fieldIngestH, int64(m.IngestH))
	e = e.int(fieldNativeW, int64(m.NativeW))
	e = e.int(fieldNativeH, int64(m.NativeH))
	e = e.float(fieldFPS, m.FPS)
	e = e.int(fieldFrameID, int64(m.FrameID))
	if m.Key {
		e.mask |= 1 << fieldKey
	}
	e = e.int(fieldQP, int64(m.QP))
	e = e.int(fieldX, int64(m.X))
	e = e.int(fieldY, int64(m.Y))
	e = e.float(fieldGainDB, m.GainDB)
	e = e.int(fieldEpochs, int64(m.Epochs))
	e = e.int(fieldSamples, int64(m.Samples))
	e = e.str(fieldReason, m.Reason)
	e = e.int(fieldRung, int64(m.Rung))
	e = e.str(fieldSegID, m.SegID)
	e = e.int(fieldSegDurUS, m.SegDurUS)
	e = e.int(fieldSentAtUS, m.SentAtUS)
	e = e.float(fieldPrevGainDB, m.PrevGainDB)
	e = e.float(fieldPatchKbps, m.PatchKbps)
	if m.Suspended {
		e.mask |= 1 << fieldSuspended
	}
	if m.Data != nil {
		e.mask |= 1 << fieldData
		e.b = binary.AppendUvarint(e.b, uint64(len(m.Data)))
	}
	e.b[6], e.b[7], e.b[8] = byte(e.mask>>16), byte(e.mask>>8), byte(e.mask)
	return e
}

// WriteFrame sends one message as one frame (the layout is in the package
// comment). A message that would exceed the frame limit is refused before
// anything is written. m.Data is not copied when it is large: w sees it as
// the second buffer of a net.Buffers, which a TCP connection sends with the
// header in a single writev.
func WriteFrame(w io.Writer, m *Message) error {
	sp := scratchPool.Get().(*[]byte)
	e := frameWriter{b: (*sp)[:0]}.header(m)
	size := len(e.b) - 4 + len(m.Data)
	binary.BigEndian.PutUint32(e.b, uint32(size))

	var err error
	switch {
	case size > maxMessage:
		err = fmt.Errorf("wire: message of %d bytes exceeds limit", size)
	case len(m.Data) <= inlinePayload:
		e.b = append(e.b, m.Data...)
		_, err = w.Write(e.b)
	default:
		bufs := net.Buffers{e.b, m.Data}
		_, err = bufs.WriteTo(w)
	}
	putScratch(sp, e.b)
	return err
}

// ReadFrame receives one frame. A frame with another version byte is
// discarded whole — through the reader, whatever length it claims — and
// reported as *VersionError so the caller can tolerate other peers by
// skipping to the next frame. Malformed or non-canonical input from the
// peer yields an error, never a panic, with the rest of that frame
// discarded; a stream that ends inside a frame yields io.ErrUnexpectedEOF,
// one that ends between frames io.EOF.
//
// The payload is read straight into the returned message's Data, and the
// header byte by byte through r's own ReadByte when it has one (a
// bufio.Reader, a bytes.Reader), so wrap a raw socket in a bufio.Reader.
func ReadFrame(r io.Reader) (*Message, error) {
	sp := scratchPool.Get().(*[]byte)
	d := frameReader{r: r, buf: (*sp)[:cap(*sp)]}
	d.br, _ = r.(io.ByteReader)
	m, err := d.frame()
	putScratch(sp, d.buf)
	return m, err
}

// frameReader reads one frame. Every read is charged against left, the
// bytes the length prefix says remain, so no field can reach into the next
// frame. The first failure sticks in err and turns the remaining reads
// into no-ops, which lets frame list the fields without a check per line.
type frameReader struct {
	r    io.Reader
	br   io.ByteReader // r itself, when it reads single bytes cheaply
	buf  []byte        // pooled scratch, used at full capacity
	left int
	mask uint32
	err  error
}

func (d *frameReader) frame() (*Message, error) {
	hdr := d.buf[:4]
	if _, err := io.ReadFull(d.r, hdr); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr)
	if n == 0 {
		return nil, errors.New("wire: empty frame")
	}
	if n > maxMessage {
		return nil, fmt.Errorf("wire: frame of %d bytes exceeds limit", n)
	}
	d.left = int(n)
	version := d.byte()
	if d.err == nil && version != FrameVersion {
		if err := d.skip(); err != nil {
			return nil, err
		}
		return nil, &VersionError{Version: version}
	}
	tm := d.buf[:4] // type, mask
	d.full(tm)
	m := &Message{Type: MsgType(tm[0])}
	d.mask = uint32(tm[1])<<16 | uint32(tm[2])<<8 | uint32(tm[3])
	if d.err == nil && d.mask>>numFields != 0 {
		d.err = errUnknown
	}
	m.Channel = d.str(fieldChannel)
	m.IngestW = d.int(fieldIngestW)
	m.IngestH = d.int(fieldIngestH)
	m.NativeW = d.int(fieldNativeW)
	m.NativeH = d.int(fieldNativeH)
	m.FPS = d.float(fieldFPS)
	m.FrameID = d.int(fieldFrameID)
	m.Key = d.has(fieldKey)
	m.QP = d.int(fieldQP)
	m.X = d.int(fieldX)
	m.Y = d.int(fieldY)
	m.GainDB = d.float(fieldGainDB)
	m.Epochs = d.int(fieldEpochs)
	m.Samples = d.int(fieldSamples)
	m.Reason = d.str(fieldReason)
	m.Rung = d.int(fieldRung)
	m.SegID = d.str(fieldSegID)
	m.SegDurUS = d.int64(fieldSegDurUS)
	m.SentAtUS = d.int64(fieldSentAtUS)
	m.PrevGainDB = d.float(fieldPrevGainDB)
	m.PatchKbps = d.float(fieldPatchKbps)
	m.Suspended = d.has(fieldSuspended)
	if d.has(fieldData) {
		n := d.length()
		if d.err == nil && n != d.left {
			d.err = errTrailing
		}
		if d.err == nil {
			m.Data = make([]byte, n)
			d.full(m.Data)
		}
	}
	if d.err == nil && d.left != 0 {
		d.err = errTrailing
	}
	if d.err != nil {
		if err := d.skip(); err != nil {
			return nil, err
		}
		return nil, d.err
	}
	return m, nil
}

// midFrame is err as ReadFrame reports it from inside a frame, where a
// bare EOF would read as a clean end of stream.
func midFrame(err error) error {
	if err == io.EOF {
		return io.ErrUnexpectedEOF
	}
	return err
}

// fail records an I/O error: the stream broke, nothing is left to skip.
func (d *frameReader) fail(err error) {
	d.err, d.left = midFrame(err), 0
}

// skip discards the rest of the frame so the next ReadFrame starts on a
// frame boundary, and reports only a failure to do so.
func (d *frameReader) skip() error {
	_, err := io.CopyN(io.Discard, d.r, int64(d.left))
	d.left = 0
	return midFrame(err)
}

func (d *frameReader) has(bit uint) bool {
	return d.err == nil && d.mask&(1<<bit) != 0
}

func (d *frameReader) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.left == 0 {
		d.err = errOverrun
		return 0
	}
	var b byte
	var err error
	if d.br != nil {
		b, err = d.br.ReadByte()
	} else {
		_, err = io.ReadFull(d.r, d.buf[:1])
		b = d.buf[0]
	}
	if err != nil {
		d.fail(err)
		return 0
	}
	d.left--
	return b
}

// full fills p from the frame.
func (d *frameReader) full(p []byte) {
	if d.err != nil {
		return
	}
	if len(p) > d.left {
		d.err = errOverrun
		return
	}
	if _, err := io.ReadFull(d.r, p); err != nil {
		d.fail(err)
		return
	}
	d.left -= len(p)
}

// uvarint reads a minimally encoded uvarint: binary.Uvarint would also
// accept padded forms, and the encoding has to be canonical.
func (d *frameReader) uvarint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64 && d.err == nil; shift += 7 {
		b := d.byte()
		if b < 0x80 {
			if b == 0 && shift > 0 || shift == 63 && b > 1 {
				break
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
	}
	if d.err == nil {
		d.err = errVarint
	}
	return 0
}

// length reads the byte count of a string or the payload.
func (d *frameReader) length() int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.left) {
		d.err = errOverrun
	}
	return int(n)
}

func (d *frameReader) int64(bit uint) int64 {
	if !d.has(bit) {
		return 0
	}
	u := d.uvarint()
	if d.err == nil && u == 0 {
		d.err = errZeroField
	}
	return int64(u>>1) ^ -int64(u&1)
}

func (d *frameReader) int(bit uint) int {
	v := d.int64(bit)
	if int64(int(v)) != v {
		d.err = errIntRange
	}
	return int(v)
}

func (d *frameReader) float(bit uint) float64 {
	if !d.has(bit) {
		return 0
	}
	b := d.buf[:8]
	d.full(b)
	bits := binary.BigEndian.Uint64(b)
	if d.err == nil && bits == 0 {
		d.err = errZeroField
	}
	return math.Float64frombits(bits)
}

func (d *frameReader) str(bit uint) string {
	if !d.has(bit) {
		return ""
	}
	n := d.length()
	if d.err == nil && n == 0 {
		d.err = errZeroField
	}
	if d.err != nil {
		return ""
	}
	if n > len(d.buf) {
		d.buf = make([]byte, n)
	}
	b := d.buf[:n]
	d.full(b)
	return string(b)
}
