package edge

import (
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"livenas/internal/abr"
)

// RungInfo is one rung of a channel's distribution ladder as advertised in
// its playlist: the network cost of a segment at this rung and the
// effective (perceived-quality) bitrate after the ingest-side enhancement
// boost — the playlist is where the origin tells viewers how much quality
// LiveNAS bought them per bit.
type RungInfo = abr.Rung

// Segment is one fixed-duration piece of a channel's enhanced output at one
// ladder rung. ID is its content address: any two nodes holding a segment
// with the same ID hold the same bytes, which is what lets relays cache and
// deduplicate without trusting upstream bookkeeping.
type Segment struct {
	Channel  string
	Index    int
	Rung     int
	Duration time.Duration
	Data     []byte
	ID       string
}

// SegmentID computes the content address: a truncated SHA-256 over the
// segment identity and payload.
func SegmentID(channel string, index, rung int, data []byte) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s/%d/%d/", channel, index, rung)
	_, _ = h.Write(data) // hash.Hash.Write never errors
	return fmt.Sprintf("%x", h.Sum(nil)[:8])
}

// SyntheticPayload builds the deterministic stand-in payload for a segment
// in experiments and demos: n pseudo-random bytes seeded by the segment
// identity, so content addresses are stable across processes and runs.
func SyntheticPayload(channel string, index, rung, n int) []byte {
	// FNV-1a over the identity seeds a xorshift64* generator.
	seed := uint64(14695981039346656037)
	for _, b := range []byte(fmt.Sprintf("%s/%d/%d", channel, index, rung)) {
		seed = (seed ^ uint64(b)) * 1099511628211
	}
	if seed == 0 {
		seed = 1
	}
	out := make([]byte, n)
	x := seed
	// Out through a 256-byte stack block (DESIGN.md, "Payload blocks"): the
	// collector's preemption signal lands in this call-free loop, the stopped
	// frame is scanned conservatively with its vector registers, and a block
	// copy leaves payload bytes in them, not a pointer to a dead simulation.
	var blk [256]byte
	for rest := out; len(rest) > 0; rest = rest[copy(rest, blk[:]):] {
		for i := range blk[:min(len(rest), len(blk))] {
			x ^= x >> 12
			x ^= x << 25
			x ^= x >> 27
			blk[i] = byte((x * 2685821657736338717) >> 56)
		}
	}
	return out
}

// durUS converts wire microseconds back to a duration.
func durUS(us int64) time.Duration { return time.Duration(us) * time.Microsecond }

// SegmentRef is a playlist entry: one segment index across every rung.
type SegmentRef struct {
	Index int
	PubUS int64    // origin publish time, microseconds
	DurUS int64    // segment duration, microseconds
	IDs   []string // content address per rung
	Sizes []int    // payload bytes per rung
}

// Playlist is a channel's rolling live window: the ladder plus the last
// Window segment refs, oldest first with contiguous indexes. It is the
// HLS media-playlist analogue, pushed (not polled) down the relay tree.
type Playlist struct {
	Channel  string
	Window   int
	Rungs    []RungInfo
	Segments []SegmentRef
}

// Oldest returns the lowest live segment index, or -1 on an empty window.
func (p *Playlist) Oldest() int {
	if len(p.Segments) == 0 {
		return -1
	}
	return p.Segments[0].Index
}

// LiveEdge returns the highest live segment index, or -1 on an empty window.
func (p *Playlist) LiveEdge() int {
	if len(p.Segments) == 0 {
		return -1
	}
	return p.Segments[len(p.Segments)-1].Index
}

// Ref returns the entry for a segment index, or nil if it left the window.
func (p *Playlist) Ref(index int) *SegmentRef {
	o := p.Oldest()
	if o < 0 || index < o || index > p.LiveEdge() {
		return nil
	}
	return &p.Segments[index-o]
}

// PlaylistVersion is the first byte of an encoded playlist. Bump it whenever
// the bytes Encode produces change: TestPlaylistLayoutPinned holds them.
const PlaylistVersion = 1

// Encode serialises the playlist for a MsgPlaylist body, hand-laid like the
// wire frame body (DESIGN.md, "Playlist body"): the version byte, then every
// field in declaration order, each list behind its count. A playlist has one
// byte sequence, the same on every node, and relays forward it verbatim.
func (p *Playlist) Encode() []byte {
	// Room for the usual window of 16-character IDs; append covers the rest.
	b := append(make([]byte, 0, 64+len(p.Channel)+32*len(p.Rungs)+len(p.Segments)*(24+24*len(p.Rungs))), PlaylistVersion)
	b = appendString(b, p.Channel)
	b = binary.AppendVarint(b, int64(p.Window))
	b = binary.AppendUvarint(b, uint64(len(p.Rungs)))
	for _, r := range p.Rungs {
		b = appendString(b, r.Name)
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.Kbps))
		b = binary.BigEndian.AppendUint64(b, math.Float64bits(r.EffectiveKbps))
	}
	b = binary.AppendUvarint(b, uint64(len(p.Segments)))
	for i := range p.Segments {
		ref := &p.Segments[i]
		b = binary.AppendVarint(b, int64(ref.Index))
		b = binary.AppendVarint(b, ref.PubUS)
		b = binary.AppendVarint(b, ref.DurUS)
		b = binary.AppendUvarint(b, uint64(len(ref.IDs)))
		for _, id := range ref.IDs {
			b = appendString(b, id)
		}
		b = binary.AppendUvarint(b, uint64(len(ref.Sizes)))
		for _, size := range ref.Sizes {
			b = binary.AppendVarint(b, int64(size))
		}
	}
	return b
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// DecodePlaylist parses a MsgPlaylist body off the network: an unknown
// version, a non-minimal uvarint, a length or count that overruns the body and
// bytes left over are errors, and every count is checked against the bytes
// that remain before anything is sized by it. Empty lists decode to nil. The
// body is copied once, as a string Channel, rung names and IDs are slices of.
func DecodePlaylist(b []byte) (*Playlist, error) {
	if len(b) == 0 || b[0] != PlaylistVersion {
		return nil, errors.New("edge: playlist decode: unsupported version")
	}
	d := playlistReader{b: b, s: string(b), off: 1}
	p := &Playlist{Channel: d.str(), Window: d.int()}
	if n := d.count(1 + 8 + 8); n > 0 { // a rung is at least an empty name and two floats
		p.Rungs = make([]RungInfo, n)
		for i := range p.Rungs {
			p.Rungs[i] = RungInfo{Name: d.str(), Kbps: d.float(), EffectiveKbps: d.float()}
		}
	}
	if n := d.count(3 + 1 + 1); n > 0 { // a ref is at least three ints and two counts
		p.Segments = make([]SegmentRef, n)
		for i := range p.Segments {
			ref := &p.Segments[i]
			ref.Index, ref.PubUS, ref.DurUS = d.int(), d.int64(), d.int64()
			ref.IDs = carve(&d, &d.ids, d.count(1), n-i)
			for j := range ref.IDs {
				ref.IDs[j] = d.str()
			}
			ref.Sizes = carve(&d, &d.sizes, d.count(1), n-i)
			for j := range ref.Sizes {
				ref.Sizes[j] = d.int()
			}
		}
	}
	if d.off != len(d.b) {
		d.fail("bytes after the last segment")
	}
	if d.err != nil {
		return nil, d.err
	}
	return p, nil
}

// playlistReader walks one playlist body. The first failure sticks in err and
// empties the rest of the body: later reads are no-ops, no check per field.
type playlistReader struct {
	b     []byte
	s     string // b, copied: what the decoded strings are slices of
	off   int
	err   error
	ids   []string // unused tail of the array the refs' IDs share
	sizes []int    // likewise for Sizes
}

func (d *playlistReader) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("edge: playlist decode: %s (byte %d of %d)", what, d.off, len(d.b))
		d.off = len(d.b)
	}
}

func (d *playlistReader) uvarint() uint64 {
	x, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 || n > 1 && d.b[d.off+n-1] == 0 { // cut short, over 64 bits, or padded: not canonical
		d.fail("malformed uvarint")
		return 0
	}
	d.off += n
	return x
}

// count reads how many elements of at least min bytes each follow.
func (d *playlistReader) count(min int) int {
	n := d.uvarint()
	if n > uint64((len(d.b)-d.off)/min) {
		d.fail("count overruns the body")
		return 0
	}
	return int(n)
}

func (d *playlistReader) str() string {
	n := d.count(1)
	d.off += n
	return d.s[d.off-n : d.off]
}

func (d *playlistReader) int64() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *playlistReader) int() int {
	v := d.int64()
	if int64(int(v)) != v {
		d.fail("integer out of range")
	}
	return int(v)
}

func (d *playlistReader) float() float64 {
	if len(d.b)-d.off < 8 {
		d.fail("float overruns the body")
		return 0
	}
	d.off += 8
	return math.Float64frombits(binary.BigEndian.Uint64(d.b[d.off-8:]))
}

// carve cuts the next n elements off *pool, the tail of an array one
// playlist's refs share. A pool that runs short is replaced by one for refsLeft
// refs of n elements, but never more than the body has bytes left for.
func carve[T any](d *playlistReader, pool *[]T, n, refsLeft int) []T {
	if n == 0 {
		return nil
	}
	if n > len(*pool) {
		*pool = make([]T, n*min(refsLeft, (len(d.b)-d.off)/n))
	}
	out := (*pool)[:n:n]
	*pool = (*pool)[n:]
	return out
}

// Segmenter cuts one channel's enhanced output into the rolling segment
// window: fixed segment duration, one payload per ladder rung per index,
// content-addressed IDs, and eviction past the playlist window. It is the
// origin's per-channel packager; it does no I/O and holds no locks (the
// Origin serialises access).
type Segmenter struct {
	channel string
	segDur  time.Duration
	window  int
	rungs   []RungInfo

	next     int
	playlist Playlist
	cache    map[int][]*Segment // live window, keyed by index
}

// NewSegmenter creates a packager for one channel.
func NewSegmenter(channel string, segDur time.Duration, rungs []RungInfo, window int) *Segmenter {
	if window <= 0 {
		window = 6
	}
	return &Segmenter{
		channel: channel,
		segDur:  segDur,
		window:  window,
		rungs:   rungs,
		playlist: Playlist{
			Channel: channel,
			Window:  window,
			Rungs:   rungs,
		},
		cache: make(map[int][]*Segment),
	}
}

// Push cuts the next segment from one payload per rung, publishes it into
// the playlist at time at, evicts anything that fell out of the window,
// and returns the new playlist entry.
func (g *Segmenter) Push(at time.Duration, payloads [][]byte) *SegmentRef {
	if len(payloads) != len(g.rungs) {
		panic(fmt.Sprintf("edge: %d payloads for %d rungs", len(payloads), len(g.rungs)))
	}
	idx := g.next
	g.next++
	segs := make([]*Segment, len(payloads))
	ref := SegmentRef{
		Index: idx,
		PubUS: at.Microseconds(),
		DurUS: g.segDur.Microseconds(),
		IDs:   make([]string, len(payloads)),
		Sizes: make([]int, len(payloads)),
	}
	for r, data := range payloads {
		segs[r] = &Segment{
			Channel:  g.channel,
			Index:    idx,
			Rung:     r,
			Duration: g.segDur,
			Data:     data,
			ID:       SegmentID(g.channel, idx, r, data),
		}
		ref.IDs[r] = segs[r].ID
		ref.Sizes[r] = len(data)
	}
	g.cache[idx] = segs
	g.playlist.Segments = append(g.playlist.Segments, ref)
	for len(g.playlist.Segments) > g.window {
		old := g.playlist.Segments[0].Index
		g.playlist.Segments = g.playlist.Segments[1:]
		delete(g.cache, old)
	}
	return &g.playlist.Segments[len(g.playlist.Segments)-1]
}

// Segment returns the cached segment at (index, rung), or nil if the index
// left the window or the rung is out of range.
func (g *Segmenter) Segment(index, rung int) *Segment {
	segs := g.cache[index]
	if segs == nil || rung < 0 || rung >= len(segs) {
		return nil
	}
	return segs[rung]
}

// Playlist returns the live window (shared, not a copy: callers must not
// mutate, and the Origin encodes it before releasing its lock).
func (g *Segmenter) Playlist() *Playlist { return &g.playlist }
