package edge

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"time"

	"livenas/internal/abr"
)

// RungInfo is one rung of a channel's distribution ladder as advertised in
// its playlist: the network cost of a segment at this rung and the
// effective (perceived-quality) bitrate after the ingest-side enhancement
// boost — the playlist is where the origin tells viewers how much quality
// LiveNAS bought them per bit.
type RungInfo struct {
	Name          string
	Kbps          float64
	EffectiveKbps float64
}

// abrRungs converts the advertised ladder to the ABR package's form.
func abrRungs(rs []RungInfo) []abr.Rung {
	out := make([]abr.Rung, len(rs))
	for i, r := range rs {
		out[i] = abr.Rung{Name: r.Name, Kbps: r.Kbps, EffectiveKbps: r.EffectiveKbps}
	}
	return out
}

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
	for i := range out {
		x ^= x >> 12
		x ^= x << 25
		x ^= x >> 27
		out[i] = byte((x * 2685821657736338717) >> 56)
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

// gob assigns wire type ids process-wide in first-use order, and an id of
// 128 or more costs an extra byte wherever it appears. Simulated links
// charge for a playlist's encoded size, so without this the virtual-time
// results of an edge simulation would depend on what else the process had
// gob-encoded first (the sweep runner's config keys push the ids past 128).
// Claiming the ids at init makes the size a function of the playlist alone.
func init() { (&Playlist{}).Encode() }

// Encode serialises the playlist for a MsgPlaylist body. The encoding is
// deterministic (fixed field order, no maps): the same window encodes to
// the same bytes on every node, pinned by TestPlaylistEncodeDeterministic.
func (p *Playlist) Encode() []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		// A playlist is plain data; encoding cannot fail except by a
		// programming error.
		panic(fmt.Sprintf("edge: playlist encode: %v", err))
	}
	return buf.Bytes()
}

// DecodePlaylist parses a MsgPlaylist body. Like the wire package it turns
// decode panics into errors: playlist bytes arrive from the network.
func DecodePlaylist(b []byte) (p *Playlist, err error) {
	defer func() {
		if r := recover(); r != nil {
			p, err = nil, fmt.Errorf("edge: playlist decode: panic: %v", r)
		}
	}()
	var pl Playlist
	if err := gob.NewDecoder(bytes.NewReader(b)).Decode(&pl); err != nil {
		return nil, fmt.Errorf("edge: playlist decode: %w", err)
	}
	return &pl, nil
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
