package edge

import (
	"bytes"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

// smallPlaylist is the playlist whose bytes TestPlaylistLayoutPinned holds
// and whose gob encoding gobPlaylist is.
func smallPlaylist() *Playlist {
	return &Playlist{Channel: "ch", Window: 2,
		Rungs: []RungInfo{{Name: "240p", Kbps: 400, EffectiveKbps: 520}},
		Segments: []SegmentRef{{Index: 7, PubUS: 7000000, DurUS: 1000000,
			IDs: []string{"0123456789abcdef"}, Sizes: []int{50000}}}}
}

// windowPlaylist is a full window as the origin pushes it: segs segment refs
// over the three test rungs.
func windowPlaylist(segs int) *Playlist {
	g := NewSegmenter("ch000", time.Second, testRungs(), segs)
	for i := 0; i < segs; i++ {
		g.Push(time.Duration(i)*time.Second, [][]byte{{1}, {2}, {3}})
	}
	return g.Playlist()
}

// TestPlaylistLayoutPinned holds the encoding literally. If it fails the
// playlist bytes changed: bump PlaylistVersion and re-cut the pin, the edge
// golden and TestEdgeBenchPlanDeterministic, all of which price links by
// these bytes.
func TestPlaylistLayoutPinned(t *testing.T) {
	want := []byte{
		PlaylistVersion,
		2, 'c', 'h', // Channel
		4,                     // Window 2, zig-zag
		1,                     // one rung
		4, '2', '4', '0', 'p', // Name
		0x40, 0x79, 0, 0, 0, 0, 0, 0, // Kbps 400
		0x40, 0x80, 0x40, 0, 0, 0, 0, 0, // EffectiveKbps 520
		1,                      // one segment
		14,                     // Index 7
		0x80, 0xbf, 0xd6, 0x06, // PubUS 7e6
		0x80, 0x89, 0x7a, // DurUS 1e6
		1, // one ID
		16, '0', '1', '2', '3', '4', '5', '6', '7', '8', '9', 'a', 'b', 'c', 'd', 'e', 'f',
		1,                // one size
		0xa0, 0x8d, 0x06, // 50000
	}
	if got := smallPlaylist().Encode(); !bytes.Equal(got, want) {
		t.Fatalf("playlist layout changed:\n got % x\nwant % x", got, want)
	}
	if PlaylistVersion != 1 {
		t.Fatal("PlaylistVersion moved: re-cut this pin with it")
	}
}

// gobPlaylist is smallPlaylist as the gob Encode wrote it, captured from the
// last commit that spoke it. A peer still sending these must get an error.
var gobPlaylist = []byte{
	0x45, 0x7f, 0x03, 0x01, 0x01, 0x08, 0x50, 0x6c, 0x61, 0x79, 0x6c, 0x69,
	0x73, 0x74, 0x01, 0xff, 0x80, 0x00, 0x01, 0x04, 0x01, 0x07, 0x43, 0x68,
	0x61, 0x6e, 0x6e, 0x65, 0x6c, 0x01, 0x0c, 0x00, 0x01, 0x06, 0x57, 0x69,
	0x6e, 0x64, 0x6f, 0x77, 0x01, 0x04, 0x00, 0x01, 0x05, 0x52, 0x75, 0x6e,
	0x67, 0x73, 0x01, 0xff, 0x84, 0x00, 0x01, 0x08, 0x53, 0x65, 0x67, 0x6d,
	0x65, 0x6e, 0x74, 0x73, 0x01, 0xff, 0x8c, 0x00, 0x00, 0x00, 0x1e, 0xff,
	0x83, 0x02, 0x01, 0x01, 0x0f, 0x5b, 0x5d, 0x65, 0x64, 0x67, 0x65, 0x2e,
	0x52, 0x75, 0x6e, 0x67, 0x49, 0x6e, 0x66, 0x6f, 0x01, 0xff, 0x84, 0x00,
	0x01, 0xff, 0x82, 0x00, 0x00, 0x3a, 0xff, 0x81, 0x03, 0x01, 0x01, 0x08,
	0x52, 0x75, 0x6e, 0x67, 0x49, 0x6e, 0x66, 0x6f, 0x01, 0xff, 0x82, 0x00,
	0x01, 0x03, 0x01, 0x04, 0x4e, 0x61, 0x6d, 0x65, 0x01, 0x0c, 0x00, 0x01,
	0x04, 0x4b, 0x62, 0x70, 0x73, 0x01, 0x08, 0x00, 0x01, 0x0d, 0x45, 0x66,
	0x66, 0x65, 0x63, 0x74, 0x69, 0x76, 0x65, 0x4b, 0x62, 0x70, 0x73, 0x01,
	0x08, 0x00, 0x00, 0x00, 0x20, 0xff, 0x8b, 0x02, 0x01, 0x01, 0x11, 0x5b,
	0x5d, 0x65, 0x64, 0x67, 0x65, 0x2e, 0x53, 0x65, 0x67, 0x6d, 0x65, 0x6e,
	0x74, 0x52, 0x65, 0x66, 0x01, 0xff, 0x8c, 0x00, 0x01, 0xff, 0x86, 0x00,
	0x00, 0x4a, 0xff, 0x85, 0x03, 0x01, 0x01, 0x0a, 0x53, 0x65, 0x67, 0x6d,
	0x65, 0x6e, 0x74, 0x52, 0x65, 0x66, 0x01, 0xff, 0x86, 0x00, 0x01, 0x05,
	0x01, 0x05, 0x49, 0x6e, 0x64, 0x65, 0x78, 0x01, 0x04, 0x00, 0x01, 0x05,
	0x50, 0x75, 0x62, 0x55, 0x53, 0x01, 0x04, 0x00, 0x01, 0x05, 0x44, 0x75,
	0x72, 0x55, 0x53, 0x01, 0x04, 0x00, 0x01, 0x03, 0x49, 0x44, 0x73, 0x01,
	0xff, 0x88, 0x00, 0x01, 0x05, 0x53, 0x69, 0x7a, 0x65, 0x73, 0x01, 0xff,
	0x8a, 0x00, 0x00, 0x00, 0x16, 0xff, 0x87, 0x02, 0x01, 0x01, 0x08, 0x5b,
	0x5d, 0x73, 0x74, 0x72, 0x69, 0x6e, 0x67, 0x01, 0xff, 0x88, 0x00, 0x01,
	0x0c, 0x00, 0x00, 0x13, 0xff, 0x89, 0x02, 0x01, 0x01, 0x05, 0x5b, 0x5d,
	0x69, 0x6e, 0x74, 0x01, 0xff, 0x8a, 0x00, 0x01, 0x04, 0x00, 0x00, 0x43,
	0xff, 0x80, 0x01, 0x02, 0x63, 0x68, 0x01, 0x04, 0x01, 0x01, 0x01, 0x04,
	0x32, 0x34, 0x30, 0x70, 0x01, 0xfe, 0x79, 0x40, 0x01, 0xfd, 0x40, 0x80,
	0x40, 0x00, 0x01, 0x01, 0x01, 0x0e, 0x01, 0xfd, 0xd5, 0x9f, 0x80, 0x01,
	0xfd, 0x1e, 0x84, 0x80, 0x01, 0x01, 0x10, 0x30, 0x31, 0x32, 0x33, 0x34,
	0x35, 0x36, 0x37, 0x38, 0x39, 0x61, 0x62, 0x63, 0x64, 0x65, 0x66, 0x01,
	0x01, 0xfd, 0x01, 0x86, 0xa0, 0x00, 0x00,
}

type badPlaylist struct {
	name string
	body []byte
}

// malformedPlaylists lists bodies a lax reader would make something of and
// this one must refuse. Offsets are into smallPlaylist's pinned layout.
func malformedPlaylists() []badPlaylist {
	good := smallPlaylist().Encode()
	edit := func(f func(b []byte) []byte) []byte { return f(append([]byte{}, good...)) }
	return []badPlaylist{
		{"empty", nil},
		{"gob", gobPlaylist},
		{"version 0", edit(func(b []byte) []byte { b[0] = 0; return b })},
		{"version from the future", edit(func(b []byte) []byte { b[0] = PlaylistVersion + 1; return b })},
		{"version byte alone", good[:1]},
		{"cut inside a float", good[:20]},
		{"cut before the sizes", good[:len(good)-4]},
		{"last byte missing", good[:len(good)-1]},
		{"trailing byte", append(append([]byte{}, good...), 0)},
		{"padded uvarint", edit(func(b []byte) []byte { // Window as 0x84 0x00
			return append(append(b[:4:4], 0x84, 0x00), good[5:]...)
		})},
		{"uvarint over 64 bits", append([]byte{PlaylistVersion, 0}, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02)},
		{"uvarint never ends", []byte{PlaylistVersion, 0, 0x80, 0x80}},
		{"channel overruns the body", []byte{PlaylistVersion, 9, 'a', 'b'}},
		{"rung count overruns the body", edit(func(b []byte) []byte { b[5] = 4; return b })},
		{"segment count overruns the body", edit(func(b []byte) []byte { b[27] = 9; return b })},
		{"ID count overruns the body", edit(func(b []byte) []byte { b[36] = 40; return b })},
		{"size count overruns the body", edit(func(b []byte) []byte { b[len(b)-4] = 4; return b })},
	}
}

// TestDecodePlaylistHostileCounts: a few bytes from a peer may claim 2^40
// rungs, segments, IDs or sizes. Each claim is checked against the bytes
// that remain before anything is sized by it, so the error costs the peer's
// bytes and no more of this process's memory.
func TestDecodePlaylistHostileCounts(t *testing.T) {
	huge := []byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x20} // uvarint 2^40
	with := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	head := []byte{PlaylistVersion, 0, 0} // no channel, window 0
	for name, body := range map[string][]byte{
		"channel":  with([]byte{PlaylistVersion}, huge),
		"rungs":    with(head, huge),
		"segments": with(head, []byte{0}, huge),
		"IDs":      with(head, []byte{0, 1, 0, 0, 0}, huge),
		"sizes":    with(head, []byte{0, 1, 0, 0, 0, 0}, huge),
	} {
		if len(body) > 16 {
			t.Fatalf("%s: body of %d bytes, the point is a short one", name, len(body))
		}
		// TotalAlloc is process-wide, so a goroutine of another test can
		// charge its bytes to one decode. Stray allocations only add: the
		// smallest delta of five decodes is still one decode's own.
		grew := uint64(math.MaxUint64)
		for range 5 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			p, err := DecodePlaylist(body)
			runtime.ReadMemStats(&after)
			if err == nil || p != nil {
				t.Fatalf("%s: a count of 2^40 in %d bytes decoded: %+v", name, len(body), p)
			}
			grew = min(grew, after.TotalAlloc-before.TotalAlloc)
		}
		if grew >= 4<<10 {
			t.Errorf("%s: refusing % x allocated %d bytes", name, body, grew)
		}
	}
}

// TestDecodePlaylistAllocCeiling pins what every viewer pays per playlist
// push: the Playlist, the body copy its strings point into, and one array
// each for Rungs, Segments, all IDs and all Sizes.
func TestDecodePlaylistAllocCeiling(t *testing.T) {
	pl := windowPlaylist(6)
	raw := pl.Encode()
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodePlaylist(raw); err != nil {
			t.Fatal(err)
		}
	}); n > 6 {
		t.Errorf("DecodePlaylist of a 6 x 3 window: %v allocs, want <= 6", n)
	}
	if n := testing.AllocsPerRun(200, func() { pl.Encode() }); n > 1 {
		t.Errorf("Encode of a 6 x 3 window: %v allocs, want <= 1", n)
	}
}

// FuzzDecodePlaylist feeds arbitrary bytes to DecodePlaylist. It must return
// an error or a playlist — never panic — and because the encoding is
// canonical, any body it accepts must re-encode to exactly the bytes it was
// decoded from.
func FuzzDecodePlaylist(f *testing.F) {
	f.Add(smallPlaylist().Encode())
	f.Add(windowPlaylist(6).Encode())
	f.Add((&Playlist{}).Encode())
	for _, bad := range malformedPlaylists() {
		f.Add(bad.body)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := DecodePlaylist(data)
		if err != nil {
			if p != nil {
				t.Fatalf("error %v came with a playlist", err)
			}
			return
		}
		if again := p.Encode(); !bytes.Equal(again, data) {
			t.Fatalf("accepted body is not canonical:\n read % x\nwrote % x", data, again)
		}
	})
}

// roundTripPlaylists are the shapes an encoder gets wrong: nothing at all,
// refs without IDs, negative and extreme ints, strings of awkward length.
func roundTripPlaylists() []*Playlist {
	return []*Playlist{
		{},
		smallPlaylist(),
		windowPlaylist(6),
		{Channel: "no-ids", Window: 1, Segments: []SegmentRef{{Index: 3}, {Index: 4, Sizes: []int{0}}}},
		{Channel: strings.Repeat("c", 300), Window: -1,
			Rungs: []RungInfo{{}, {Name: strings.Repeat("r", 128), Kbps: -0.5, EffectiveKbps: 1e300}},
			Segments: []SegmentRef{
				{Index: -5, PubUS: -1 << 63, DurUS: 1<<63 - 1, IDs: []string{"", "x"}, Sizes: []int{-1, 1 << 40}},
				{Index: 1 << 40, IDs: []string{"a", "b", "c"}},
				{Index: 0, Sizes: []int{1, 2, 3, 4}},
			}},
	}
}
