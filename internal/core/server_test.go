package core

import (
	"math"
	"runtime"
	"testing"
	"time"

	"livenas/internal/codec"
	"livenas/internal/frame"
	"livenas/internal/vidgen"
)

// TestPatchHostileHeaderAlloc: five bytes off the wire may declare a
// 16384x16384 patch. Patch holds the declared size to the session's
// geometry before a decoder is sized by it, so the refusal costs the sender
// its patch and this process almost nothing (it was 268 MB).
func TestPatchHostileHeaderAlloc(t *testing.T) {
	sv, err := NewServer(defaultTestConfig(vidgen.JustChatting), func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	// 16384 x 16384, then one body byte whose top bit marks a key frame: the
	// decoder sizes its planes before it finds the bitstream short.
	hostile := []byte{0x40, 0x00, 0x40, 0x00, 0x80}
	// TotalAlloc is process-wide, so a goroutine of another test can charge
	// its bytes to one call. Stray allocations only add: the smallest delta
	// of five calls is still one call's own.
	grew := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sv.Patch(0, 0, 0, hostile)
		runtime.ReadMemStats(&after)
		grew = min(grew, after.TotalAlloc-before.TotalAlloc)
	}
	if grew >= 1<<20 {
		t.Errorf("refusing a 16384x16384 patch header allocated %d bytes", grew)
	}
	if sv.patchesReceived != 0 {
		t.Errorf("%d hostile patches received, want 0", sv.patchesReceived)
	}
}

// TestVideoLowFrameRate: the pairing ring holds 3 s of frames, which at
// 0.1 fps rounds to none. The server still keeps the latest decoded frame
// instead of indexing an empty ring.
func TestVideoLowFrameRate(t *testing.T) {
	cfg := defaultTestConfig(vidgen.JustChatting)
	cfg.FPS = 0.1
	sv, err := NewServer(cfg, func() time.Duration { return 0 })
	if err != nil {
		t.Fatal(err)
	}
	enc := codec.NewEncoder(codec.Config{Profile: codec.BX8, W: 192, H: 108, KeyInterval: 10})
	for id := 0; id < 2; id++ {
		ef := enc.Encode(frame.New(192, 108), 40_000)
		ef.Seq = id
		sv.Video(ef, 0)
	}
	if len(sv.decoded) != 1 || sv.decoded[0].id != 1 {
		t.Fatalf("ring holds %d frames, want only the latest", len(sv.decoded))
	}
	if _, _, _, ok := sv.Output(); !ok {
		t.Fatal("no output after a decoded frame")
	}
}

// TestNewServerEveryScheme: NewServer's switch over Scheme has no default,
// so a scheme added without a case there would build a server with no model
// and no trainer and run silently as WebRTC. Every scheme below numSchemes
// needs a row here, and the row says what NewServer sets up for it.
func TestNewServerEveryScheme(t *testing.T) {
	want := map[Scheme]struct{ model, trainer bool }{
		SchemeWebRTC:     {model: false, trainer: false},
		SchemeGeneric:    {model: true, trainer: false},
		SchemePretrained: {model: true, trainer: false},
		SchemeLiveNAS:    {model: true, trainer: true},
	}
	for s := Scheme(0); s < numSchemes; s++ {
		row, ok := want[s]
		if !ok {
			t.Errorf("Scheme %d (%v) has no row: add it here and a case to NewServer's switch", int(s), s)
			continue
		}
		cfg := defaultTestConfig(vidgen.JustChatting)
		cfg.Scheme = s
		cfg.Duration = 4 * time.Second // keeps Pretrained's session pre-training short
		sv, err := NewServer(cfg, func() time.Duration { return 0 })
		if err != nil {
			t.Fatalf("%v: %v", s, err)
		}
		if got := sv.model != nil; got != row.model {
			t.Errorf("%v: model set up = %v, want %v", s, got, row.model)
		}
		if got := sv.trainer != nil; got != row.trainer {
			t.Errorf("%v: trainer set up = %v, want %v", s, got, row.trainer)
		}
	}
}
