package main

import (
	"math"
	"net"
	"strings"
	"testing"
	"time"

	"livenas/internal/core"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
	"livenas/internal/wire"
)

// TestClientConfigRejectsBadFlags: a frame rate of 0 used to dial, send its
// hello and then panic in time.NewTicker (the frame gap is +Inf, negative
// as a Duration), and an unknown category silently streamed Just Chatting.
// Each bad flag is refused before anything is dialled.
func TestClientConfigRejectsBadFlags(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name, cat string
		fps, kbps float64
	}{
		{"zero frame rate", "JC", 0, 400},
		{"frame rate below one", "JC", 0.5, 400},
		{"negative frame rate", "JC", -10, 400},
		{"frame rate above the server's bound", "JC", 121, 400},
		{"NaN frame rate", "JC", nan, 400},
		{"infinite frame rate", "JC", inf, 400},
		{"zero budget", "JC", 10, 0},
		{"negative budget", "JC", 10, -400},
		{"NaN budget", "JC", 10, nan},
		{"infinite budget", "JC", 10, inf},
		{"unknown category", "XX", 10, 400},
		{"empty category", "", 10, 400},
		{"lower-case category", "jc", 10, 400},
	} {
		if cfg, err := clientConfig("demo", tc.cat, tc.fps, tc.kbps, 7, time.Second); err == nil {
			t.Errorf("%s: accepted as %+v", tc.name, cfg)
		}
	}
	if _, err := clientConfig("demo", "XX", 10, 400, 7, time.Second); err == nil || !strings.Contains(err.Error(), "LoL JC WoW") {
		t.Errorf("unknown category error %v does not list the valid ones", err)
	}

	for _, fps := range []float64{1, 120} {
		cfg, err := clientConfig("demo", "LoL", fps, 400, 7, time.Second)
		if err != nil {
			t.Fatalf("-fps %g: %v", fps, err)
		}
		if cfg.Cat != vidgen.LeagueOfLegends || cfg.FPS != fps || cfg.GCCInitKbps != 400 || cfg.Scheme != core.SchemeLiveNAS {
			t.Errorf("-fps %g: config %+v", fps, cfg)
		}
		if err := cfg.Validate(); err != nil || cfg.UpdateEvery <= 0 {
			t.Errorf("-fps %g: config not a defaulted valid session (%v, UpdateEvery %v)", fps, err, cfg.UpdateEvery)
		}
	}
}

// peer is the server end of a net.Pipe whose client end runs stream; the
// result of stream arrives on done.
func peer(t *testing.T, cfg core.Config) (*transport.NetConn, <-chan error) {
	t.Helper()
	srv, cli := net.Pipe()
	done := make(chan error, 1)
	go func() {
		_, err := stream(transport.NewNetConn(cli), cfg)
		done <- err
	}()
	p := transport.NewNetConn(srv)
	t.Cleanup(func() { p.Close() })
	if m, err := p.Recv(); err != nil || m.Type != wire.MsgHello || m.Channel != cfg.ChannelKey || m.FPS != cfg.FPS {
		t.Fatalf("first message %+v, %v; want the hello", m, err)
	}
	return p, done
}

// TestStreamRefused: a refusal used to log.Fatalf on the pump goroutine.
// It ends the stream with an error carrying the server's reason. stream
// returns only once its message pump has exited, and it closes the
// connection on the way out.
func TestStreamRefused(t *testing.T) {
	cfg, err := clientConfig("taken", "JC", 10, 400, 7, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p, done := peer(t, cfg)
	const reason = `channel "taken" is already live`
	if err := p.Send(&wire.Message{Type: wire.MsgBye, Channel: "taken", Reason: reason}); err != nil {
		t.Fatal(err)
	}
	// Like a server's socket buffer, the peer takes whatever the client
	// still sends until the client hangs up.
	hungUp := make(chan struct{})
	go func() {
		defer close(hungUp)
		for {
			if _, err := p.Recv(); err != nil {
				return
			}
		}
	}()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), reason) {
			t.Fatalf("stream returned %v, want the refusal reason %q", err, reason)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not end on the refusal")
	}
	select {
	case <-hungUp:
	case <-time.After(30 * time.Second):
		t.Fatal("stream returned without closing the connection")
	}
}

// TestStreamHangUp: a server that closes the connection ends the stream with
// an error, without waiting for a send to fail.
func TestStreamHangUp(t *testing.T) {
	cfg, err := clientConfig("gone", "JC", 1, 400, 7, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	p, done := peer(t, cfg)
	p.Close()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), "hung up") {
			t.Fatalf("stream returned %v, want a hang-up error", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("stream did not end on the hang-up")
	}
}

// TestStreamSession: a whole short stream against a scripted server. The
// client sends frames and scheduler-paced patches, takes a MsgStats
// carrying the epoch feedback, and ends with MsgBye once the duration has
// passed.
func TestStreamSession(t *testing.T) {
	cfg, err := clientConfig("demo", "JC", 30, 400, 7, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	p, done := peer(t, cfg)
	counts := map[wire.MsgType]int{}
	for counts[wire.MsgBye] == 0 {
		m, err := p.Recv()
		if err != nil {
			t.Fatalf("after %v: %v", counts, err)
		}
		counts[m.Type]++
		if m.Type == wire.MsgVideo && counts[wire.MsgVideo] == 5 {
			if err := p.Send(&wire.Message{Type: wire.MsgStats, GainDB: 1, PrevGainDB: 0.5, PatchKbps: 20, Epochs: 1, Samples: 3}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("stream: %v", err)
	}
	if counts[wire.MsgVideo] < 10 || counts[wire.MsgPatch] == 0 {
		t.Fatalf("messages %v: want a second of 30 fps video and some patches", counts)
	}
}
