// Command livenas-client runs LiveNAS's ingest client (core.Client) over
// real TCP: it captures synthetic live video, and the quality-optimizing
// scheduler (§5.1) splits the -kbps uplink budget between the stream and
// quality-filtered training patches (§5.2), steered by the feedback
// livenas-server sends every training epoch. TCP carries no per-packet acks,
// so the congestion controller's target stays at -kbps, and no key-frame
// requests: the periodic key frames resynchronise the server's decoder.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"log"
	"math"
	"time"

	"livenas/internal/core"
	"livenas/internal/edge"
	"livenas/internal/trace"
	"livenas/internal/transport"
	"livenas/internal/vidgen"
	"livenas/internal/wire"
)

func main() {
	var (
		connect  = flag.String("connect", "127.0.0.1:9455", "server address")
		duration = flag.Duration("duration", 20*time.Second, "stream duration")
		fps      = flag.Float64("fps", 10, "frame rate, in [1, 120] as the server admits")
		kbps     = flag.Float64("kbps", 400, "uplink budget the scheduler splits between video and patches")
		cat      = flag.String("category", "JC", "content category (LoL, JC, WoW, EFT, FN, PC, SP, LE, FC)")
		seed     = flag.Int64("seed", 7, "session seed")
		channel  = flag.String("channel", "demo", "channel key identifying this stream to the server")
	)
	flag.Parse()
	cfg, err := clientConfig(*channel, *cat, *fps, *kbps, *seed, *duration)
	var conn *transport.NetConn
	if err == nil {
		conn, err = transport.Dial(*connect)
	}
	if err != nil {
		log.Fatal(err)
	}
	frames, err := stream(conn, cfg)
	if err != nil {
		log.Fatalf("stream %q ended after %d frames: %v", *channel, frames, err)
	}
	log.Printf("streamed %d frames", frames)
}

// clientConfig turns the flags into the session's defaulted core.Config: the
// demo's 192x108 ingest of a 384x216 frame with ExampleRun's
// reduced-scale scheduler constants, at a rate livenas-server admits.
func clientConfig(channel, cat string, fps, kbps float64, seed int64, dur time.Duration) (core.Config, error) {
	if !(fps >= 1 && fps <= 120 && kbps > 0 && kbps < math.Inf(1)) {
		return core.Config{}, fmt.Errorf("-fps %g must be in [1, 120] and -kbps %g positive and finite", fps, kbps)
	}
	for _, c := range vidgen.Categories() {
		if c.String() == cat {
			return core.Config{
				ChannelKey: channel, Cat: c, Seed: seed, FPS: fps, Duration: dur, Scheme: core.SchemeLiveNAS,
				Native: trace.Resolution{W: 384, H: 216}, Ingest: trace.Resolution{W: 192, H: 108},
				PatchSize: 24, MinVideoKbps: 40, StepKbps: 20, InitPatchKbps: 20, MinPatchKbps: 5,
				GCCInitKbps: kbps,
			}.Defaulted(), nil
		}
	}
	return core.Config{}, fmt.Errorf("-category %q is none of %v", cat, vidgen.Categories())
}

// stream sends the hello, then drives one core.Client on the wall clock for
// cfg.Duration: a capture every frame interval, a scheduler update every
// cfg.UpdateEvery, each MsgStats fed back. A refusal or a hang-up ends it
// with an error carrying the reason; it returns once its pump has exited.
func stream(conn *transport.NetConn, cfg core.Config) (frames int, err error) {
	defer conn.Close()
	if err := conn.Send(&wire.Message{Type: wire.MsgHello, Channel: cfg.ChannelKey, FPS: cfg.FPS,
		IngestW: cfg.Ingest.W, IngestH: cfg.Ingest.H, NativeW: cfg.Native.W, NativeH: cfg.Native.H}); err != nil {
		return 0, fmt.Errorf("hello: %w", err)
	}
	var sendErr, pumpErr error
	clock, src := edge.NewWallClock(), vidgen.NewSource(cfg.Cat, cfg.Native.W, cfg.Native.H, cfg.Seed, cfg.Duration.Seconds()+10)
	cl, err := core.NewClient(cfg, src, clock.Now, func(u core.Unit) {
		m := &wire.Message{Type: wire.MsgVideo, FrameID: u.FrameID, Key: u.Key, QP: u.QP, X: u.X, Y: u.Y, Data: u.Data}
		if u.Patch {
			m.Type = wire.MsgPatch
		}
		sendErr = cmp.Or(sendErr, conn.Send(m))
	})
	if err != nil {
		return 0, err
	}
	// The pump hands each message to the loop below and closes msgs when the
	// connection ends; on the way out, closing conn ends it.
	msgs := make(chan *wire.Message)
	go func() { pumpErr = transport.Pump(conn, func(m *wire.Message) { msgs <- m }); close(msgs) }()
	defer func() {
		conn.Close()
		for range msgs { // release a pending handoff until the pump exits
		}
	}()
	capture, schedule := time.NewTicker(time.Duration(float64(time.Second)/cfg.FPS)), time.NewTicker(cfg.UpdateEvery)
	defer func() { capture.Stop(); schedule.Stop() }()
	for clock.Now() < cfg.Duration {
		select {
		case <-capture.C:
			if cl.Capture(); sendErr != nil {
				return frames, fmt.Errorf("send: %w", sendErr)
			}
			frames++
		case <-schedule.C:
			cl.Schedule()
		case m, ok := <-msgs:
			switch {
			case !ok:
				return frames, fmt.Errorf("server hung up: %w", pumpErr)
			case m.Type == wire.MsgStats:
				log.Printf("server: epoch %d, SR gain %+.2f dB (%d samples, %.1f patch kbps)", m.Epochs, m.GainDB, m.Samples, m.PatchKbps)
				cl.Feedback(core.Feedback{PrevGainDB: m.PrevGainDB, GainDB: m.GainDB, PatchKbps: m.PatchKbps, Suspended: m.Suspended})
			case m.Type == wire.MsgBye:
				return frames, fmt.Errorf("server refused the stream: %s", m.Reason)
			}
		}
	}
	return frames, conn.Send(&wire.Message{Type: wire.MsgBye})
}
