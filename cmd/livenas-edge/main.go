// Command livenas-edge is the distribution edge over real TCP. In relay
// mode (the default) it subscribes upstream — to livenas-server's origin
// endpoint or to another livenas-edge, so trees stack arbitrarily deep —
// and fans playlists and segments out to downstream subscribers, serving
// segments from a pull-through cache with request coalescing. Each
// downstream connection sends through a bounded drop-oldest queue: a
// viewer that cannot keep up loses stale segments, never the stream.
//
// In viewer mode (-view CHANNEL) it plays a channel instead: subscribe,
// follow the rolling playlist, fetch segments at the rung robustMPC picks,
// and log playback progress.
//
//	livenas-server -listen :9455 -once=false &
//	livenas-edge -connect 127.0.0.1:9455 -listen :9456 &
//	livenas-edge -connect 127.0.0.1:9456 -listen :9457 &          # second tier
//	livenas-client -connect 127.0.0.1:9455 -channel alice &
//	livenas-edge -view alice -connect 127.0.0.1:9457 -duration 30s
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"time"

	"livenas/internal/edge"
	"livenas/internal/transport"
	"livenas/internal/wire"
)

func main() {
	var (
		connect  = flag.String("connect", "127.0.0.1:9455", "upstream address (origin or another relay)")
		listen   = flag.String("listen", ":9456", "downstream TCP listen address (relay mode)")
		view     = flag.String("view", "", "play this channel as a viewer instead of relaying")
		queue    = flag.Int("queue", 1<<20, "per-subscriber send-queue bound in bytes (drop-oldest past it)")
		duration = flag.Duration("duration", 30*time.Second, "viewer mode: how long to play")
	)
	flag.Parse()
	if err := checkQueue(*queue); err != nil {
		log.Fatal(err)
	}

	up, err := transport.Dial(*connect)
	if err != nil {
		log.Fatalf("connect upstream %s: %v", *connect, err)
	}
	// Upstream sends (subscribes, coalesced segment requests) are small
	// control traffic: queued so handlers never block, but never dropped.
	upq := transport.NewQueuedConn(up, 0)
	defer upq.Close()

	clock := edge.NewWallClock()
	tel := edge.NewTelemetry(nil)

	if *view != "" {
		runViewer(clock, tel, upq, *view, *duration)
		return
	}

	relay := edge.NewRelay(clock, upq, tel)
	go func() {
		err := transport.Pump(upq, relay.HandleUpstream)
		log.Fatalf("upstream %s gone: %v", *connect, err)
	}()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		log.Fatalf("listen: %v", err)
	}
	log.Printf("livenas-edge relaying %s on %s (queue %d bytes/subscriber)", *connect, ln.Addr(), *queue)
	for {
		conn, err := ln.Accept()
		if err != nil {
			log.Fatalf("accept: %v", err)
		}
		// One pump goroutine per downstream subscriber; sends go through a
		// bounded drop-oldest queue so one slow viewer never stalls the
		// relay's handlers or its other subscribers.
		go func(c net.Conn) {
			qc := transport.NewQueuedConn(transport.NewNetConn(c), *queue)
			defer qc.Close()
			log.Printf("subscriber %s connected", c.RemoteAddr())
			err := transport.Pump(qc, func(m *wire.Message) { relay.HandleDownstream(qc, m) })
			relay.RemoveConn(qc)
			log.Printf("subscriber %s gone: %v", c.RemoteAddr(), err)
		}(conn)
	}
}

// checkQueue refuses a -queue that NewQueuedConn would read as unbounded:
// a subscriber that stops reading would then grow the relay's memory
// without limit, the hazard the bound exists to cap.
func checkQueue(bytes int) error {
	if bytes <= 0 {
		return fmt.Errorf("-queue %d must be positive", bytes)
	}
	return nil
}

// runViewer plays one channel off the upstream connection and reports
// playback stats on exit.
func runViewer(clock edge.Clock, tel *edge.Telemetry, conn transport.Conn, channel string, dur time.Duration) {
	v := edge.NewViewer(clock, edge.ViewerConfig{
		Channel: channel,
		OnPlay: func(index, rung int) {
			log.Printf("playing segment %d (rung %d)", index, rung)
		},
	}, tel)
	go transport.Pump(conn, v.Handle)
	if err := v.Attach(conn); err != nil {
		log.Fatalf("subscribe %s: %v", channel, err)
	}
	time.Sleep(dur)
	st := v.Finish()
	log.Printf("viewer done: %d segments played, %d skipped, %d timeouts, %d bytes, %.1fs stalled",
		st.Played, st.Skipped, st.Timeouts, st.Bytes, st.Stall.Seconds())
	if st.Played == 0 {
		log.Fatalf("no segments played")
	}
}
