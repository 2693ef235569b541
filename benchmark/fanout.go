package main

import (
	"fmt"
	"sort"
	"time"

	"livenas/internal/abr"
	"livenas/internal/edge"
	"livenas/internal/sim"
	"livenas/internal/transport"
	"livenas/internal/wire"
)

// edge_fanout: a batch job on the virtual clock. edge.RunSim fans Segments
// one-second segments of the abr.Ladder rungs out to Viewers viewers
// through the two-tier relay tree (primary leg), then again with every
// viewer attached straight to the origin (secondary leg). Viewers are
// open-loop in virtual time; in wall time the simulator just runs as fast
// as it can.
//
// RunSim is monolithic, so the traced iterations rebuild the identical
// topology from NewOrigin/NewRelay/NewViewer/NewSimConnPair with a span
// around every handler, and must reproduce RunSim's Result exactly.

var (
	opSimRun        = defOp("transport", "simconn+sim")
	opSynthPayload  = defOp("edge", "synthetic_payload")
	opOriginPublish = defOp("edge", "origin_publish")
	opOriginHandle  = defOp("edge", "origin_handle")
	opRelayUp       = defOp("edge", "relay_up")
	opRelayDown     = defOp("edge", "relay_down")
	opViewerHandle  = defOp("edge", "viewer_handle")
	opViewerAttach  = defOp("edge", "viewer_attach")
	opViewerTimer   = defOp("edge", "viewer_timer")
	opViewerFinish  = defOp("edge", "viewer_finish")
	opAbrNext       = defOp("abr", "next")
)

// fanoutConfig spells out every field RunSim would default, so the traced
// topology needs no access to the package's unexported defaults.
func fanoutConfig(sz sizes, seed int64, direct bool) edge.SimConfig {
	var rungs []edge.RungInfo
	for _, r := range abr.Ladder(false) {
		rungs = append(rungs, edge.RungInfo{Name: r.Name, Kbps: r.Kbps, EffectiveKbps: r.EffectiveKbps})
	}
	return edge.SimConfig{
		Source:  &edge.Source{Channel: "ch000", SegDur: time.Second, Rungs: rungs, Count: sz.Segments, StartAt: time.Second},
		Viewers: sz.Viewers,
		Fanout:  sz.Fanout,
		Window:  6,
		Direct:  direct,
		NewAlg:  func() abr.Algorithm { return &abr.RobustMPC{} },
		Links: edge.SimLinks{
			OriginKbps:  200_000,
			RelayKbps:   100_000,
			HopDelay:    10 * time.Millisecond,
			ViewerKbps:  edge.DefaultViewerKbps(sz.Viewers, 77+seed),
			ViewerDelay: 20 * time.Millisecond,
			QueueBytes:  2 << 20,
		},
	}
}

// spanClock gives viewers a clock whose timer callbacks are spans.
type spanClock struct {
	edge.SimClock
	tk *Track
}

func (c spanClock) After(d time.Duration, fn func()) {
	c.SimClock.After(d, func() {
		c.tk.Begin(opViewerTimer)
		fn()
		c.tk.End()
	})
}

// spanAlg is the timing decorator injected through SimConfig.NewAlg.
type spanAlg struct {
	abr.Algorithm
	tk *Track
}

func (a spanAlg) Next(rungs []abr.Rung, thr []float64, buffer time.Duration) int {
	a.tk.Begin(opAbrNext)
	r := a.Algorithm.Next(rungs, thr, buffer)
	a.tk.End()
	return r
}

// fanoutCounts is what only the traced topology can see.
type fanoutCounts struct {
	events                 int   // simulator events executed
	relayReqs, upstreamReq int64 // segment requests into relays / forwarded upstream
}

// tracedFanout is RunSim rebuilt from the exported actors, statement for
// statement, with spans around every call into them.
func tracedFanout(cfg edge.SimConfig, tk *Track) (*edge.Result, fanoutCounts) {
	var n fanoutCounts
	src := cfg.Source
	s := sim.New()
	clock := edge.SimClock{S: s}
	tel := edge.NewTelemetry(nil)

	origin := edge.NewOrigin(clock, cfg.Window, tel)
	origin.AddChannel(src.Channel, src.SegDur, src.Rungs)
	originHandle := func(c transport.Conn, m *wire.Message) {
		if m.Type == wire.MsgSegmentReq && !cfg.Direct {
			n.upstreamReq++
		}
		tk.Begin(opOriginHandle)
		origin.Handle(c, m)
		tk.End()
	}

	relayLink := func(kbps float64) transport.SimLinkConfig {
		return transport.SimLinkConfig{Kbps: kbps, Delay: cfg.Links.HopDelay}
	}
	nL2 := (cfg.Viewers + cfg.Fanout - 1) / cfg.Fanout
	nL1 := (nL2 + cfg.Fanout - 1) / cfg.Fanout
	if cfg.Direct {
		nL1, nL2 = 0, 0
	}

	var relays []*edge.Relay
	newRelayUnder := func(parent func(transport.Conn, *wire.Message), kbps float64) *edge.Relay {
		pc, cc := transport.NewSimConnPair(s, relayLink(kbps), relayLink(kbps))
		pc.OnMessage(func(m *wire.Message) { parent(pc, m) })
		r := edge.NewRelay(clock, cc, tel)
		cc.OnMessage(func(m *wire.Message) {
			tk.Begin(opRelayUp)
			r.HandleUpstream(m)
			tk.End()
		})
		relays = append(relays, r)
		return r
	}
	// down wraps a relay's downstream handler; requests arriving from a
	// deeper relay are that relay's forwarded misses.
	down := func(r *edge.Relay, fromRelay bool) func(transport.Conn, *wire.Message) {
		return func(c transport.Conn, m *wire.Message) {
			if m.Type == wire.MsgSegmentReq {
				n.relayReqs++
				if fromRelay {
					n.upstreamReq++
				}
			}
			tk.Begin(opRelayDown)
			r.HandleDownstream(c, m)
			tk.End()
		}
	}
	l1 := make([]*edge.Relay, nL1)
	for i := range l1 {
		l1[i] = newRelayUnder(originHandle, cfg.Links.OriginKbps)
		l1[i].Subscribe(src.Channel)
	}
	l2 := make([]*edge.Relay, nL2)
	for i := range l2 {
		l2[i] = newRelayUnder(down(l1[i/cfg.Fanout], true), cfg.Links.RelayKbps)
		l2[i].Subscribe(src.Channel)
	}

	viewers := make([]*edge.Viewer, cfg.Viewers)
	downlinks := make([]*transport.SimConn, cfg.Viewers)
	for i := range viewers {
		v := edge.NewViewer(spanClock{clock, tk}, edge.ViewerConfig{
			Channel: src.Channel,
			Alg:     spanAlg{cfg.NewAlg(), tk},
		}, tel)
		kbps := cfg.Links.ViewerKbps[i%len(cfg.Links.ViewerKbps)]
		dl := transport.SimLinkConfig{Kbps: kbps, Delay: cfg.Links.ViewerDelay, QueueBytes: cfg.Links.QueueBytes}
		ul := transport.SimLinkConfig{Kbps: kbps, Delay: cfg.Links.ViewerDelay}
		pc, vc := transport.NewSimConnPair(s, dl, ul)
		parent := originHandle
		if !cfg.Direct {
			parent = down(l2[i/cfg.Fanout], false)
		}
		pc.OnMessage(func(m *wire.Message) { parent(pc, m) })
		vc.OnMessage(func(m *wire.Message) {
			tk.Begin(opViewerHandle)
			v.Handle(m)
			tk.End()
		})
		viewers[i], downlinks[i] = v, pc
		at := src.StartAt + time.Duration(i)*src.SegDur/time.Duration(cfg.Viewers)
		s.At(at, func() {
			tk.Begin(opViewerAttach)
			v.Attach(vc)
			tk.End()
		})
	}

	for i := 0; i < src.Count; i++ {
		idx := i
		s.At(src.StartAt+time.Duration(i)*src.SegDur, func() {
			tk.Begin(opSynthPayload)
			payloads := make([][]byte, len(src.Rungs))
			for r, rung := range src.Rungs {
				payloads[r] = edge.SyntheticPayload(src.Channel, idx, r, int(rung.Kbps*src.SegDur.Seconds()*1000/8))
			}
			tk.End()
			tk.Begin(opOriginPublish)
			origin.Publish(src.Channel, payloads)
			tk.End()
		})
	}

	// One event per step, so events are counted; otherwise RunUntil(end).
	end := src.StartAt + time.Duration(src.Count)*src.SegDur + 8*src.SegDur
	tk.Begin(opSimRun)
	for {
		at, ok := s.Next()
		if !ok || at > end {
			break
		}
		s.StepUntil(at, 1)
		n.events++
	}
	s.RunUntil(end)
	tk.End()

	res := &edge.Result{
		Viewers: cfg.Viewers, RelaysL1: nL1, RelaysL2: nL2, Fanout: cfg.Fanout,
		SegmentsPublished: src.Count,
		OriginEgressBytes: origin.EgressBytes(),
	}
	for _, r := range relays {
		res.RelayEgressBytes += r.EgressBytes()
	}
	for _, d := range downlinks {
		res.DroppedMsgs += d.Dropped()
	}
	var lats []time.Duration
	tk.Begin(opViewerFinish)
	for _, v := range viewers {
		st := v.Finish()
		res.Delivered += st.Played
		res.Skipped += st.Skipped
		res.Duplicates += st.Duplicates
		res.Timeouts += st.Timeouts
		res.ViewerBytes += st.Bytes
		res.StallSec += st.Stall.Seconds()
		res.MeanKbps += st.KbpsSum
		res.MeanEffKbps += st.EffSum
		lats = append(lats, st.Latencies...)
	}
	tk.End()
	if res.Delivered > 0 {
		res.MeanKbps /= float64(res.Delivered)
		res.MeanEffKbps /= float64(res.Delivered)
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if k := len(lats); k > 0 {
		res.DeliveryP50 = lats[(k-1)*50/100]
		res.DeliveryP99 = lats[(k-1)*99/100]
	}
	return res, n
}

func edgeFanout(e *env) error {
	e.beginSetup()
	type legs struct{ tree, direct edge.SimConfig }
	cfg := repeatSetup(e, func() legs {
		return legs{fanoutConfig(e.sz, e.seed, false), fanoutConfig(e.sz, e.seed, true)}
	})
	e.finishSetup()

	var tree, direct *edge.Result // RunSim's results: the reference
	var counts fanoutCounts
	var objects, bytes float64
	runLeg := func(cfg edge.SimConfig, tk *Track, ref **edge.Result) (leg, error) {
		t0 := time.Now()
		var res *edge.Result
		var err error
		if tk == nil {
			o, b := allocDelta(func() { res, err = edge.RunSim(cfg) })
			if !cfg.Direct {
				objects, bytes = o, b
			}
		} else {
			var n fanoutCounts
			res, n = tracedFanout(cfg, tk)
			counts.events += n.events
			counts.relayReqs += n.relayReqs
			counts.upstreamReq += n.upstreamReq
		}
		wall := time.Since(t0)
		if err != nil {
			return leg{}, err
		}
		if *ref == nil {
			*ref = res
		}
		// Every run of one config, traced or not, must agree exactly.
		e.check(*res == **ref, "edge_fanout: results differ between runs of one config (traced=%v):\n got %+v\nwant %+v", tk != nil, *res, **ref)
		return leg{ops: float64(res.Delivered), wall: wall}, nil
	}
	err := e.measure(func(i int, tk *Track) (leg, leg, error) {
		a, err := runLeg(cfg.tree, tk, &tree)
		if err != nil {
			return a, a, err
		}
		b, err := runLeg(cfg.direct, tk, &direct)
		return a, b, err
	})
	if err != nil {
		return err
	}

	want := e.sz.Viewers * e.sz.Segments
	for _, r := range []*edge.Result{tree, direct} {
		mode := fmt.Sprintf("edge_fanout (relays %d)", r.RelaysL1+r.RelaysL2)
		e.attempted += r.Delivered + r.Skipped + r.Timeouts
		e.failed += r.Skipped + r.Timeouts
		// Every (viewer, index) is delivered or skipped, bar the fetches
		// still in flight when the run ends (under 1%).
		got := r.Delivered + r.Skipped
		e.check(got <= want && got*100 >= want*99, "%s: delivered %d + skipped %d does not account for %d viewer-segments", mode, r.Delivered, r.Skipped, want)
		e.check(r.Skipped+r.Timeouts == 0, "%s: %d skipped, %d timeouts", mode, r.Skipped, r.Timeouts)
	}
	e.set("virt.delivery_p99_ms", ms(max(tree.DeliveryP99, direct.DeliveryP99)))
	e.set("virt.stall_ms_per_viewer", tree.StallSec*1000/float64(tree.Viewers))
	e.set("edge.dropped_msgs", float64(tree.DroppedMsgs+direct.DroppedMsgs))
	e.set("edge.origin_egress_mb_tree", float64(tree.OriginEgressBytes)/1e6)
	e.set("edge.origin_egress_mb_direct", float64(direct.OriginEgressBytes)/1e6)
	e.set("edge.allocs_per_delivery", objects/float64(tree.Delivered))
	e.set("edge.alloc_kb_per_delivery", bytes/1024/float64(tree.Delivered))
	if !e.trace {
		return nil
	}
	agg := e.foldTrace()
	e.set("edge.origin_publish_ms", agg.mean(opOriginPublish, time.Millisecond))
	e.set("edge.origin_handle_us", agg.mean(opOriginHandle, time.Microsecond))
	e.set("edge.origin_share", agg.share(opOriginPublish, opOriginHandle, opSynthPayload))
	e.set("edge.relay_up_us", agg.mean(opRelayUp, time.Microsecond))
	e.set("edge.relay_down_us", agg.mean(opRelayDown, time.Microsecond))
	e.set("edge.relay_share", agg.share(opRelayUp, opRelayDown))
	e.set("edge.relay_hit_ratio", 1-float64(counts.upstreamReq)/float64(counts.relayReqs))
	e.set("edge.viewer_handle_us", agg.selfMean(opViewerHandle, time.Microsecond))
	e.set("edge.viewer_share", agg.share(opViewerHandle, opViewerAttach, opViewerTimer, opViewerFinish))
	e.set("abr.next_us", agg.mean(opAbrNext, time.Microsecond))
	e.set("abr.share", agg.share(opAbrNext))
	e.set("transport.simconn_share", agg.share(opSimRun))
	e.set("sim.edge_events", float64(counts.events)/agg.count(opBenchIter)) // per traced iteration, both legs
	e.set("sim.edge_event_ns", float64(agg.ops[opSimRun].self.Nanoseconds())/float64(counts.events))
	return nil
}
