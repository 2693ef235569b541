package exp

import (
	"context"
	"strings"
	"testing"
	"time"

	"livenas/internal/edge"
	"livenas/internal/sweep"
)

// TestFigEdgeWorkerInvariant is the edge determinism acceptance gate: the
// fan-out table must be byte-identical whether the ingest sessions run on
// 1, 2 or 8 sweep workers (the fan-out sims themselves are inline and
// virtual-clocked).
func TestFigEdgeWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full ingest sessions")
	}
	o := fastOpts()
	o.EdgeMaxViewers = 100 // sweep 10 and 100 viewers; 1000 is for the full harness
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		r := sweep.New(context.Background(), sweep.Options{Workers: workers, Cache: cache})
		return FigEdge(o, r).String()
	}
	base := render(1)
	golden(t, "edge", base)
	for _, w := range []int{2, 8} {
		if got := render(w); got != base {
			t.Fatalf("edge table differs between 1 and %d workers:\n%s\nvs\n%s", w, base, got)
		}
	}
	// Structure: a direct and a tree row per viewer count, and the tree
	// must cut origin egress (the "saving" column carries a multiplier).
	tb := FigEdge(o, sweep.New(context.Background(), sweep.Options{Workers: 2, Cache: cache}))
	if len(tb.Rows) != 4 {
		t.Fatalf("edge rows %d, want 4 (direct+tree x 10/100 viewers):\n%s", len(tb.Rows), tb)
	}
	for i := 1; i < len(tb.Rows); i += 2 {
		saving := tb.Rows[i][len(tb.Rows[i])-1]
		if !strings.HasPrefix(saving, "x") {
			t.Fatalf("tree row %d has no egress saving: %v", i, tb.Rows[i])
		}
	}
}

// TestEdgeBenchPlanDeterministic pins the edge layer's virtual-time
// figures on a fixed plan of six tree fan-outs (a constant quality boost
// instead of an ingest session, so only the edge layer is in play).
// Delivery latency is pure simulated time: any drift on any host means the
// fan-out itself changed or went nondeterministic.
func TestEdgeBenchPlanDeterministic(t *testing.T) {
	o := DefaultOptions()
	var viewers, delivered int
	var p99 time.Duration
	for i, n := range []int{40, 40, 80, 80, 120, 120} {
		c := edgeSimFor(o, 1.3, n, false)
		c.Links.ViewerKbps = edge.DefaultViewerKbps(n, int64(300+i))
		r, err := edge.RunSim(c)
		if err != nil {
			t.Fatal(err)
		}
		viewers += r.Viewers
		delivered += r.Delivered
		p99 = max(p99, r.DeliveryP99)
	}
	const wantP99 = 851476029 * time.Nanosecond // 851.476029 ms
	if viewers != 480 || delivered != 11520 || p99 != wantP99 {
		t.Fatalf("edge plan: %d viewers, %d delivered, worst delivery p99 %v; want 480, 11520, %v",
			viewers, delivered, p99, wantP99)
	}
}
