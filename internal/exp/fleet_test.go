package exp

import (
	"context"
	"strconv"
	"testing"
	"time"

	"livenas/internal/fleet"
	"livenas/internal/sweep"
)

// TestFigFleetWorkerInvariant is the fleet determinism acceptance gate:
// the N×M admission-policy table must be byte-identical whether its
// sessions execute on 1, 2 or 8 sweep workers.
func TestFigFleetWorkerInvariant(t *testing.T) {
	if testing.Short() {
		t.Skip("runs full fleet sessions")
	}
	o := fastOpts()
	o.FleetStreams = 4
	// A shared on-disk cache across the worker-count runs: determinism is
	// about execution order, and by the sweep contract a cached result is
	// bitwise the computed one, so re-running identical sessions per worker
	// count would only re-prove core determinism (covered elsewhere).
	cache, err := sweep.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	render := func(workers int) string {
		r := sweep.New(context.Background(), sweep.Options{Workers: workers, Cache: cache})
		return FigFleet(o, r).String()
	}
	base := render(1)
	golden(t, "fleet", base)
	for _, w := range []int{2, 8} {
		if got := render(w); got != base {
			t.Fatalf("fleet table differs between 1 and %d workers:\n%s\nvs\n%s", w, base, got)
		}
	}
	// Structure: one row per policy, and the policies must show their
	// signatures under contention (4 streamers, 2 GPUs, overlapping
	// arrivals): reject refuses streams, degrade refuses none but degrades
	// some, queue neither refuses nor degrades.
	tb := FigFleet(o, sweep.New(context.Background(), sweep.Options{Workers: 2, Cache: cache}))
	if len(tb.Rows) != 3 {
		t.Fatalf("fleet rows %d, want 3 policies", len(tb.Rows))
	}
	cell := func(row, col int) int {
		v, err := strconv.Atoi(tb.Rows[row][col])
		if err != nil {
			t.Fatalf("row %d col %d %q not an int", row, col, tb.Rows[row][col])
		}
		return v
	}
	if cell(0, 3) == 0 {
		t.Fatalf("reject policy refused nothing: %v", tb.Rows[0])
	}
	if cell(1, 2) == 0 || cell(1, 3) != 0 {
		t.Fatalf("degrade policy: %v", tb.Rows[1])
	}
	if cell(2, 2) != 0 || cell(2, 3) != 0 {
		t.Fatalf("queue policy refused streams: %v", tb.Rows[2])
	}
}

// TestFleetBenchPlanAdmissionPin pins the fleet layer's virtual-time
// admission figures on a fixed plan: the default 6 streamers on 2 GPUs
// under PolicyQueue, arrivals every 5 s into 20 s sessions (4x overlap).
// BuildPlan computes the whole timeline before any session executes, so
// the pin runs no sessions; any drift on any host means the admission plan
// itself changed or went nondeterministic.
func TestFleetBenchPlanAdmissionPin(t *testing.T) {
	o := DefaultOptions()
	o.Duration = 20 * time.Second
	p, err := fleet.BuildPlan(FleetSpecs(o, o.fleetStreams()),
		fleet.Options{GPUs: o.fleetGPUs(), Policy: fleet.PolicyQueue})
	if err != nil {
		t.Fatal(err)
	}
	st := p.Stats()
	const wantP99 = 75 * time.Second
	if st.Streams != 6 || p.M.Pool().Total() != 2 || st.Admitted+st.Degraded != 6 || st.AdmitP99 != wantP99 {
		t.Fatalf("fleet plan: %d streams on %d GPUs, %d sessions, admit p99 %v; want 6 on 2, 6 sessions, %v",
			st.Streams, p.M.Pool().Total(), st.Admitted+st.Degraded, st.AdmitP99, wantP99)
	}
}
