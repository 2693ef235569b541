package fleet

import (
	"errors"
	"slices"
	"testing"
	"time"

	"livenas/internal/core"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// testCfg mirrors core's reduced-resolution test geometry (1/25 of the
// paper's 1080p sessions) so fleet tests stay fast.
func testCfg(seed int64, dur time.Duration) core.Config {
	return core.Config{
		Cat:           vidgen.JustChatting,
		Seed:          seed,
		Native:        trace.Resolution{Name: "384x216", W: 384, H: 216},
		Ingest:        trace.Resolution{Name: "192x108", W: 192, H: 108},
		FPS:           10,
		Duration:      dur,
		Scheme:        core.SchemeLiveNAS,
		PatchSize:     24,
		MetricEvery:   2 * time.Second,
		Channels:      6,
		MinVideoKbps:  40,
		GCCInitKbps:   160,
		MTU:           240,
		StepKbps:      20,
		InitPatchKbps: 20,
		MinPatchKbps:  5,
		Trace:         trace.FCCUplink(seed+11, dur+time.Minute, 250),
	}
}

func spec(key string, at time.Duration, seed int64, dur time.Duration) StreamSpec {
	return StreamSpec{Key: key, ArriveAt: at, Cfg: testCfg(seed, dur), Weight: 1}
}

func TestDuplicateChannelKey(t *testing.T) {
	m := NewManager(Options{GPUs: 4})
	if _, err := m.Register(spec("alice", 0, 1, 30*time.Second)); err != nil {
		t.Fatalf("first register: %v", err)
	}
	_, err := m.Register(spec("alice", time.Second, 2, 30*time.Second))
	var dup ErrDuplicateKey
	if !errors.As(err, &dup) || dup.Key != "alice" {
		t.Fatalf("duplicate live key: got %v, want ErrDuplicateKey{alice}", err)
	}
	// After the stream departs, the key is free for a new session.
	if err := m.Teardown("alice"); err != nil {
		t.Fatalf("teardown: %v", err)
	}
	if _, err := m.Register(spec("alice", 2*time.Second, 3, 30*time.Second)); err != nil {
		t.Fatalf("re-register after teardown: %v", err)
	}
	if _, err := m.Register(StreamSpec{Key: "", ArriveAt: 3 * time.Second, Cfg: testCfg(4, time.Minute)}); err == nil {
		t.Fatal("empty channel key admitted")
	}
}

func TestRejectionUnderFullPoolEmitsBackpressure(t *testing.T) {
	reg := telemetry.New()
	m := NewManager(Options{GPUs: 2, MaxGPUsPerStream: 1, Policy: PolicyReject, Telemetry: reg})
	for i, key := range []string{"a", "b", "c"} {
		s, err := m.Register(spec(key, 0, int64(i+1), time.Minute))
		if err != nil {
			t.Fatalf("register %s: %v", key, err)
		}
		if i < 2 && s.State != StateIngesting {
			t.Fatalf("stream %s: state %s, want ingesting", key, s.State)
		}
		if i == 2 && s.State != StateRejected {
			t.Fatalf("stream c: state %s, want rejected", s.State)
		}
	}
	snap := reg.Snapshot()
	if got := snap.Counters["fleet_streams_rejected"]; got != 1 {
		t.Fatalf("fleet_streams_rejected = %d, want 1", got)
	}
	var sawBP, sawReject bool
	for _, ev := range reg.Events() {
		switch ev.Type {
		case "fleet_backpressure":
			sawBP = true
		case "fleet_reject":
			sawReject = true
		}
	}
	if !sawBP || !sawReject {
		t.Fatalf("backpressure/reject events: got %v/%v, want both", sawBP, sawReject)
	}
}

func TestDegradePolicyAdmitsWithoutGPU(t *testing.T) {
	m := NewManager(Options{GPUs: 1, MaxGPUsPerStream: 1, Policy: PolicyDegrade})
	if _, err := m.Register(spec("a", 0, 1, time.Minute)); err != nil {
		t.Fatal(err)
	}
	s, err := m.Register(spec("b", 0, 2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if !s.Degraded || s.GPUs != 0 || s.State != StateIngesting {
		t.Fatalf("over-capacity stream: degraded=%v gpus=%d state=%s", s.Degraded, s.GPUs, s.State)
	}
	if s.Cfg.Scheme != core.SchemeWebRTC {
		t.Fatalf("degraded scheme %v, want WebRTC (bilinear fallback)", s.Cfg.Scheme)
	}
	if m.Pool().InUse() != 1 {
		t.Fatalf("pool in use %d, want 1 (degraded stream holds no slot)", m.Pool().InUse())
	}
}

func TestQueueReadmissionAfterCapacityFrees(t *testing.T) {
	m := NewManager(Options{GPUs: 1, MaxGPUsPerStream: 1, Policy: PolicyQueue})
	a, err := m.Register(spec("a", 0, 1, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Register(spec("b", 10*time.Second, 2, 30*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	if b.State != StateQueued || m.QueueDepth() != 1 {
		t.Fatalf("b: state %s queue %d, want queued/1", b.State, m.QueueDepth())
	}
	// a departs at t=30s; b should be admitted exactly then, having waited
	// 20s of virtual time under backpressure.
	m.Finish()
	if a.State != StateTorndown {
		t.Fatalf("a: state %s, want torndown", a.State)
	}
	if b.State != StateTorndown || b.AdmitAt != 30*time.Second {
		t.Fatalf("b: state %s admit at %v, want torndown at 30s", b.State, b.AdmitAt)
	}
	if got := b.AdmitLatency(); got != 20*time.Second {
		t.Fatalf("b admit latency %v, want 20s", got)
	}
	if m.Pool().InUse() != 0 {
		t.Fatalf("pool in use %d after drain, want 0", m.Pool().InUse())
	}
}

func TestExplicitTeardownFreesQueuedStream(t *testing.T) {
	m := NewManager(Options{GPUs: 1, MaxGPUsPerStream: 1, Policy: PolicyQueue})
	if _, err := m.Register(spec("a", 0, 1, time.Minute)); err != nil {
		t.Fatal(err)
	}
	b, err := m.Register(spec("b", time.Second, 2, time.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Teardown("a"); err != nil {
		t.Fatal(err)
	}
	if b.State != StateIngesting || b.AdmitAt != time.Second {
		t.Fatalf("b after a's teardown: state %s admit %v, want ingesting at 1s", b.State, b.AdmitAt)
	}
	if err := m.Teardown("nope"); err == nil {
		t.Fatal("teardown of unknown key succeeded")
	}
}

// TestTeardownMidEpochReleasesPool tears a live stream down halfway
// through its session and checks its GPU slots return to the pool at once,
// its scheduled departure is cancelled (draining the node later releases
// nothing twice) and the key's state is final. Cancelling the session's
// execution itself is the runner's and core's contract (sweep's
// TestCancellation, core's TestRunContextCancellation).
func TestTeardownMidEpochReleasesPool(t *testing.T) {
	m := NewManager(Options{GPUs: 2})
	s, err := m.Register(StreamSpec{Key: "live", Cfg: testCfg(5, 30*time.Second), Weight: 1})
	if err != nil {
		t.Fatal(err)
	}
	if s.GPUs == 0 || m.Pool().InUse() != s.GPUs {
		t.Fatalf("admitted stream holds %d GPUs, pool in use %d", s.GPUs, m.Pool().InUse())
	}
	m.AdvanceTo(12 * time.Second) // mid-session: the 30 s stream is still live
	if err := m.Teardown("live"); err != nil {
		t.Fatal(err)
	}
	if m.Pool().InUse() != 0 {
		t.Fatalf("pool in use %d after teardown, want 0", m.Pool().InUse())
	}
	if s.State != StateTorndown || s.DepartAt != 12*time.Second {
		t.Fatalf("after teardown: state %s depart %v, want torndown at 12s", s.State, s.DepartAt)
	}
	m.Finish()
	if m.Pool().InUse() != 0 || m.Pool().Free() != m.Pool().Total() {
		t.Fatalf("pool in use %d free %d after drain, want 0/%d", m.Pool().InUse(), m.Pool().Free(), m.Pool().Total())
	}
}

// TestTeardownEveryState: Teardown's switch over State has no default, so a
// state added without a case there would fall through to the live path and
// release slots it may not hold. Every state below numStates needs a row
// here. Each row builds a one-GPU node with "a" ingesting and "b" and "c"
// queued (PolicyQueue) or rejected (PolicyReject), brings key into the
// state, tears it down and checks the outcome: the key's state after, the
// slots the teardown freed (counting those the queue then took) and the
// keys still queued.
func TestTeardownEveryState(t *testing.T) {
	type row struct {
		policy Policy
		key    string
		prep   func(m *Manager) // brings key into the state, if Register does not
		after  State
		freed  int
		queue  []string
	}
	want := map[State]row{
		// Register never leaves a stream registered, so a is forced back
		// mid-admission; teardown frees its slot but only finalises an
		// ingesting stream.
		StateRegistered: {policy: PolicyQueue, key: "a", prep: func(m *Manager) { m.Lookup("a").State = StateRegistered },
			after: StateRegistered, freed: 1, queue: []string{"c"}},
		StateQueued:    {policy: PolicyQueue, key: "b", after: StateTorndown, freed: 0, queue: []string{"c"}},
		StateIngesting: {policy: PolicyQueue, key: "a", after: StateTorndown, freed: 1, queue: []string{"c"}},
		StateRejected:  {policy: PolicyReject, key: "b", after: StateRejected, freed: 0, queue: nil},
		StateTorndown: {policy: PolicyQueue, key: "a", prep: func(m *Manager) { _ = m.Teardown("a") },
			after: StateTorndown, freed: 0, queue: []string{"c"}},
	}
	for st := State(0); st < numStates; st++ {
		r, ok := want[st]
		if !ok {
			t.Errorf("State %d (%v) has no row: add it here and a case to Teardown's switch", int(st), st)
			continue
		}
		m := NewManager(Options{GPUs: 1, MaxGPUsPerStream: 1, Policy: r.policy})
		for i, key := range []string{"a", "b", "c"} {
			if _, err := m.Register(spec(key, time.Duration(i)*time.Second, int64(i+1), time.Minute)); err != nil {
				t.Fatal(err)
			}
		}
		if r.prep != nil {
			r.prep(m)
		}
		s := m.Lookup(r.key)
		if s.State != st {
			t.Fatalf("row %v: %s is %v before teardown", st, r.key, s.State)
		}
		inUse := m.Pool().InUse()
		queued := map[string]bool{}
		for _, q := range m.queue {
			queued[q.Key] = true
		}
		if err := m.Teardown(r.key); err != nil {
			t.Fatalf("row %v: %v", st, err)
		}
		freed := inUse - m.Pool().InUse()
		for _, o := range m.Sessions() {
			if queued[o.Key] && o.State == StateIngesting {
				freed += o.GPUs // admitted from the queue into the freed slot
			}
		}
		var queue []string
		for _, q := range m.queue {
			queue = append(queue, q.Key)
		}
		if s.State != r.after || freed != r.freed || !slices.Equal(queue, r.queue) {
			t.Errorf("Teardown of a %v stream: state %v, %d slots freed, queue %v; want %v, %d, %v",
				st, s.State, freed, queue, r.after, r.freed, r.queue)
		}
	}
}
