package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestCounterSemantics(t *testing.T) {
	r := New()
	c := r.Counter("x")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("x"); again != c {
		t.Fatal("re-registering a counter must return the same handle")
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("a").Inc()
	r.Histogram("c", []float64{1}).Observe(1)
	r.Emit(0, "ev", Num("k", 1))
	if r.Counter("a").Value() != 0 || r.Histogram("c", nil).Count() != 0 || len(r.Events()) != 0 {
		t.Fatal("nil registry must be a no-op sink")
	}
	var buf bytes.Buffer
	if err := r.WriteEvents(&buf); err != nil || buf.Len() != 0 {
		t.Fatal("nil registry WriteEvents must be empty")
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("lat", []float64{10, 20, 40})
	for v := 1.0; v <= 100; v++ {
		h.Observe(v)
	}
	if h.Count() != 100 {
		t.Fatalf("count = %d, want 100", h.Count())
	}
	if math.Abs(h.Sum()-5050) > 1e-9 {
		t.Fatalf("sum = %v, want 5050", h.Sum())
	}
	// Buckets: (<=10)=10, (10,20]=10, (20,40]=20, overflow=60.
	want := []int64{10, 10, 20, 60}
	for i, w := range want {
		if got := h.counts[i].Load(); got != w {
			t.Fatalf("bucket %d = %d, want %d", i, got, w)
		}
	}
	// p50 rank 50 lands in the overflow bucket -> reported as the last bound.
	if got := h.Quantile(0.5); got != 40 {
		t.Fatalf("p50 = %v, want 40 (overflow attributed to last bound)", got)
	}
	// p05 rank 5 is halfway through the first bucket (0,10].
	if got := h.Quantile(0.05); math.Abs(got-5) > 1e-9 {
		t.Fatalf("p05 = %v, want 5", got)
	}
	if got := h.Quantile(0.15); math.Abs(got-15) > 1e-9 {
		t.Fatalf("p15 = %v, want 15", got)
	}
	if (&Histogram{}).Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile must be 0")
	}
}

func TestBucketHelpers(t *testing.T) {
	exp := ExpBuckets(1, 2, 4)
	if want := []float64{1, 2, 4, 8}; !equalF(exp, want) {
		t.Fatalf("ExpBuckets = %v, want %v", exp, want)
	}
}

func equalF(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestSnapshotDeterminism(t *testing.T) {
	build := func() *Registry {
		r := New()
		r.Counter("frames").Add(42)
		r.Counter("losses").Add(3)
		h := r.Histogram("lat_ms", []float64{1, 10, 100})
		h.Observe(0.5)
		h.Observe(50)
		h.Observe(5000)
		r.Emit(time.Second, "trainer_state", Str("state", "training"))
		return r
	}
	var a, b bytes.Buffer
	if err := build().WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("snapshots of identical state differ:\n%s\nvs\n%s", a.String(), b.String())
	}
	// The JSON must round-trip and carry the overflow bucket as "+Inf".
	if !strings.Contains(a.String(), `"+Inf"`) {
		t.Fatalf("snapshot JSON missing +Inf overflow bucket:\n%s", a.String())
	}
	var decoded map[string]any
	if err := json.Unmarshal(a.Bytes(), &decoded); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
}

func TestEventTraceJSONL(t *testing.T) {
	r := New()
	r.Emit(5*time.Second, "trainer_state", Str("state", "suspended"), Num("gain_cur", 0.41))
	r.Emit(6*time.Second, "scheduler_split", Num("patch_kbps", 20), Num("video_kbps", 140))

	events := r.Events()
	if len(events) != 2 {
		t.Fatalf("retained %d events, want 2", len(events))
	}
	if events[0].StrField("state") != "suspended" || events[0].NumField("gain_cur") != 0.41 {
		t.Fatalf("event fields mangled: %+v", events[0])
	}
	if got := r.EventsByType("scheduler_split"); len(got) != 1 || got[0].T != 6*time.Second {
		t.Fatalf("EventsByType = %+v", got)
	}

	var dump bytes.Buffer
	if err := r.WriteEvents(&dump); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(dump.String(), "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d JSONL lines, want 2", len(lines))
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(lines[0]), &first); err != nil {
		t.Fatalf("line 0 does not parse: %v\n%s", err, lines[0])
	}
	if first["type"] != "trainer_state" || first["t_ms"] != 5000.0 || first["state"] != "suspended" {
		t.Fatalf("line 0 = %v", first)
	}
	// Fields must serialise in sorted key order regardless of call order.
	if !strings.Contains(lines[0], `"gain_cur":0.41,"state":"suspended"`) {
		t.Fatalf("fields not in sorted order: %s", lines[0])
	}
}

func TestEventCapDropsNew(t *testing.T) {
	r := New()
	r.SetEventCap(2)
	for i := 0; i < 5; i++ {
		r.Emit(time.Duration(i)*time.Second, "e")
	}
	if got := len(r.Events()); got != 2 {
		t.Fatalf("retained %d events, want 2", got)
	}
	if r.Events()[0].T != 0 {
		t.Fatal("cap must keep the earliest events")
	}
	if s := r.Snapshot(); s.EventsDropped != 3 || s.Events != 2 {
		t.Fatalf("snapshot events=%d dropped=%d, want 2/3", s.Events, s.EventsDropped)
	}
}

// TestOverheadContract pins the package's cost promises: counter and
// histogram operations never allocate, and neither does anything done
// through a nil registry or a nil handle.
func TestOverheadContract(t *testing.T) {
	r := New()
	c := r.Counter("c")
	h := r.Histogram("h", ExpBuckets(1, 2, 16))
	if n := testing.AllocsPerRun(200, func() {
		c.Inc()
		c.Add(3)
		h.Observe(7)
	}); n != 0 {
		t.Fatalf("counter/histogram path allocates %.1f/op, want 0", n)
	}

	// A nil registry and the nil handles it hands out must also be free.
	var nr *Registry
	nc := nr.Counter("c")
	nh := nr.Histogram("h", ExpBuckets(1, 2, 16))
	if n := testing.AllocsPerRun(200, func() {
		nc.Inc()
		nh.Observe(1)
		nr.Emit(time.Second, "ev", Num("a", 1), Str("b", "x"))
	}); n != 0 {
		t.Fatalf("nil-handle path allocates %.1f/op, want 0", n)
	}
}

func TestSummaryValidateAndRoundTrip(t *testing.T) {
	s := RunSummary{
		Scheme: "LiveNAS", Content: "fortnite", DurationS: 60,
		AvgTargetKbps: 800, AvgVideoKbps: 700, AvgPatchKbps: 100, PatchShare: 0.125,
		TrainerDutyCycle: 0.4, TrainerTransitions: 3,
		InferFrames: 600, InferP50MS: 8.5, InferP99MS: 14.0,
		Counters: map[string]int64{"core_train_epochs": 12},
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("valid summary rejected: %v", err)
	}
	path := t.TempDir() + "/summary.json"
	if err := WriteSummaryFile(path, s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var got RunSummary
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatal(err)
	}
	if got.InferP99MS != s.InferP99MS || got.Counters["core_train_epochs"] != 12 {
		t.Fatalf("round trip mangled summary: %+v", got)
	}

	bad := s
	bad.InferFrames = 0
	if bad.Validate() == nil {
		t.Fatal("summary without inference frames must fail validation")
	}
	bad = s
	bad.InferP99MS = 1
	if bad.Validate() == nil {
		t.Fatal("p99 < p50 must fail validation")
	}
	bad = s
	bad.AvgVideoKbps = 0
	if bad.Validate() == nil {
		t.Fatal("zero avg_video_kbps must fail validation")
	}
	bad = s
	bad.Counters = nil
	if bad.Validate() == nil {
		t.Fatal("a summary without counters must fail validation")
	}
	// An invalid summary is refused before the file is created.
	refused := t.TempDir() + "/refused.json"
	if WriteSummaryFile(refused, bad) == nil {
		t.Fatal("WriteSummaryFile wrote an invalid summary")
	}
	if _, err := os.Stat(refused); err == nil {
		t.Fatal("WriteSummaryFile left a file behind for an invalid summary")
	}
}
