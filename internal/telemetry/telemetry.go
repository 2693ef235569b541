// Package telemetry is the runtime accounting substrate for LiveNAS's
// control loops: a stdlib-only, race-safe registry of counters and
// fixed-bucket histograms, plus a structured JSONL event trace (trace.go)
// and an end-of-run summary digest (summary.go).
//
// The paper's value lives in feedback loops — the client scheduler's
// bandwidth split (§5.1) and the server's content-adaptive trainer
// (Algorithm 1) — and this package is how the repo records what those loops
// actually did in a run, machine-readably, so experiments can be compared
// and CI can gate on them. Every registered name and event type has a
// reader: a test, a summary field or a benchmark metric (DESIGN.md
// "Telemetry" lists them).
//
// Overhead contract (pinned by telemetry_test.go): nil registry, nil handle.
//
//   - Instrumentation is compiled in, never behind build tags, and there is
//     no master switch. A nil *Registry records nothing: its handle
//     constructors return nil handles, and every operation on a nil handle
//     or a nil registry is a no-op with zero allocations.
//   - Counter.Add and Histogram.Observe are lock-free atomics with zero
//     allocations, safe for the nn/sr hot paths.
//   - Everything else — handle registration, Emit, Snapshot — takes locks
//     and may allocate, and therefore must stay out of hot loops.
//
// Ownership rules: the component that owns a subsystem registers that
// subsystem's metrics (prefix "core_", "sr_", "edge_", "fleet_", "sweep_")
// once at construction and holds the returned handles.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Registry holds a run's metrics and its event trace. The zero value is not
// usable; create registries with New. All methods are safe for concurrent
// use. A nil *Registry is a valid "no telemetry" sink: handle constructors
// return nil handles and every operation no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram

	// Event trace state (trace.go).
	evMu    sync.Mutex
	events  []Event
	evCap   int
	dropped atomic.Int64
}

// DefaultEventCap bounds the in-memory event log; past it new events are
// counted as dropped rather than evicting earlier ones (the earliest events
// — trainer state at t=0, first scheduler decisions — anchor the run's
// reconstructed timelines).
const DefaultEventCap = 32768

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		hists:    map[string]*Histogram{},
		evCap:    DefaultEventCap,
	}
}

// GobEncode implements gob.GobEncoder. A Registry is live runtime state —
// atomics, locks, an event log — not a value, so persisted copies
// deliberately carry no metrics: encoding emits nothing. The hook exists so values holding a registry pointer (core.
// Config, core.Results) stay gob-encodable, which the sweep engine relies
// on for config hashing and the on-disk session-result cache.
func (r *Registry) GobEncode() ([]byte, error) { return nil, nil }

// GobDecode restores a decoded registry as a fresh one (the state a
// registry field would have been given at run time); any recorded metrics
// were dropped at encode time by design.
func (r *Registry) GobDecode([]byte) error {
	r.counters = map[string]*Counter{}
	r.hists = map[string]*Histogram{}
	r.evCap = DefaultEventCap
	return nil
}

// Counter returns the named counter, creating it on first use. Returns nil
// on a nil registry. Registration locks; do not call inside hot loops —
// hold the handle instead.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Histogram returns the named fixed-bucket histogram, creating it on first
// use with the given ascending upper bounds (observations above the last
// bound land in an overflow bucket). Re-registering an existing name returns
// the existing histogram; its bounds win.
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("telemetry: histogram %q bounds not ascending", name))
			}
		}
		h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
		r.hists[name] = h
	}
	return h
}

// Counter is a monotonically increasing atomic counter. All methods are
// nil-safe.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by n.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Histogram is a fixed-bucket histogram with lock-free observation. Bucket
// i counts observations v with bounds[i-1] < v <= bounds[i]; the final
// bucket is the overflow above the last bound. All methods are nil-safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64
	n      atomic.Int64
	sum    atomicFloat
}

// Observe records one observation.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	// bounds and counts are assigned once under Registry.mu before the
	// histogram is published and never reassigned; the buckets themselves
	// are atomic — lock-free observation is this type's contract.
	h.counts[sort.SearchFloat64s(h.bounds, v)].Add(1)
	h.n.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.n.Load()
}

// Sum returns the sum of observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// Mean returns the mean observation, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	if n := h.Count(); n > 0 {
		return h.Sum() / float64(n)
	}
	return 0
}

// Quantile estimates the q-quantile (q in [0,1]) by linear interpolation
// inside the bucket that crosses the target rank. Observations in the
// overflow bucket are attributed to the last bound. Returns 0 with no
// observations.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.n.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(total)
	var cum float64
	for i := range h.counts {
		c := float64(h.counts[i].Load())
		if c == 0 {
			continue
		}
		if cum+c >= rank {
			if i >= len(h.bounds) {
				return h.bounds[len(h.bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.bounds[i-1]
			}
			frac := (rank - cum) / c
			return lo + frac*(h.bounds[i]-lo)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// atomicFloat accumulates a float64 with a CAS loop (lock-free, alloc-free).
type atomicFloat struct{ bits atomic.Uint64 }

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		if f.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// ExpBuckets returns n ascending bounds starting at min, each factor times
// the previous — the standard latency-histogram shape.
func ExpBuckets(min, factor float64, n int) []float64 {
	if n <= 0 || min <= 0 || factor <= 1 {
		panic("telemetry: ExpBuckets requires n > 0, min > 0, factor > 1")
	}
	out := make([]float64, n)
	v := min
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// BucketCount is one histogram bucket in a snapshot: the count of
// observations at or below the upper bound LE (math.Inf(1) for overflow).
type BucketCount struct {
	LE float64 `json:"le"`
	N  int64   `json:"n"`
}

// MarshalJSON renders the overflow bound as the string "+Inf" (JSON has no
// infinity literal).
func (b BucketCount) MarshalJSON() ([]byte, error) {
	if math.IsInf(b.LE, 1) {
		return []byte(fmt.Sprintf(`{"le":"+Inf","n":%d}`, b.N)), nil
	}
	return []byte(fmt.Sprintf(`{"le":%s,"n":%d}`, jsonFloat(b.LE), b.N)), nil
}

// HistogramSnapshot is a histogram's state at snapshot time.
type HistogramSnapshot struct {
	Count   int64         `json:"count"`
	Sum     float64       `json:"sum"`
	P50     float64       `json:"p50"`
	P90     float64       `json:"p90"`
	P99     float64       `json:"p99"`
	Buckets []BucketCount `json:"buckets"`
}

// Snapshot is a deterministic point-in-time copy of the registry: map keys
// marshal in sorted order, so identical registry states produce identical
// JSON bytes.
type Snapshot struct {
	Counters      map[string]int64             `json:"counters"`
	Histograms    map[string]HistogramSnapshot `json:"histograms"`
	Events        int                          `json:"events"`
	EventsDropped int64                        `json:"events_dropped"`
}

// Snapshot copies the registry's current state. Concurrent writers may land
// between individual metric reads; each metric's own state is consistent.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.snapshotMetrics(&s)
	s.EventsDropped = r.dropped.Load()
	s.Events = r.eventCount()
	return s
}

func (r *Registry) snapshotMetrics(s *Snapshot) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, h := range r.hists {
		hs := HistogramSnapshot{
			Count: h.Count(),
			Sum:   h.Sum(),
			P50:   h.Quantile(0.50),
			P90:   h.Quantile(0.90),
			P99:   h.Quantile(0.99),
		}
		for i := range h.counts {
			le := math.Inf(1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			hs.Buckets = append(hs.Buckets, BucketCount{LE: le, N: h.counts[i].Load()})
		}
		s.Histograms[name] = hs
	}
}

func (r *Registry) eventCount() int {
	r.evMu.Lock()
	defer r.evMu.Unlock()
	return len(r.events)
}

// WriteJSON writes the snapshot as indented JSON (the debug endpoint's
// expvar-style payload). Infinite bucket bounds are rendered as the string
// "+Inf" since JSON has no infinity literal.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// jsonFloat formats a float the way encoding/json does.
func jsonFloat(v float64) string {
	b, _ := json.Marshal(v)
	return string(b)
}
