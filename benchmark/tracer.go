package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// opID names one (layer, op) pair. Ops are registered at package init with
// defOp, so the table is read-only by the time any goroutine records a span.
type opID int32

type opKey struct{ Layer, Op string }

var opTable []opKey

// defOp registers a span kind. Layer is the repository module the call goes
// into ("codec", "sr", "edge", ...); "bench" is the benchmark's own code.
func defOp(layer, op string) opID {
	opTable = append(opTable, opKey{layer, op})
	return opID(len(opTable) - 1)
}

// Span is one timed call into a layer: start and end are offsets from the
// tracer's epoch, Parent is the span that was open on the same track when
// this one began (0 for a root).
type Span struct {
	ID, Parent int64
	Track      int
	Op         opID
	Start, End time.Duration
}

// opStat aggregates every span of one op on one track.
type opStat struct {
	count       int64
	total, self time.Duration
}

// Tracer holds the spans of one traced run in memory. A nil *Tracer hands
// out nil tracks, and every Track method is a no-op on nil, so the timed
// (untraced) run executes the same loop with the spans compiled to a nil
// check.
type Tracer struct {
	workload string
	epoch    time.Time
	rawCap   int // raw spans kept per track (aggregates cover all spans)
	nextID   atomic.Int64

	mu     sync.Mutex
	tracks []*Track
}

// NewTracer starts a tracer; rawCap bounds the raw spans each track keeps
// for the Chrome trace file.
func NewTracer(workload string, rawCap int) *Tracer {
	return &Tracer{workload: workload, epoch: time.Now(), rawCap: rawCap}
}

// Track is the span stack of one goroutine. A track must only be used by
// the goroutine it was created for.
type Track struct {
	t     *Tracer
	id    int
	name  string
	stack []openSpan
	stats []opStat
	raw   []Span
	roots time.Duration // total duration of depth-0 spans
}

type openSpan struct {
	id    int64
	op    opID
	start time.Duration
	child time.Duration // time covered by already-closed child spans
	slot  int           // index into raw, or -1 when past the sample bound
}

// Track creates the span stack for one goroutine.
func (t *Tracer) Track(name string) *Track {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := &Track{t: t, id: len(t.tracks) + 1, name: name, stats: make([]opStat, len(opTable))}
	t.tracks = append(t.tracks, k)
	return k
}

// Begin opens a span. The raw-sample slot is reserved here, in begin order,
// so a sampled span's parent is always in the sample too.
func (k *Track) Begin(op opID) {
	if k == nil {
		return
	}
	o := openSpan{id: k.t.nextID.Add(1), op: op, slot: -1}
	if len(k.raw) < k.t.rawCap {
		o.slot = len(k.raw)
		k.raw = append(k.raw, Span{})
	}
	o.start = time.Since(k.t.epoch)
	k.stack = append(k.stack, o)
}

// End closes the innermost open span.
func (k *Track) End() {
	if k == nil {
		return
	}
	end := time.Since(k.t.epoch)
	n := len(k.stack) - 1
	o := k.stack[n]
	k.stack = k.stack[:n]
	dur := end - o.start
	st := &k.stats[o.op]
	st.count++
	st.total += dur
	st.self += dur - o.child
	var parent int64
	if n > 0 {
		k.stack[n-1].child += dur
		parent = k.stack[n-1].id
	} else {
		k.roots += dur
	}
	if o.slot >= 0 {
		k.raw[o.slot] = Span{ID: o.id, Parent: parent, Track: k.id, Op: o.op, Start: o.start, End: end}
	}
}

// traceAgg is the per-(layer, op) aggregate of a finished traced run.
// denom is the summed duration of every track's root (depth-0) spans, so
// self times over denom are shares of traced goroutine-time and sum to one.
type traceAgg struct {
	ops   []opStat
	denom time.Duration
	spans int64
}

// finished returns the tracks for reading. The tracer's lock covers only
// the track list: a track's contents belong to its goroutine, so Aggregate,
// Validate and WriteChrome may run only after every traced goroutine has
// been joined.
func (t *Tracer) finished() []*Track {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]*Track(nil), t.tracks...)
}

// Aggregate merges the tracks.
func (t *Tracer) Aggregate() *traceAgg {
	a := &traceAgg{ops: make([]opStat, len(opTable))}
	for _, k := range t.finished() {
		a.denom += k.roots
		for i, s := range k.stats {
			a.ops[i].count += s.count
			a.ops[i].total += s.total
			a.ops[i].self += s.self
			a.spans += s.count
		}
	}
	return a
}

func (a *traceAgg) count(op opID) float64 { return float64(a.ops[op].count) }

// mean returns the mean span duration of op in units of unit.
func (a *traceAgg) mean(op opID, unit time.Duration) float64 {
	s := a.ops[op]
	if s.count == 0 {
		return 0
	}
	return float64(s.total) / float64(s.count) / float64(unit)
}

// selfMean is mean with child spans subtracted.
func (a *traceAgg) selfMean(op opID, unit time.Duration) float64 {
	s := a.ops[op]
	if s.count == 0 {
		return 0
	}
	return float64(s.self) / float64(s.count) / float64(unit)
}

// share returns the summed self time of the given ops over denom.
func (a *traceAgg) share(ops ...opID) float64 {
	if a.denom == 0 {
		return 0
	}
	var self time.Duration
	for _, op := range ops {
		self += a.ops[op].self
	}
	return float64(self) / float64(a.denom)
}

// layerShares returns every layer's self-time share, "bench" included (the
// benchmark's own loop plus anything no span wraps: the residual).
func (a *traceAgg) layerShares() map[string]float64 {
	out := map[string]float64{}
	for i, s := range a.ops {
		if s.count > 0 {
			out[opTable[i].Layer] += float64(s.self) / float64(a.denom)
		}
	}
	return out
}

// Validate checks the span tree: every stack closed, every sampled span
// inside its parent, and self times adding up to the root spans.
func (t *Tracer) Validate() error {
	for _, k := range t.finished() {
		if len(k.stack) != 0 {
			return fmt.Errorf("track %s: %d spans left open", k.name, len(k.stack))
		}
		byID := make(map[int64]Span, len(k.raw))
		for _, s := range k.raw {
			byID[s.ID] = s
		}
		var self time.Duration
		for _, s := range k.stats {
			self += s.self
		}
		if self != k.roots {
			return fmt.Errorf("track %s: self times sum to %v, root spans to %v", k.name, self, k.roots)
		}
		for _, s := range k.raw {
			if s.End < s.Start {
				return fmt.Errorf("track %s: span %d ends before it starts", k.name, s.ID)
			}
			if s.Parent == 0 {
				continue
			}
			p, ok := byID[s.Parent]
			if !ok {
				return fmt.Errorf("track %s: span %d sampled without its parent %d", k.name, s.ID, s.Parent)
			}
			if s.Start < p.Start || s.End > p.End {
				return fmt.Errorf("track %s: span %d [%v,%v] outside parent %d [%v,%v]",
					k.name, s.ID, s.Start, s.End, p.ID, p.Start, p.End)
			}
		}
	}
	return nil
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format,
// which Perfetto and chrome://tracing open directly.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the sampled raw spans as Chrome trace-event JSON.
func (t *Tracer) WriteChrome(path string) error {
	var evs []chromeEvent
	for _, k := range t.finished() {
		evs = append(evs, chromeEvent{Name: "thread_name", Ph: "M", PID: 1, TID: k.id,
			Args: map[string]any{"name": k.name}})
		for _, s := range k.raw {
			if s.ID == 0 {
				continue // reserved at Begin, never closed
			}
			key := opTable[s.Op]
			evs = append(evs, chromeEvent{
				Name: key.Layer + "." + key.Op, Cat: key.Layer, Ph: "X",
				TS:  float64(s.Start) / float64(time.Microsecond),
				Dur: float64(s.End-s.Start) / float64(time.Microsecond),
				PID: 1, TID: k.id,
				Args: map[string]any{"id": s.ID, "parent": s.Parent, "workload": t.workload},
			})
		}
	}
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].TS < evs[j].TS })
	data, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}
