package telemetry

import (
	"bufio"
	"encoding/json"
	"io"
	"sort"
	"strconv"
	"time"
)

// Event is one structured trace record: a run-relative timestamp (virtual
// sim time in experiments, wall time since session start in the real
// server — always caller-supplied, never read from the wall clock here, so
// deterministic-replay code stays deterministic), a type tag, and typed
// key/value fields.
//
// The JSONL encoding is one object per line with reserved keys "t_ms" and
// "type" followed by the event's fields in sorted key order:
//
//	{"t_ms":5000.000,"type":"trainer_state","gain_cur":0.41,"state":"suspended"}
//
// Event types emitted by the instrumented subsystems (DESIGN.md
// "Telemetry" names each one's reader):
//
//	trainer_state       core: Algorithm 1 ON/OFF transition
//	train_epoch         core: one online-training epoch's gain/loss accounting
//	scheduler_split     core: one §5.1 bandwidth-split decision
//	patch_admit         core: a received patch admitted as a training sample
//	infer_frame         core: one measured output frame's inference latency
//	sweep_session       sweep: one resolved session's wall and GPU time
//	fleet_backpressure  fleet: an arrival that found the GPU pool full
//	fleet_reject        fleet: a stream refused under PolicyReject
type Event struct {
	T      time.Duration
	Type   string
	Fields []Field
}

// Field is one event key/value; construct with Num or Str.
type Field struct {
	Key   string
	Num   float64
	Str   string
	isStr bool
}

// Num makes a numeric field.
func Num(key string, v float64) Field { return Field{Key: key, Num: v} }

// Str makes a string field.
func Str(key, v string) Field { return Field{Key: key, Str: v, isStr: true} }

// Emit records one trace event; a nil registry does nothing and does not
// allocate. Events past the retention cap are dropped (counted in
// Snapshot.EventsDropped) rather than evicting earlier events. Emit locks
// the trace log; keep it out of per-element hot loops.
func (r *Registry) Emit(t time.Duration, typ string, fields ...Field) {
	if r == nil {
		return
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	if len(r.events) >= r.evCap {
		r.dropped.Add(1)
		return
	}
	r.events = append(r.events, Event{T: t, Type: typ, Fields: append([]Field(nil), fields...)})
}

// SetEventCap bounds the in-memory event log (default DefaultEventCap).
// It does not truncate events already retained.
func (r *Registry) SetEventCap(n int) {
	if r == nil || n <= 0 {
		return
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	r.evCap = n
}

// Events returns a copy of the retained event log in emission order.
func (r *Registry) Events() []Event {
	if r == nil {
		return nil
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	return append([]Event(nil), r.events...)
}

// EventsByType returns the retained events of one type in emission order.
func (r *Registry) EventsByType(typ string) []Event {
	if r == nil {
		return nil
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	var out []Event
	for _, ev := range r.events {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

// WriteEvents dumps the retained event log as JSONL.
func (r *Registry) WriteEvents(w io.Writer) error {
	if r == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	var buf []byte
	for _, ev := range r.Events() {
		buf = appendEventJSON(buf[:0], ev)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// Get returns the named field and whether it is present.
func (e Event) Get(key string) (Field, bool) {
	for _, f := range e.Fields {
		if f.Key == key {
			return f, true
		}
	}
	return Field{}, false
}

// NumField returns the named numeric field's value, or 0 when absent.
func (e Event) NumField(key string) float64 {
	f, _ := e.Get(key)
	return f.Num
}

// StrField returns the named string field's value, or "" when absent.
func (e Event) StrField(key string) string {
	f, _ := e.Get(key)
	return f.Str
}

// appendEventJSON appends one JSONL line (object + newline) for ev. Fields
// are written in sorted key order so the encoding is deterministic
// regardless of emission argument order.
func appendEventJSON(b []byte, ev Event) []byte {
	b = append(b, `{"t_ms":`...)
	b = strconv.AppendFloat(b, float64(ev.T)/float64(time.Millisecond), 'f', 3, 64)
	b = append(b, `,"type":`...)
	b = appendJSONString(b, ev.Type)
	fields := ev.Fields
	if !sort.SliceIsSorted(fields, func(i, j int) bool { return fields[i].Key < fields[j].Key }) {
		fields = append([]Field(nil), fields...)
		sort.Slice(fields, func(i, j int) bool { return fields[i].Key < fields[j].Key })
	}
	for _, f := range fields {
		b = append(b, ',')
		b = appendJSONString(b, f.Key)
		b = append(b, ':')
		if f.isStr {
			b = appendJSONString(b, f.Str)
		} else {
			b = appendJSONFloat(b, f.Num)
		}
	}
	b = append(b, '}', '\n')
	return b
}

// appendJSONString appends s as a JSON string. Keys and values in this
// codebase are plain identifiers; the general path covers the rest.
func appendJSONString(b []byte, s string) []byte {
	plain := true
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x80 {
			plain = false
			break
		}
	}
	if plain {
		b = append(b, '"')
		b = append(b, s...)
		return append(b, '"')
	}
	enc, err := json.Marshal(s)
	if err != nil { // unreachable: strings always marshal
		return append(b, `""`...)
	}
	return append(b, enc...)
}

// appendJSONFloat appends v as a JSON number; NaN/Inf (not representable in
// JSON) become null.
func appendJSONFloat(b []byte, v float64) []byte {
	if v != v || v > 1.797693134862315708e308 || v < -1.797693134862315708e308 {
		return append(b, `null`...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
