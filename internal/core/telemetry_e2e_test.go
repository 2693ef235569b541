package core

import (
	"bytes"
	"encoding/json"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"

	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// TestTelemetryJSONLEndToEnd drives a full session, dumps its event trace
// as JSONL afterwards and checks the trace contract end to end: every line
// is a well-formed event with a timestamp and type, the run reaches at least
// one trainer suspend (so the Algorithm 1 timeline is really in the trace,
// not just the initial state), and the end-of-run summary validates. The
// config mirrors the adaptive arm of TestContinuousTrainsMoreThanAdaptive —
// a low-scene-change category long enough for gain saturation.
//
// It also pins the schema one LiveNAS session publishes: the exact sets of
// counter names, histogram names and event types. Each has a reader
// (DESIGN.md "Telemetry"); a new name needs a reader and an edit here.
func TestTelemetryJSONLEndToEnd(t *testing.T) {
	skipLongUnderRace(t)
	cfg := defaultTestConfig(vidgen.Podcast)
	cfg.Trace = trace.FCCUplink(11, 3*time.Minute, 250)
	cfg.TrainPolicy = TrainAdaptive
	cfg.Duration = 100 * time.Second

	reg := telemetry.New()
	cfg.Telemetry = reg

	r := Run(cfg)
	var buf bytes.Buffer
	if err := reg.WriteEvents(&buf); err != nil {
		t.Fatalf("writing events: %v", err)
	}

	types := map[string]int{}
	var suspends, resumes int
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) == 0 || lines[0] == "" {
		t.Fatal("the trace holds no events")
	}
	for i, line := range lines {
		var ev struct {
			TMS   *float64 `json:"t_ms"`
			Type  string   `json:"type"`
			State string   `json:"state"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("line %d is not valid JSON: %v\n%s", i+1, err, line)
		}
		if ev.TMS == nil || *ev.TMS < 0 {
			t.Fatalf("line %d missing t_ms: %s", i+1, line)
		}
		if ev.Type == "" {
			t.Fatalf("line %d missing type: %s", i+1, line)
		}
		types[ev.Type]++
		if ev.Type == "trainer_state" {
			switch ev.State {
			case "suspended":
				suspends++
			case "training":
				if i > 0 {
					resumes++
				}
			}
		}
	}
	snap := reg.Snapshot()
	for _, c := range []struct {
		what string
		got  []string
		want []string
	}{
		{"counters", sortedKeys(snap.Counters),
			[]string{"core_patches_received", "core_train_epochs", "infer_deadline_miss", "sr_quant_patches"}},
		{"histograms", sortedKeys(snap.Histograms),
			[]string{"core_infer_latency_ms", "sr_quant_psnr_gap"}},
		{"event types", sortedKeys(types),
			[]string{"infer_frame", "patch_admit", "scheduler_split", "train_epoch", "trainer_state"}},
	} {
		if !slices.Equal(c.got, c.want) {
			t.Errorf("session publishes %s %v, want %v", c.what, c.got, c.want)
		}
	}
	if suspends == 0 {
		t.Fatalf("trace has no trainer suspend event; trainer_state count %d", types["trainer_state"])
	}

	// The reconstructed timeline must agree with the dumped trace.
	tl := r.TrainerTimeline()
	if len(tl) != types["trainer_state"] {
		t.Fatalf("TrainerTimeline has %d entries, trace has %d trainer_state events", len(tl), types["trainer_state"])
	}
	if tl[0].State != "training" {
		t.Fatalf("timeline starts %q, want training", tl[0].State)
	}

	sum := r.TelemetrySummary()
	if err := sum.Validate(); err != nil {
		t.Fatalf("run summary invalid: %v", err)
	}
	if sum.TrainerTransitions != len(tl)-1 {
		t.Fatalf("summary transitions %d, timeline %d", sum.TrainerTransitions, len(tl)-1)
	}
	if sum.TrainerDutyCycle >= 1 {
		t.Fatalf("duty cycle %.2f should be < 1 after a suspend", sum.TrainerDutyCycle)
	}
	t.Logf("events=%d suspends=%d resumes=%d duty=%.2f", len(lines), suspends, resumes, sum.TrainerDutyCycle)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
