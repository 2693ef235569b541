package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// RunSummary is the end-of-run telemetry digest an experiment or bench run
// emits (cmd/livenas-bench -summary, scripts/ci.sh nightly artifact). It carries
// the three control-loop outcomes the paper's evaluation keys on — the
// scheduler's bandwidth split, the content-adaptive trainer's duty cycle,
// and the inference-latency distribution — plus the raw counter state for
// ad-hoc comparison. EXPERIMENTS.md requires comparable runs to cite
// this summary.
type RunSummary struct {
	Scheme    string  `json:"scheme"`
	Content   string  `json:"content"`
	DurationS float64 `json:"duration_s"`
	// Channel is the stream's channel key on a multi-tenant node (empty for
	// standalone sessions).
	Channel string `json:"channel,omitempty"`

	// Scheduler split (§5.1): session means of the bandwidth shares.
	AvgTargetKbps float64 `json:"avg_target_kbps"`
	AvgVideoKbps  float64 `json:"avg_video_kbps"`
	AvgPatchKbps  float64 `json:"avg_patch_kbps"`
	// PatchShare is patch kbps as a fraction of the GCC target.
	PatchShare float64 `json:"patch_share"`

	// Content-adaptive trainer (Algorithm 1).
	TrainerDutyCycle   float64 `json:"trainer_duty_cycle"`
	TrainerTransitions int     `json:"trainer_transitions"`

	// Inference latency (device-model, milliseconds).
	InferFrames int64   `json:"infer_frames"`
	InferP50MS  float64 `json:"infer_p50_ms"`
	InferP99MS  float64 `json:"infer_p99_ms"`

	Counters map[string]int64 `json:"counters"`
}

// WriteJSON writes the summary as indented JSON (deterministic: map keys
// marshal sorted).
func (s RunSummary) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteSummaryFile validates the summary and writes it to path; an invalid
// summary is an error and leaves no file behind.
func WriteSummaryFile(path string, s RunSummary) error {
	if err := s.Validate(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := s.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Validate checks the summary carries the control-loop signals a comparable
// run must cite.
func (s RunSummary) Validate() error {
	switch {
	case s.DurationS <= 0:
		return fmt.Errorf("telemetry summary: duration_s %v not positive", s.DurationS)
	case s.InferFrames <= 0:
		return fmt.Errorf("telemetry summary: no inference frames recorded")
	case s.InferP50MS <= 0 || s.InferP99MS < s.InferP50MS:
		return fmt.Errorf("telemetry summary: implausible inference latency p50=%v p99=%v", s.InferP50MS, s.InferP99MS)
	case s.AvgTargetKbps <= 0:
		return fmt.Errorf("telemetry summary: avg_target_kbps %v not positive", s.AvgTargetKbps)
	case s.AvgVideoKbps <= 0:
		return fmt.Errorf("telemetry summary: avg_video_kbps %v not positive", s.AvgVideoKbps)
	case s.TrainerDutyCycle < 0 || s.TrainerDutyCycle > 1:
		return fmt.Errorf("telemetry summary: trainer_duty_cycle %v outside [0,1]", s.TrainerDutyCycle)
	case len(s.Counters) == 0:
		return fmt.Errorf("telemetry summary: no counters recorded")
	}
	return nil
}
