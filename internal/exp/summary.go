package exp

import (
	"livenas/internal/core"
	"livenas/internal/telemetry"
	"livenas/internal/vidgen"
)

// RunSummary executes one representative LiveNAS session — the harness's
// base 1080p-class configuration on one FCC-distributed uplink — and
// condenses it into the machine-readable telemetry summary
// (scheduler split, trainer duty cycle, inference latency quantiles).
// cmd/livenas-bench -summary validates it and writes it to disk
// (telemetry.WriteSummaryFile); the nightly CI run keeps one as an artifact.
func RunSummary(o Options) telemetry.RunSummary {
	cfg := o.baseConfig(vidgen.JustChatting, 2)
	cfg.Trace = o.uplinks(1, 77)[0]
	return core.Run(cfg).TelemetrySummary()
}
