// Package livenas is the public facade of LiveNAS-Go, a from-scratch Go
// reproduction of "Neural-Enhanced Live Streaming: Improving Live Video
// Ingest via Online Learning" (SIGCOMM 2020).
//
// The package re-exports the pieces a downstream user needs to run
// neural-enhanced ingest sessions and the paper's experiments:
//
//   - Config/Run/Results — simulate a full ingest session (client with the
//     quality-optimizing scheduler and patch sampler, media server with
//     content-adaptive online training and the SR processor) over an
//     emulated network trace.
//   - Scheme and TrainPolicy constants — the systems and training policies
//     compared in the paper's evaluation.
//   - Trace generators and content categories.
//   - The experiment registry (Experiments, RunExperiment) regenerating
//     every table and figure of the paper.
//
// See the examples/ directory for runnable programs and DESIGN.md for the
// full system inventory.
package livenas

import (
	"context"

	"livenas/internal/core"
	"livenas/internal/exp"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// Core session API.
type (
	// Config describes one ingest session experiment.
	Config = core.Config
	// Results aggregates a session's measurements.
	Results = core.Results
	// Scheme selects the system under test.
	Scheme = core.Scheme
	// TrainPolicy selects the server's training schedule.
	TrainPolicy = core.TrainPolicy
	// Category is a stream-content category.
	Category = vidgen.Category
	// Trace is a bandwidth trace.
	Trace = trace.Trace
	// Resolution is a video resolution class.
	Resolution = trace.Resolution
)

// Schemes (the §8.1 comparison set).
const (
	SchemeWebRTC     = core.SchemeWebRTC
	SchemeGeneric    = core.SchemeGeneric
	SchemePretrained = core.SchemePretrained
	SchemeLiveNAS    = core.SchemeLiveNAS
)

// Training policies (the §8.2 comparison set).
const (
	TrainAdaptive   = core.TrainAdaptive
	TrainContinuous = core.TrainContinuous
	TrainEarlyStop  = core.TrainEarlyStop
	TrainOneTime    = core.TrainOneTime
)

// Content categories (§8 evaluation set).
const (
	LeagueOfLegends  = vidgen.LeagueOfLegends
	JustChatting     = vidgen.JustChatting
	WorldOfWarcraft  = vidgen.WorldOfWarcraft
	EscapeFromTarkov = vidgen.EscapeFromTarkov
	Fortnite         = vidgen.Fortnite
	Podcast          = vidgen.Podcast
	Sports           = vidgen.Sports
	LiveEvent        = vidgen.LiveEvent
	FoodCooking      = vidgen.FoodCooking
)

// Resolution ladder.
var (
	R270  = trace.R270
	R360  = trace.R360
	R540  = trace.R540
	R720  = trace.R720
	R1080 = trace.R1080
	R4K   = trace.R4K
)

// Run executes one ingest session on the discrete-event simulator. It
// panics on an invalid config (Config.Validate's error); RunContext returns
// the error instead.
func Run(cfg Config) *Results { return core.Run(cfg) }

// RunContext executes one ingest session under ctx. The config is validated
// up front and cancellation is honoured at simulator-event boundaries, so a
// long session aborts promptly without leaving goroutines behind.
func RunContext(ctx context.Context, cfg Config) (*Results, error) { return core.RunContext(ctx, cfg) }

// FCCUplink synthesises an FCC-style broadband uplink trace.
var FCCUplink = trace.FCCUplink

// ThreeG synthesises a 3G commute trace.
var ThreeG = trace.ThreeG

// IngestResolutionFor maps a trace's mean bandwidth to the ingest
// resolution, per the paper's Figure 8 policy.
var IngestResolutionFor = trace.IngestResolutionFor

// ReducedResolution scales a resolution class down for fast experiments.
var ReducedResolution = core.ReducedResolution

// Experiment harness access.
type (
	// ExpOptions scales the experiment harness.
	ExpOptions = exp.Options
	// ExpTable is a printable experiment result.
	ExpTable = exp.Table
)

// Experiments lists every reproducible table and figure id.
func Experiments() []string { return exp.IDs() }

// RunExperiment regenerates one paper table/figure by id, running its
// sessions on a private sweep runner bound to ctx.
func RunExperiment(ctx context.Context, id string, o ExpOptions) ([]*ExpTable, error) {
	e, err := exp.Find(id)
	if err != nil {
		return nil, err
	}
	return e.Run(ctx, o, nil), nil
}

// DefaultExpOptions returns the fast harness configuration.
func DefaultExpOptions() ExpOptions { return exp.DefaultOptions() }
