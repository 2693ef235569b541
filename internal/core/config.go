// Package core implements LiveNAS itself: the ingest client with its
// quality-optimizing scheduler (§5.1) and patch sampler (§5.2), the media
// server with content-adaptive online learning (§6.1, Algorithm 1) and the
// super-resolution processor feedback loop (§6.2), plus the full-session
// orchestration that wires them through the codec, transport, congestion
// control and network-emulation substrates on the discrete-event simulator.
package core

import (
	"fmt"
	"time"

	"livenas/internal/codec"
	"livenas/internal/sr"
	"livenas/internal/telemetry"
	"livenas/internal/trace"
	"livenas/internal/vidgen"
)

// Scheme selects the end-to-end system under test (the comparison set of
// §8.1).
type Scheme int

const (
	// SchemeWebRTC is the vanilla baseline: no DNN, bilinear upscaling.
	SchemeWebRTC Scheme = iota
	// SchemeGeneric applies a DNN pre-trained on a generic benchmark
	// dataset, with no online training and no patch transmission.
	SchemeGeneric
	// SchemePretrained applies a DNN pre-trained on a previous session of
	// the same streamer, with no online training.
	SchemePretrained
	// SchemeLiveNAS is the full system: online training on transmitted
	// patches with the quality-optimizing scheduler.
	SchemeLiveNAS
)

func (s Scheme) String() string {
	switch s {
	case SchemeWebRTC:
		return "WebRTC"
	case SchemeGeneric:
		return "Generic"
	case SchemePretrained:
		return "Pretrained"
	default:
		return "LiveNAS"
	}
}

// TrainPolicy selects the server's training schedule (the resource-
// efficiency comparison of §8.2).
type TrainPolicy int

const (
	// TrainAdaptive is LiveNAS's content-adaptive trainer (Algorithm 1).
	TrainAdaptive TrainPolicy = iota
	// TrainContinuous trains throughout the stream without suspension.
	TrainContinuous
	// TrainEarlyStop trains until the first gain saturation, then stops
	// forever (never resumes on scene change).
	TrainEarlyStop
	// TrainOneTime trains only during the first OneTimeWindow of the stream
	// ("one-time customization").
	TrainOneTime
)

func (p TrainPolicy) String() string {
	switch p {
	case TrainAdaptive:
		return "content-adaptive"
	case TrainContinuous:
		return "continuous"
	case TrainEarlyStop:
		return "early-stop"
	default:
		return "one-time"
	}
}

// Config describes one ingest session experiment.
type Config struct {
	// ChannelKey identifies the stream on a multi-tenant ingest node (the
	// RTMP stream-key analogue; internal/fleet's registry keys on it).
	// Empty for standalone sessions. It tags telemetry (session_start,
	// RunSummary) but does not alter session behaviour.
	ChannelKey string

	// Content.
	Cat      vidgen.Category
	Seed     int64 // session seed (changes the stream's scenes)
	Native   trace.Resolution
	Ingest   trace.Resolution
	FPS      float64
	Duration time.Duration

	// Network.
	Trace     *trace.Trace
	PropDelay time.Duration // one-way propagation delay (default 10ms)
	QueueCap  int           // bottleneck queue, bytes (default 64 KiB)
	LossRate  float64       // independent random packet loss (0 = none)

	// System under test.
	Scheme      Scheme
	TrainPolicy TrainPolicy
	Profile     codec.Profile
	Deblock     bool // enable the codec's in-loop deblocking filter
	TrainGPUs   int
	InferGPUs   int

	// LiveNAS knobs (defaults follow the paper).
	PatchSize     int            // training patch side, HR pixels (120)
	EpochLen      time.Duration  // training epoch / window (5s)
	UpdateEvery   time.Duration  // scheduler update period (1s)
	StepKbps      float64        // scheduler step size alpha (100 kbps)
	InitPatchKbps float64        // initial patch rate (100 kbps)
	MinPatchKbps  float64        // suspended-state patch rate (25 kbps)
	OneTimeWindow time.Duration  // TrainOneTime training window (60s)
	Channels      int            // SR net width (sr.DefaultChannels)
	TrainCfg      sr.TrainConfig // online-training hyperparameters

	// QuantInt8 routes the server's inference through the int8-quantized
	// fast path (internal/sr.QuantModel): per-channel symmetric weights,
	// activation scales from the trainer's calibration statistics, output
	// guarded by an online quality gate that falls back to f32 when the
	// sampled int8-vs-f32 PSNR gap exceeds 0.5 dB.
	QuantInt8 bool
	// AnytimeBudget is the per-frame inference deadline of the anytime
	// patch scheduler (0 = off): high-gain patches run f32, the rest int8,
	// degrading to bilinear passthrough when the Device cost model says the
	// deadline would be blown.
	AnytimeBudget time.Duration

	// FunctionalCodec enables the §9 extension the paper flags as future
	// work: instead of estimating dQvideo/dv from the category's normalized
	// curve, the client probes the codec directly — encoding the latest
	// frame at two bitrates (as a Salsify-style functional codec can) and
	// measuring the local rate-quality slope.
	FunctionalCodec bool

	// Pre-training inputs.
	PretrainSeed int64 // session seed of the "previous stream"
	Persistent   bool  // LiveNAS persistent learning: warm-start from PretrainSeed's model

	// Transport knobs. MinVideoKbps is WebRTC's minimum encoding bitrate
	// (200 kbps at full scale; reduced-resolution experiments scale it with
	// frame area). GCCInitKbps seeds the congestion controller.
	MinVideoKbps float64
	GCCInitKbps  float64
	MTU          int // wire payload size (default transport.MTU)

	// Measurement.
	MetricEvery time.Duration // quality sampling period (1s)
	MeasureSSIM bool
	Device      sr.Device

	// Telemetry receives the run's metrics and event trace (scheduler
	// splits, trainer transitions, patch admissions, GCC estimates…). When
	// nil, Run installs a fresh enabled registry; either way Results.
	// Telemetry exposes it. Supply your own to stream events to a sink
	// (Registry.SetSink) or to share one registry across runs.
	Telemetry *telemetry.Registry
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.FPS <= 0 {
		c.FPS = 30
	}
	if c.Duration <= 0 {
		c.Duration = 60 * time.Second
	}
	if c.PropDelay <= 0 {
		c.PropDelay = 10 * time.Millisecond
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64 << 10
	}
	if c.TrainGPUs <= 0 {
		c.TrainGPUs = 1
	}
	if c.InferGPUs <= 0 {
		c.InferGPUs = 1
	}
	if c.PatchSize <= 0 {
		c.PatchSize = 120
	}
	if c.EpochLen <= 0 {
		c.EpochLen = 5 * time.Second
	}
	if c.UpdateEvery <= 0 {
		c.UpdateEvery = time.Second
	}
	if c.StepKbps <= 0 {
		c.StepKbps = 100
	}
	if c.InitPatchKbps <= 0 {
		c.InitPatchKbps = 100
	}
	if c.MinPatchKbps <= 0 {
		c.MinPatchKbps = 25
	}
	if c.OneTimeWindow <= 0 {
		c.OneTimeWindow = 60 * time.Second
	}
	if c.Channels <= 0 {
		c.Channels = sr.DefaultChannels
	}
	if c.MetricEvery <= 0 {
		c.MetricEvery = time.Second
	}
	if c.Device == (sr.Device{}) {
		c.Device = sr.RTX2080Ti()
	}
	if c.MinVideoKbps <= 0 {
		c.MinVideoKbps = 200
	}
	if c.GCCInitKbps <= 0 {
		c.GCCInitKbps = 800
	}
	if c.Native.W == 0 {
		c.Native = trace.R1080
	}
	if c.Ingest.W == 0 {
		c.Ingest = trace.R540
	}
	if c.Telemetry == nil {
		c.Telemetry = telemetry.New()
	}
	return c
}

// Defaulted returns the config with every zero field replaced by its
// default. Telemetry is left exactly as supplied (Run installs a fresh
// registry for a nil one at run time; a registry is live state, not part of
// the session's identity). Run and RunContext behave identically for c and
// c.Defaulted(), which is what makes Defaulted the canonical form the sweep
// session cache hashes.
func (c Config) Defaulted() Config {
	tel := c.Telemetry
	c = c.withDefaults()
	c.Telemetry = tel
	return c
}

// Validate checks the session geometry after defaulting: the native/ingest
// pair must be an integer, isotropic super-resolution ratio and the patch
// size must align with it. RunContext validates up front and returns the
// error; Run panics on it (the legacy contract).
func (c Config) Validate() error {
	_, err := c.withDefaults().scale()
	return err
}

// scale computes the integer super-resolution factor, reporting bad
// geometry as an error.
func (c Config) scale() (int, error) {
	if c.Ingest.W <= 0 || c.Ingest.H <= 0 {
		return 0, fmt.Errorf("core: ingest resolution %dx%d not positive", c.Ingest.W, c.Ingest.H)
	}
	if c.Native.W%c.Ingest.W != 0 || c.Native.H%c.Ingest.H != 0 {
		return 0, fmt.Errorf("core: native %dx%d not an integer multiple of ingest %dx%d",
			c.Native.W, c.Native.H, c.Ingest.W, c.Ingest.H)
	}
	s := c.Native.W / c.Ingest.W
	if c.Native.H/c.Ingest.H != s {
		return 0, fmt.Errorf("core: anisotropic scale factors unsupported (x%d horizontal, x%d vertical)",
			s, c.Native.H/c.Ingest.H)
	}
	if c.PatchSize > 0 && c.PatchSize%s != 0 {
		return 0, fmt.Errorf("core: patch size %d not divisible by scale %d", c.PatchSize, s)
	}
	return s, nil
}

// Scale returns the integer super-resolution factor. It is a
// post-validation accessor: call Validate (or go through RunContext, which
// does) before trusting it on untrusted configs. On invalid geometry it
// panics, since by then the config was asserted valid.
func (c Config) Scale() int {
	s, err := c.scale()
	if err != nil {
		panic(err)
	}
	return s
}
