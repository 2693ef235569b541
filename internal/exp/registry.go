package exp

import (
	"context"
	"fmt"
	"sort"

	"livenas/internal/sweep"
)

// Experiment is a registered table/figure generator. Run executes it: ctx
// bounds every session the experiment starts and r is the sweep engine its
// sessions are submitted to. A nil runner gets a private one bound to ctx;
// by the sweep engine's determinism contract the tables are byte-identical
// for any runner (any worker count, warm or cold cache). Every session runs
// on the runner; generators that run none (offline trainer studies, device
// and power models, trace statistics) ignore both.
type Experiment struct {
	ID   string
	Desc string
	Run  func(ctx context.Context, o Options, r *sweep.Runner) []*Table
}

type runFn = func(ctx context.Context, o Options, r *sweep.Runner) []*Table

// ensure returns r, or a fresh default runner bound to ctx.
func ensure(ctx context.Context, r *sweep.Runner) *sweep.Runner {
	if r == nil {
		return sweep.New(ctx, sweep.Options{})
	}
	return r
}

// one adapts a single-table generator that runs no session.
func one(f func(Options) *Table) runFn {
	return func(_ context.Context, o Options, _ *sweep.Runner) []*Table { return []*Table{f(o)} }
}

// tables adapts a multi-table generator that runs no session.
func tables(f func(Options) []*Table) runFn {
	return func(_ context.Context, o Options, _ *sweep.Runner) []*Table { return f(o) }
}

// oneSwept adapts a sweep-aware single-table generator.
func oneSwept(f func(Options, *sweep.Runner) *Table) runFn {
	return func(ctx context.Context, o Options, r *sweep.Runner) []*Table {
		return []*Table{f(o, ensure(ctx, r))}
	}
}

// swept adapts a sweep-aware multi-table generator.
func swept(f func(Options, *sweep.Runner) []*Table) runFn {
	return func(ctx context.Context, o Options, r *sweep.Runner) []*Table {
		return f(o, ensure(ctx, r))
	}
}

// Registry lists every reproducible table and figure.
var Registry = []Experiment{
	{"fig2a", "WebRTC vs DASH bandwidth use (motivation)", oneSwept(Fig2a)},
	{"fig2b", "SR gain vs bandwidth scale", oneSwept(Fig2b)},
	{"fig2c", "online vs pre-trained vs bilinear", oneSwept(Fig2c)},
	{"fig2d", "fractional high-quality labels", tables(Fig2d)},
	{"fig5", "quality-optimizing scheduler case study", oneSwept(Fig5)},
	{"fig6", "normalized bitrate-quality curves", one(Fig6)},
	{"fig8", "trace CDF and ingest resolutions", one(Fig8)},
	{"fig9", "Twitch end-to-end gains + GPU usage", swept(Fig9)},
	{"fig10", "YouTube 4K end-to-end gains + GPU usage", swept(Fig10)},
	{"fig11", "persistent online learning", oneSwept(Fig11)},
	{"fig12", "multi-GPU training", oneSwept(Fig12)},
	{"fig13", "bandwidth savings at equal quality", oneSwept(Fig13)},
	{"fig14", "codec-agnostic gains", oneSwept(Fig14)},
	{"fig15", "GPU usage vs quality per scheme", oneSwept(Fig15)},
	{"fig16", "content-adaptive trainer timeline", oneSwept(Fig16)},
	{"fig17", "client power savings", one(Fig17)},
	{"fig18", "gain per stream interval", oneSwept(Fig18)},
	{"fig19", "content-adaptive vs one-time", swept(Fig19)},
	{"fig20", "distribution-side viewer QoE", swept(Fig20)},
	{"fig21", "patch-grid PSNR heatmaps", oneSwept(Fig21)},
	{"fig22", "gain vs training epoch", one(Fig22)},
	{"fig23", "training-window sensitivity", swept(Fig23)},
	{"fig25", "SSIM improvements", oneSwept(Fig25)},
	{"fig26-29", "per-trace absolute quality", oneSwept(Fig26to29)},
	{"table2", "SR inference delay", one(Table2)},
	{"abl-residual", "ablation: residual vs direct SR", one(AblationResidual)},
	{"abl-sampler", "ablation: patch selection filter", one(AblationSampler)},
	{"abl-recency", "ablation: recency-weighted batches", one(AblationRecency)},
	{"abl-scheduler", "ablation: scheduler vs fixed allocation", oneSwept(AblationScheduler)},
	{"abl-funcodec", "ablation: functional-codec quality probe", oneSwept(AblationFunctionalCodec)},
	{"fleet", "multi-tenant ingest: N streamers x M GPUs per admission policy", oneSwept(FigFleet)},
	{"edge", "distribution edge: origin->relay->viewer fan-out of enhanced output", oneSwept(FigEdge)},
}

// Find returns the registered experiment with the given id.
func Find(id string) (Experiment, error) {
	for _, e := range Registry {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("exp: unknown experiment %q", id)
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	sort.Strings(out)
	return out
}
