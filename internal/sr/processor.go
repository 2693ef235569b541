package sr

import (
	"sort"
	"sync"
	"time"

	"livenas/internal/frame"
	"livenas/internal/metrics"
	"livenas/internal/telemetry"
)

// Processor applies super-resolution to decoded stream frames with
// intra-frame multi-GPU parallelism (§6.2): the frame is split into
// equal-height strips, each strip is super-resolved on its own GPU replica
// concurrently, and the results are stitched. The processor owns replica
// weights that are refreshed from the training model at epoch boundaries
// (§7 "At the end of every training epoch, the inference process is
// synchronized"), decoupling inference from in-progress training.
//
// Two optional fast paths stack on top (EnableQuant / SetAnytimeBudget):
//
//   - An int8-quantized whole-frame path (QuantModel), guarded by an online
//     quality gate: ObserveGatePatch compares int8 vs f32 PSNR on a sampled
//     trickle of training patches (which carry ground truth) and disables
//     quantization for this stream when the EWMA gap exceeds the configured
//     dB threshold, re-enabling it with hysteresis if the gap recovers.
//   - An anytime patch scheduler (Palantír-style latency allocation,
//     PAPERS.md): the frame is cut into cells ranked by an integer
//     gradient-energy proxy; high-gain cells run f32, the rest int8, and
//     when even that blows the per-frame deadline the lowest-gain tail
//     degrades to the bilinear skip. Ranking, budgeting and cell assignment
//     are all deterministic (integer energies, fixed tie-breaks, fixed
//     cell→replica mapping), so output depends only on the frame and
//     configuration.
type Processor struct {
	dev    Device
	gpus   int
	scale  int
	mu     sync.Mutex
	models []*Model

	// Quantized fast path (nil quant = disabled). quantSrc is the master
	// model quantization snapshots are taken from; quantOn is the gate
	// state; needCalib defers activation calibration to the first frame
	// when the source model has no statistics yet.
	quant     *QuantModel
	quantSrc  *Model
	quantOn   bool
	gateDB    float64
	gapEWMA   float64
	gapInit   bool
	needCalib bool

	// Anytime scheduling (0 = off).
	anytime time.Duration

	// Telemetry handles (nil until SetTelemetry; nil-safe).
	mQuantPatches *telemetry.Counter
	mQuantGap     *telemetry.Histogram
	mDeadlineMiss *telemetry.Counter
}

// haloLR is the per-side strip overlap at LR resolution; it covers the
// network's receptive field (three 3x3 convs) so stitching is seam-free.
const haloLR = 4

// anytimeCellLR is the nominal LR cell edge of the anytime patch scheduler.
const anytimeCellLR = 48

// gateEWMAAlpha is the smoothing factor of the online PSNR-gap estimate.
const gateEWMAAlpha = 0.2

// NewProcessor creates a processor with gpus replicas of model's current
// weights.
func NewProcessor(model *Model, gpus int, dev Device) *Processor {
	if gpus < 1 {
		gpus = 1
	}
	p := &Processor{dev: dev, gpus: gpus, scale: model.Scale}
	for i := 0; i < gpus; i++ {
		p.models = append(p.models, model.Clone())
	}
	return p
}

// SetTelemetry registers the processor's metrics on reg: int8-enhanced
// units (sr_quant_patches: cells in anytime mode, frames otherwise), the
// online int8-vs-f32 PSNR gap (sr_quant_psnr_gap, dB) and frames whose
// anytime budget could not be met even by full degradation
// (infer_deadline_miss).
// Handles are held, so the per-frame cost is lock-free atomics only. The
// handle installation itself takes p.mu: a processor may already be serving
// frames when telemetry is attached.
func (p *Processor) SetTelemetry(reg *telemetry.Registry) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.mQuantPatches = reg.Counter("sr_quant_patches")
	p.mQuantGap = reg.Histogram("sr_quant_psnr_gap", telemetry.ExpBuckets(0.01, 1.7, 20))
	p.mDeadlineMiss = reg.Counter("infer_deadline_miss")
}

// ArenaStats sums the replica models' arena free-list hits and misses,
// including the quantized path's arena when active.
func (p *Processor) ArenaStats() (hits, misses int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.models {
		h, ms := m.ArenaStats()
		hits += h
		misses += ms
	}
	if p.quant != nil {
		h, ms := p.quant.ArenaStats()
		hits += h
		misses += ms
	}
	return hits, misses
}

// Sync refreshes the processor's replica weights from model, and — when the
// quantized path is enabled — takes a fresh int8 snapshot of model using
// its latest calibration statistics.
func (p *Processor) Sync(model *Model) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range p.models {
		m.CopyWeightsFrom(model)
	}
	if p.quant != nil {
		p.quantSrc = model
		p.quant = NewQuantModel(model)
		p.needCalib = false // trainer statistics flow in through Sync
	}
}

// EnableQuant switches the processor onto the int8-quantized inference path
// snapshotted from model, with the online quality gate set to gapDB: if the
// observed int8-vs-f32 PSNR gap (EWMA over the sampled patch trickle fed to
// ObserveGatePatch) exceeds gapDB, this stream falls back to f32 until the
// gap recovers. gapDB <= 0 keeps quantization permanently on (no gate).
func (p *Processor) EnableQuant(model *Model, gapDB float64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.quantSrc = model
	p.quant = NewQuantModel(model)
	p.quantOn = true
	p.gateDB = gapDB
	p.gapEWMA, p.gapInit = 0, false
	// A model that never trained (generic/pretrained baselines) has no
	// calibration statistics; calibrate lazily from the first real frame.
	st := model.calibStats()
	p.needCalib = st[0] <= 0
}

// SetAnytimeBudget sets the per-frame latency budget of the anytime patch
// scheduler; 0 disables it (whole-frame inference). The budget is spent
// against the Device cost model, mirroring how the paper charges GPU time.
func (p *Processor) SetAnytimeBudget(d time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if d < 0 {
		d = 0
	}
	p.anytime = d
}

// QuantActive reports whether the int8 path is enabled and currently
// passing the quality gate.
func (p *Processor) QuantActive() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.quant != nil && p.quantOn
}

// ObserveGatePatch feeds one (lr, hr) ground-truth pair — in production a
// sampled patch from the ingest trickle that also feeds the trainer — to
// the online quality gate: both the f32 and the int8 path super-resolve lr,
// their PSNR against hr is compared, and the EWMA gap drives the per-stream
// quantization decision. No-op while the quantized path is disabled.
func (p *Processor) ObserveGatePatch(lr, hr *frame.Frame) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.quant == nil {
		return
	}
	f32Out := p.models[0].SuperResolve(lr)
	intOut := p.quant.SuperResolve(lr)
	gap := metrics.PSNR(f32Out, hr) - metrics.PSNR(intOut, hr)
	if !p.gapInit {
		p.gapEWMA, p.gapInit = gap, true
	} else {
		p.gapEWMA += float64(gateEWMAAlpha * (gap - p.gapEWMA))
	}
	p.mQuantGap.Observe(max(p.gapEWMA, 0))
	if p.gateDB > 0 {
		if p.quantOn && p.gapEWMA > p.gateDB {
			p.quantOn = false
		} else if !p.quantOn && p.gapEWMA < 0.7*p.gateDB {
			// Hysteresis: re-enable only once the gap has clearly recovered
			// (fresh weights after a sync, or content change).
			p.quantOn = true
		}
	}
}

// Process super-resolves lr and returns the upscaled frame together with
// the simulated per-frame latency from the device model. The computation is
// genuinely parallel across strips (one goroutine per GPU replica).
func (p *Processor) Process(lr *frame.Frame) (*frame.Frame, time.Duration) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.lazyCalibrate(lr)
	if p.anytime > 0 && p.scale > 1 {
		return p.processAnytime(lr)
	}
	s := p.scale
	if p.quant != nil && p.quantOn {
		lat := p.dev.InferenceTimeQuant(lr.W, lr.H, s, p.gpus)
		p.mQuantPatches.Inc()
		return p.quant.SuperResolve(lr), lat
	}
	lat := p.dev.InferenceTime(lr.W, lr.H, s, p.gpus)
	if p.gpus == 1 || lr.H < p.gpus*haloLR*3 {
		return p.models[0].SuperResolve(lr), lat
	}

	out := frame.New(lr.W*s, lr.H*s)
	stripH := (lr.H + p.gpus - 1) / p.gpus
	var wg sync.WaitGroup
	for g := 0; g < p.gpus; g++ {
		y0 := g * stripH
		if y0 >= lr.H {
			break
		}
		y1 := min(y0+stripH, lr.H)
		wg.Add(1)
		go func(g, y0, y1 int) {
			defer wg.Done()
			// Expand by the halo, super-resolve, then crop the halo away.
			top := max(0, y0-haloLR)
			bot := min(lr.H, y1+haloLR)
			strip := lr.Crop(0, top, lr.W, bot-top)
			up := p.models[g].SuperResolve(strip)
			cropTop := (y0 - top) * s
			region := up.Crop(0, cropTop, up.W, (y1-y0)*s)
			// Rows are disjoint across goroutines; Paste touches only
			// [y0*s, y1*s) of out.
			out.Paste(region, 0, y0*s)
		}(g, y0, y1)
	}
	wg.Wait()
	return out, lat
}

// lazyCalibrate seeds activation calibration from the first processed frame
// for quantized models whose source never trained. Caller holds p.mu.
func (p *Processor) lazyCalibrate(lr *frame.Frame) {
	if !p.needCalib || p.quant == nil || p.quantSrc == nil {
		return
	}
	p.needCalib = false
	p.quantSrc.Calibrate([]*frame.Frame{lr})
	p.quant = NewQuantModel(p.quantSrc)
}

// qcell is one anytime scheduler cell: an LR rectangle, its integer
// gradient-energy rank key, and the execution mode the budget planner
// assigned.
type qcell struct {
	x0, y0, x1, y1 int
	energy         int64
	mode           uint8
}

const (
	modeInt8 = uint8(iota)
	modeF32
	modeBilinear
)

// processAnytime is the anytime-scheduled inference path. Caller holds
// p.mu.
func (p *Processor) processAnytime(lr *frame.Frame) (*frame.Frame, time.Duration) {
	s := p.scale
	up := lr.ResizeBilinear(lr.W*s, lr.H*s) // canvas; un-enhanced cells keep it
	cells := anytimeCells(lr)

	// Rank by residual-energy proxy: cells where bilinear will blur the
	// most (high gradient energy) gain the most from f32 SR. Integer
	// energies and an index tie-break keep the ranking deterministic.
	rank := make([]int, len(cells))
	for i := range rank {
		rank[i] = i
	}
	sort.Slice(rank, func(a, b int) bool {
		ca, cb := &cells[rank[a]], &cells[rank[b]]
		if ca.energy != cb.energy {
			return ca.energy > cb.energy
		}
		return rank[a] < rank[b]
	})

	// Budget plan: start everything on the cheapest neural mode, upgrade
	// the highest-energy cells to f32 while the budget allows, then — if
	// even the base plan is over budget — degrade the lowest-energy tail to
	// the bilinear skip.
	quant := p.quant != nil && p.quantOn
	base := p.dev.TransferNS + float64(float64(p.gpus-1)*p.dev.StitchNS)
	budget := float64(p.anytime) - base
	cost := func(c *qcell, mode uint8) float64 {
		switch mode {
		case modeBilinear:
			return 0 // the skip canvas is already paid for
		case modeInt8:
			return p.dev.PatchComputeNS(c.x1-c.x0, c.y1-c.y0, s, true)
		default:
			return p.dev.PatchComputeNS(c.x1-c.x0, c.y1-c.y0, s, false)
		}
	}
	var total float64
	for i := range cells {
		if quant {
			cells[i].mode = modeInt8
		} else {
			cells[i].mode = modeF32
		}
		total += cost(&cells[i], cells[i].mode)
	}
	if quant {
		for _, i := range rank {
			up := total - cost(&cells[i], modeInt8) + cost(&cells[i], modeF32)
			if up <= budget {
				cells[i].mode = modeF32
				total = up
			}
		}
	}
	for j := len(rank) - 1; j >= 0 && total > budget; j-- {
		i := rank[j]
		total -= cost(&cells[i], cells[i].mode)
		cells[i].mode = modeBilinear
	}
	if total > budget {
		// Even all-bilinear does not fit (budget below fixed overhead).
		p.mDeadlineMiss.Inc()
	}

	// Execute: fixed cell→replica assignment (cell i on replica i mod
	// gpus); each cell writes a disjoint region of the canvas.
	var nInt8 int64
	for i := range cells {
		if cells[i].mode == modeInt8 {
			nInt8++
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < p.gpus; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(cells); i += p.gpus {
				c := &cells[i]
				switch c.mode {
				case modeInt8:
					p.quant.EnhanceRegion(lr, c.x0, c.y0, c.x1, c.y1, up)
				case modeF32:
					p.enhanceRegionF32(p.models[g], lr, c, up)
				}
			}
		}(g)
	}
	wg.Wait()

	lat := time.Duration(base + max(total, 0)/float64(p.gpus))
	p.mQuantPatches.Add(nInt8)
	return up, lat
}

// enhanceRegionF32 runs the f32 model over one cell (with halo) and pastes
// the enhanced region into the canvas.
func (p *Processor) enhanceRegionF32(m *Model, lr *frame.Frame, c *qcell, out *frame.Frame) {
	s := p.scale
	left, top := max(0, c.x0-haloLR), max(0, c.y0-haloLR)
	right, bot := min(lr.W, c.x1+haloLR), min(lr.H, c.y1+haloLR)
	cell := lr.Crop(left, top, right-left, bot-top)
	enhanced := m.SuperResolve(cell)
	region := enhanced.Crop((c.x0-left)*s, (c.y0-top)*s, (c.x1-c.x0)*s, (c.y1-c.y0)*s)
	out.Paste(region, c.x0*s, c.y0*s)
}

// anytimeCells cuts the LR frame into ~anytimeCellLR-sized cells (edge
// cells absorb the remainder so the frame is fully covered) and computes
// each cell's integer gradient-energy proxy: the sum of absolute horizontal
// and vertical pixel differences, normalised per pixel so differently-sized
// edge cells rank fairly.
func anytimeCells(lr *frame.Frame) []qcell {
	nx := max(1, lr.W/anytimeCellLR)
	ny := max(1, lr.H/anytimeCellLR)
	cells := make([]qcell, 0, nx*ny)
	for cy := 0; cy < ny; cy++ {
		y0 := cy * anytimeCellLR
		y1 := (cy + 1) * anytimeCellLR
		if cy == ny-1 {
			y1 = lr.H
		}
		for cx := 0; cx < nx; cx++ {
			x0 := cx * anytimeCellLR
			x1 := (cx + 1) * anytimeCellLR
			if cx == nx-1 {
				x1 = lr.W
			}
			var e int64
			for y := y0; y < y1; y++ {
				row := lr.Pix[y*lr.W:]
				for x := x0; x < x1; x++ {
					if x+1 < lr.W {
						e += absDiff(row[x], row[x+1])
					}
					if y+1 < lr.H {
						e += absDiff(row[x], lr.Pix[(y+1)*lr.W+x])
					}
				}
			}
			// Fixed-point per-pixel normalisation keeps the key integral
			// (deterministic comparisons) while ranking edge cells fairly.
			area := int64((x1 - x0) * (y1 - y0))
			cells = append(cells, qcell{x0: x0, y0: y0, x1: x1, y1: y1, energy: e * 256 / area})
		}
	}
	return cells
}

func absDiff(a, b uint8) int64 {
	if a > b {
		return int64(a - b)
	}
	return int64(b - a)
}
