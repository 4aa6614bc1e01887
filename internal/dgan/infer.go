package dgan

import (
	"math/rand"
	"sync"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/telemetry"
)

// InferModel is a float32, generator-only snapshot of a trained Model: the
// serving fast path of DESIGN.md §11. It carries no critics, no optimizer
// state, and no training caches — just the metadata MLP, the fused GRU,
// and the output projection, all narrowed to float32 with packed gate
// weights. Its Generate mirrors the reference lot structure (one base draw
// per call, derived per-lot streams, disjoint output spans) so output is
// reproducible for a fixed seed and independent of the worker count, but
// it does NOT share the float64 path's bitwise-determinism contract:
// float32 rounding and the polynomial activations shift individual values,
// and only the output distributions are pinned (internal/conformance).
type InferModel struct {
	MetaSchema    []nn.FieldSpec
	FeatureSchema []nn.FieldSpec // without the presence flag
	MaxLen        int
	NoiseDim      int
	Hidden        int
	// Labels is the scenario-conditioning one-hot width (0 =
	// unconditional); LabelWeights is the fitted training distribution
	// unconditional mixture draws use.
	Labels       int
	LabelWeights []float64
	// Lot is the generation lot size. The fast path is free to run larger
	// lots than Config.Batch (bigger matmuls amortize loop overhead)
	// because no bitwise contract ties its lot boundaries to training.
	Lot int
	// Parallelism is the generation worker count (0 = NumCPU, 1 = serial).
	Parallelism int

	metaW, featW int
	featFull     []nn.FieldSpec // FeatureSchema + presence

	meta *nn.MLP32
	gru  *nn.FusedGRU32
	proj *nn.Dense32

	mu   sync.Mutex
	rng  *rand.Rand
	pool sync.Pool
}

// DefaultInferLot is the fast path's lot size: large enough that the
// per-step matmuls stop being loop-overhead-bound at the repo's typical
// hidden widths, small enough that a partial final lot wastes little work.
const DefaultInferLot = 64

// Pre-registered telemetry handles for the fast path.
var (
	telInferLots    = telemetry.Default.Counter("dgan.infer.lots")
	telInferSamples = telemetry.Default.Counter("dgan.infer.samples")
)

// Infer snapshots the model's generator as a float32 fast-path instance.
// The snapshot is seeded with Config.Seed; callers wanting a specific
// generation stream should Reseed it (core derives per-chunk streams).
func (m *Model) Infer() *InferModel {
	cfg := m.Config
	im := &InferModel{
		MetaSchema:    append([]nn.FieldSpec(nil), cfg.MetaSchema...),
		FeatureSchema: append([]nn.FieldSpec(nil), cfg.FeatureSchema...),
		MaxLen:        cfg.MaxLen,
		NoiseDim:      cfg.NoiseDim,
		Hidden:        cfg.Hidden,
		Labels:        cfg.Labels,
		LabelWeights:  append([]float64(nil), m.labelWeights...),
		Lot:           DefaultInferLot,
		Parallelism:   cfg.Parallelism,
		meta:          nn.CompressMLP(m.metaGen),
		gru:           nn.CompressGRU(m.seqGRU),
		proj:          nn.CompressTimeDense(m.seqProj),
	}
	im.finish()
	im.Reseed(cfg.Seed)
	return im
}

// finish derives the cached widths and full feature schema; it must run
// after the public fields are populated (Infer and DecodeInferWeights).
func (im *InferModel) finish() {
	im.featFull = append(append([]nn.FieldSpec(nil), im.FeatureSchema...), presenceSpec)
	im.metaW = nn.Width(im.MetaSchema)
	im.featW = nn.Width(im.featFull)
	if im.Lot <= 0 {
		im.Lot = DefaultInferLot
	}
}

// Reseed replaces the canonical generation RNG.
func (im *InferModel) Reseed(seed int64) {
	im.mu.Lock()
	im.rng = rand.New(rand.NewSource(seed))
	im.mu.Unlock()
}

// SetParallelism retargets the generation worker count (0 = NumCPU,
// 1 = serial). Output is independent of the setting.
func (im *InferModel) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	im.Parallelism = n
}

// workers resolves the effective worker count.
func (im *InferModel) workers() int {
	return Config{Parallelism: im.Parallelism}.workers()
}

// inferScratch is one worker's reusable float32 forward state.
type inferScratch struct {
	mlp    nn.MLP32Scratch
	gru    nn.FusedGRU32Scratch
	z      *mat.Matrix32 // lot × NoiseDim noise
	zc     *mat.Matrix32 // lot × (NoiseDim + Labels) conditioned meta input
	x      *mat.Matrix32 // lot × (NoiseDim + metaW) GRU input
	h, h2  *mat.Matrix32 // lot × Hidden ping-pong hidden states
	proj   *mat.Matrix32 // lot × featW projected step output
	idx    []int         // live-row compaction map: scratch row → out index
	labels []int
}

func growBuf32(b *mat.Matrix32, rows, cols int) *mat.Matrix32 {
	if b == nil || b.Cols != cols || b.Rows < rows {
		b = mat.New32(rows, cols)
	}
	return b
}

func (sc *inferScratch) ensure(lot, noiseDim, condW, metaW, hidden, featW int) {
	sc.z = growBuf32(sc.z, lot, noiseDim)
	sc.x = growBuf32(sc.x, lot, noiseDim+metaW)
	sc.h = growBuf32(sc.h, lot, hidden)
	sc.h2 = growBuf32(sc.h2, lot, hidden)
	sc.proj = growBuf32(sc.proj, lot, featW)
	if cap(sc.idx) < lot {
		sc.idx = make([]int, lot)
	}
	if condW > 0 {
		sc.zc = growBuf32(sc.zc, lot, noiseDim+condW)
		if cap(sc.labels) < lot {
			sc.labels = make([]int, lot)
		}
	}
}

// Generate produces n synthetic samples on the fast path. The lot fan-out
// is Model.Generate's: one base draw off the canonical RNG per call, each
// lot on its own derived stream writing a disjoint span, so repeated calls
// from a fixed seed are reproducible at any Parallelism. On conditional
// snapshots each sample's label is drawn from LabelWeights.
func (im *InferModel) Generate(n int) []Sample {
	return im.generate(n, -1)
}

// GenerateLabeled produces n samples all conditioned on the given
// scenario label. It fails on unconditional snapshots and out-of-range
// labels.
func (im *InferModel) GenerateLabeled(n, label int) ([]Sample, error) {
	if err := checkLabel(im.Labels, label); err != nil {
		return nil, err
	}
	return im.generate(n, label), nil
}

// GenerateEach has Model.GenerateEach's contract on the float32 path: it
// delivers the samples Generate (label -1) or GenerateLabeled (label >= 0)
// would return, in windows of whole lots, with the lot-base draw taken
// from r (nil: the snapshot's own RNG, under its mutex), and stops once fn
// returns false. fn must not retain the window, which later windows reuse.
func (im *InferModel) GenerateEach(r *rand.Rand, n, label int, fn func([]Sample) bool) error {
	if label >= 0 {
		if err := checkLabel(im.Labels, label); err != nil {
			return err
		}
	}
	if n <= 0 {
		return nil
	}
	generateEach[*inferScratch](im, im.base(r), n, im.Lot, im.workers(), label, fn)
	return nil
}

func (im *InferModel) generate(n, label int) []Sample {
	if n <= 0 {
		return nil
	}
	out := make([]Sample, n)
	fillLots[*inferScratch](im, im.base(nil), 0, out, im.Lot, im.workers(), label)
	return out
}

// base takes one call's lot-stream base from r, or from the snapshot's own
// RNG when r is nil.
func (im *InferModel) base(r *rand.Rand) int64 {
	if r != nil {
		return r.Int63()
	}
	im.mu.Lock()
	defer im.mu.Unlock()
	return im.rng.Int63()
}

// LabelDistribution returns the fitted scenario-label distribution
// (LabelWeights; nil on unconditional snapshots).
func (im *InferModel) LabelDistribution() []float64 { return im.LabelWeights }

// LotSize returns the generation lot size (Lot).
func (im *InferModel) LotSize() int { return im.Lot }

// Encode is EncodeInfer in Model.Encode's shape, so both precisions
// persist through one interface.
func (im *InferModel) Encode() ([]byte, error) { return im.EncodeInfer(), nil }

// generateLot fills one lot of samples from r, the lot's private stream.
// The draw order matches the reference path — meta noise, meta sampling
// uniforms, then per step: noise followed by the live rows' uniforms — and
// the unroll stops once every row has terminated.
//
// Live rows are compacted to the front of the scratch matrices as rows
// terminate, so the per-step matmuls shrink with the live count instead of
// paying for dead rows until the last row finishes. The RNG stream is
// unchanged by compaction: noise is drawn for the full lot every step
// (fixed layout), and sampling uniforms are drawn for live rows in
// ascending out-index order either way.
func (im *InferModel) generateLot(r *rand.Rand, out []Sample, sc *inferScratch, label int) {
	lot := len(out)
	sc.ensure(lot, im.NoiseDim, im.Labels, im.metaW, im.Hidden, im.featW)

	// Label draws precede all noise, mirroring the reference path.
	if im.Labels > 0 {
		for i := 0; i < lot; i++ {
			if label >= 0 {
				sc.labels[i] = label
			} else {
				sc.labels[i] = drawLabelFrom(im.LabelWeights, im.Labels, r.Float64())
			}
		}
	}

	z := sc.z.RowsView(0, lot)
	randNorm32(z, r)
	metaIn := z
	if im.Labels > 0 {
		zc := sc.zc.RowsView(0, lot)
		for i := 0; i < lot; i++ {
			row := zc.Row(i)
			copy(row[:im.NoiseDim], z.Row(i))
			cond := row[im.NoiseDim:]
			for j := range cond {
				cond[j] = 0
			}
			cond[sc.labels[i]] = 1
		}
		metaIn = zc
	}
	meta := im.meta.InferInto(metaIn, &sc.mlp)
	nn.ActivateRows32(im.MetaSchema, meta)
	idx := sc.idx[:0]
	for i := range out {
		out[i].Meta = nn.SampleRow32(im.MetaSchema, meta.Row(i), r.Float64)
		out[i].Features = out[i].Features[:0]
		if im.Labels > 0 {
			out[i].Label = sc.labels[i]
		}
		idx = append(idx, i)
	}

	h, hNext := sc.h, sc.h2
	sc.h.RowsView(0, lot).Zero()
	for t := 0; t < im.MaxLen && len(idx) > 0; t++ {
		m := len(idx)
		randNorm32(z, r)
		x := sc.x.RowsView(0, m)
		for c, i := range idx {
			row := x.Row(c)
			copy(row[:im.NoiseDim], z.Row(i))
			copy(row[im.NoiseDim:], meta.Row(i))
		}
		cur, next := h.RowsView(0, m), hNext.RowsView(0, m)
		im.gru.StepInfer(x, cur, next, &sc.gru)
		h, hNext = hNext, h
		proj := sc.proj.RowsView(0, m)
		im.proj.InferInto(next, proj)
		nn.ActivateRows32(im.featFull, proj)
		w := 0
		for c, i := range idx {
			row := proj.Row(c)
			if t > 0 && row[im.featW-1] < 0.5 {
				continue
			}
			full := nn.SampleRow32(im.featFull, row, r.Float64)
			out[i].Features = append(out[i].Features, full[:im.featW-1])
			if w != c {
				copy(h.Row(w), h.Row(c))
			}
			idx[w] = i
			w++
		}
		idx = idx[:w]
	}
	telInferLots.Inc()
	telInferSamples.Add(int64(lot))
}

// randNorm32 fills z with N(0,1) draws narrowed to float32. Draw count per
// element matches the float64 path so stream layouts stay analogous.
func randNorm32(z *mat.Matrix32, r *rand.Rand) {
	for i := range z.Data {
		z.Data[i] = float32(r.NormFloat64())
	}
}

func (im *InferModel) scratch() *inferScratch {
	if sc, ok := im.pool.Get().(*inferScratch); ok {
		return sc
	}
	return &inferScratch{}
}

func (im *InferModel) release(sc *inferScratch) { im.pool.Put(sc) }
