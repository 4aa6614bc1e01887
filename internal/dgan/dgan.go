// Package dgan implements a DoppelGANger-style time-series GAN (Lin et al.
// 2020), the generative building block of NetShare's Insight 1. Each
// training sample is a (metadata, measurement sequence) pair: for NetShare,
// the metadata is the encoded five-tuple (plus flow tags) and the sequence
// holds the per-packet or per-record measurements.
//
// The architecture follows the paper's Appendix C configuration: a
// metadata generator (MLP), a recurrent measurement generator (GRU with a
// time-distributed projection), a Wasserstein critic with gradient penalty
// over the full (metadata ++ padded sequence) vector, and an enabled
// auxiliary critic over the metadata alone. Continuous fields use [0,1]
// normalization (sigmoid outputs); auto-normalization and packing are not
// used.
package dgan

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/mat"
	"repro/internal/nn"
)

// Config parameterizes the GAN.
type Config struct {
	MetaSchema    []nn.FieldSpec // metadata fields (activated widths)
	FeatureSchema []nn.FieldSpec // per-timestep measurement fields
	MaxLen        int            // maximum sequence length T
	NoiseDim      int            // latent width for both generators
	Hidden        int            // hidden width of all networks
	Batch         int            // minibatch size
	CriticIters   int            // critic updates per generator update
	GPWeight      float64        // gradient-penalty λ
	LR            float64        // Adam learning rate
	Seed          int64
	// Parallelism is the worker count for intra-step data parallelism
	// (per-sample DP-SGD gradient accumulation): 0 selects
	// runtime.NumCPU(), 1 forces serial execution. Both paths share the
	// same fixed-order tree reduction, so trained weights are bitwise
	// identical at every setting.
	Parallelism int
	// Labels is the width of the one-hot scenario-label conditioning
	// vector. 0 (the default) builds an unconditional model whose
	// training and generation streams are bitwise identical to builds
	// that predate conditioning. When positive, the label one-hot is
	// prepended to the metadata generator's noise input and to both
	// critics' inputs, Sample.Label must be in [0, Labels), and
	// GenerateLabeled can pin the scenario of every emitted sample.
	Labels int
}

// DefaultConfig returns a small configuration suitable for CPU training.
func DefaultConfig() Config {
	return Config{
		MaxLen:      8,
		NoiseDim:    8,
		Hidden:      32,
		Batch:       16,
		CriticIters: 2,
		GPWeight:    10,
		LR:          1e-3,
		Seed:        1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if len(c.MetaSchema) == 0 || len(c.FeatureSchema) == 0 {
		return fmt.Errorf("dgan: schemas must be non-empty")
	}
	if c.MaxLen <= 0 || c.NoiseDim <= 0 || c.Hidden <= 0 || c.Batch <= 0 {
		return fmt.Errorf("dgan: dimensions must be positive")
	}
	if c.CriticIters <= 0 || c.GPWeight < 0 || c.LR <= 0 {
		return fmt.Errorf("dgan: invalid training parameters")
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("dgan: Parallelism must be >= 0 (0 = NumCPU), got %d", c.Parallelism)
	}
	if c.Labels < 0 || c.Labels == 1 {
		return fmt.Errorf("dgan: Labels must be 0 (unconditional) or >= 2, got %d", c.Labels)
	}
	return nil
}

// workers resolves the effective worker count.
func (c Config) workers() int {
	if c.Parallelism == 0 {
		return runtime.NumCPU()
	}
	return c.Parallelism
}

// SetParallelism adjusts the worker count for training and generation after
// construction (0 = NumCPU, 1 = serial). Results are bitwise independent of
// the setting, so a loaded model may be retargeted to the host freely.
func (m *Model) SetParallelism(n int) {
	if n < 0 {
		n = 0
	}
	m.Config.Parallelism = n
}

// Sample is one training or generated sample: activated metadata plus a
// measurement sequence of up to MaxLen steps. Label is the scenario-label
// index in [0, Config.Labels); it is ignored (and left 0) on
// unconditional models.
type Sample struct {
	Meta     []float64
	Features [][]float64
	Label    int
}

// presenceSpec is the internal per-step flag marking real (vs padding)
// timesteps; DoppelGANger's "generation flag".
var presenceSpec = nn.FieldSpec{Name: "_presence", Kind: nn.FieldContinuous, Size: 1}

// Model is a trainable DoppelGANger instance.
type Model struct {
	Config Config

	metaW, featW int // activated widths (featW includes the presence flag)
	condW        int // conditioning one-hot width (Config.Labels; 0 = off)

	// labelWeights is the empirical scenario-label distribution of the
	// training set, fitted by trainLoop and persisted with the model;
	// unconditional Generate draws each sample's label from it. Nil falls
	// back to uniform.
	labelWeights []float64

	// Generator.
	metaGen  *nn.MLP
	metaHead *nn.OutputHead
	seqGRU   *nn.GRU
	seqProj  *nn.TimeDense
	seqHeads []*nn.OutputHead // one per timestep (each caches its forward)

	// Critics.
	critic    *nn.MLP
	auxCritic *nn.MLP

	optG, optD, optAux *nn.Adam
	rng                *rand.Rand

	// Per-critic scratch for parallel per-sample DP-SGD accumulation,
	// built lazily on the first DP step and reused every step after.
	dpScratch map[*nn.MLP]*dpScratch

	// Pool of per-worker generation scratch (generate.go).
	genPool sync.Pool

	// Generator forward caches for the backward pass.
	lastZMeta *mat.Matrix
	lastMeta  *mat.Matrix
	lastFeats []*mat.Matrix
	lastCond  *mat.Matrix // batch × condW one-hot labels of the last fake batch
}

// New builds a model from cfg.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(cfg.Seed))
	featSchema := append(append([]nn.FieldSpec(nil), cfg.FeatureSchema...), presenceSpec)
	m := &Model{
		Config:    cfg,
		metaW:     nn.Width(cfg.MetaSchema),
		featW:     nn.Width(featSchema),
		condW:     cfg.Labels,
		rng:       r,
		dpScratch: make(map[*nn.MLP]*dpScratch),
	}
	m.metaGen = nn.NewMLP("g.meta", []int{cfg.NoiseDim + m.condW, cfg.Hidden, cfg.Hidden, m.metaW}, nn.ReLU, nn.Identity, r)
	m.metaHead = nn.NewOutputHead(cfg.MetaSchema)
	m.seqGRU = nn.NewGRU("g.gru", cfg.NoiseDim+m.metaW, cfg.Hidden)
	nn.InitXavier(m.seqGRU, r)
	m.seqProj = nn.NewTimeDense("g.proj", cfg.Hidden, m.featW)
	nn.InitXavier(m.seqProj, r)
	m.seqHeads = make([]*nn.OutputHead, cfg.MaxLen)
	for t := range m.seqHeads {
		m.seqHeads[t] = nn.NewOutputHead(featSchema)
	}
	inW := m.condW + m.metaW + cfg.MaxLen*m.featW
	m.critic = nn.NewMLP("d.main", []int{inW, cfg.Hidden, cfg.Hidden, 1}, nn.LeakyReLU, nn.Identity, r)
	m.auxCritic = nn.NewMLP("d.aux", []int{m.condW + m.metaW, cfg.Hidden, 1}, nn.LeakyReLU, nn.Identity, r)
	m.optG = nn.NewAdam(cfg.LR)
	m.optD = nn.NewAdam(cfg.LR)
	m.optAux = nn.NewAdam(cfg.LR)
	return m, nil
}

// generatorModule aggregates the generator's trainable pieces.
type generatorModule struct{ m *Model }

func (g generatorModule) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, g.m.metaGen.Params()...)
	ps = append(ps, g.m.seqGRU.Params()...)
	ps = append(ps, g.m.seqProj.Params()...)
	return ps
}

// Generator returns the generator as an nn.Module (for snapshots and
// fine-tuning).
func (m *Model) Generator() nn.Module { return generatorModule{m} }

// modelModule aggregates every trainable parameter.
type modelModule struct{ m *Model }

func (mm modelModule) Params() []*nn.Param {
	var ps []*nn.Param
	ps = append(ps, generatorModule{mm.m}.Params()...)
	ps = append(ps, mm.m.critic.Params()...)
	ps = append(ps, mm.m.auxCritic.Params()...)
	return ps
}

// Params implements nn.Module over the full model, enabling
// Snapshot/Restore-based fine-tuning (Insights 3 and 4).
func (m *Model) Params() []*nn.Param { return modelModule{m}.Params() }

// Warmstart copies the weights of src into m. Configurations must build
// identical architectures.
func (m *Model) Warmstart(src *Model) error {
	if err := nn.TakeSnapshot(src).Restore(m); err != nil {
		return fmt.Errorf("dgan: warmstart: %w", err)
	}
	m.optG.Reset()
	m.optD.Reset()
	m.optAux.Reset()
	return nil
}

// noise fills a fresh batch×dim matrix with N(0,1).
func (m *Model) noise(batch, dim int) *mat.Matrix {
	z := mat.New(batch, dim)
	z.RandNorm(m.rng, 1)
	return z
}

// Conditional reports whether the model carries a scenario-conditioning
// vector.
func (m *Model) Conditional() bool { return m.condW > 0 }

// LabelDistribution returns a copy of the fitted scenario-label
// distribution (nil before training or on unconditional models).
func (m *Model) LabelDistribution() []float64 {
	if m.labelWeights == nil {
		return nil
	}
	return append([]float64(nil), m.labelWeights...)
}

// LotSize returns the generation lot size, Config.Batch: lot boundaries
// follow the training batch so the float64 output is pinned bit for bit.
func (m *Model) LotSize() int { return m.Config.Batch }

// drawLabel samples a scenario label from the fitted training
// distribution (uniform before fitting) using one uniform draw.
func (m *Model) drawLabel(f func() float64) int {
	return drawLabelFrom(m.labelWeights, m.condW, f())
}

// drawLabelFrom inverts the CDF of weights (uniform over n when weights
// is absent or malformed) at u.
func drawLabelFrom(weights []float64, n int, u float64) int {
	if len(weights) != n {
		i := int(u * float64(n))
		if i >= n {
			i = n - 1
		}
		return i
	}
	acc := 0.0
	for i, w := range weights {
		acc += w
		if u < acc {
			return i
		}
	}
	return n - 1
}

// forwardGenerator runs the full generator for a batch, caching everything
// backwardGenerator needs. It returns the activated metadata and per-step
// activated features (soft categorical probabilities). On conditional
// models each fake sample's label is drawn from the fitted training
// distribution first and its one-hot cached in lastCond for the critic
// inputs.
func (m *Model) forwardGenerator(batch int) (*mat.Matrix, []*mat.Matrix) {
	cfg := m.Config
	zIn := m.noise(batch, cfg.NoiseDim)
	m.lastZMeta = zIn
	if m.condW > 0 {
		m.lastCond = mat.New(batch, m.condW)
		for i := 0; i < batch; i++ {
			m.lastCond.Row(i)[m.drawLabel(m.rng.Float64)] = 1
		}
		zc := mat.New(batch, cfg.NoiseDim+m.condW)
		for i := 0; i < batch; i++ {
			row := zc.Row(i)
			copy(row[:cfg.NoiseDim], zIn.Row(i))
			copy(row[cfg.NoiseDim:], m.lastCond.Row(i))
		}
		zIn = zc
	}
	metaRaw := m.metaGen.Forward(zIn)
	meta := m.metaHead.Forward(metaRaw)
	m.lastMeta = meta

	xs := make([]*mat.Matrix, cfg.MaxLen)
	for t := 0; t < cfg.MaxLen; t++ {
		z := m.noise(batch, cfg.NoiseDim)
		x := mat.New(batch, cfg.NoiseDim+m.metaW)
		for i := 0; i < batch; i++ {
			copy(x.Row(i)[:cfg.NoiseDim], z.Row(i))
			copy(x.Row(i)[cfg.NoiseDim:], meta.Row(i))
		}
		xs[t] = x
	}
	hs := m.seqGRU.Forward(xs, nil)
	raws := m.seqProj.Forward(hs)
	feats := make([]*mat.Matrix, cfg.MaxLen)
	for t := range raws {
		feats[t] = m.seqHeads[t].Forward(raws[t])
	}
	m.lastFeats = feats
	return meta, feats
}

// backwardGenerator propagates dMeta (gradient on activated metadata from
// every consumer) and dFeats (per-step gradients on activated features)
// through the whole generator, accumulating parameter gradients.
func (m *Model) backwardGenerator(dMeta *mat.Matrix, dFeats []*mat.Matrix) {
	cfg := m.Config
	dRaws := make([]*mat.Matrix, cfg.MaxLen)
	for t := range dFeats {
		dRaws[t] = m.seqHeads[t].Backward(dFeats[t])
	}
	dHs := m.seqProj.Backward(dRaws)
	dXs := m.seqGRU.Backward(dHs)

	dMetaTotal := dMeta.Clone()
	for _, dx := range dXs {
		for i := 0; i < dx.Rows; i++ {
			src := dx.Row(i)[cfg.NoiseDim:]
			dst := dMetaTotal.Row(i)
			for j, v := range src {
				dst[j] += v
			}
		}
	}
	dMetaRaw := m.metaHead.Backward(dMetaTotal)
	m.metaGen.Backward(dMetaRaw)
}

// flatten packs metadata plus padded features into critic input rows. On
// conditional models rows are prefixed with the cached fake-label one-hots
// so the critic scores (label, metadata, sequence) jointly.
func (m *Model) flatten(meta *mat.Matrix, feats []*mat.Matrix) *mat.Matrix {
	batch := meta.Rows
	out := mat.New(batch, m.condW+m.metaW+m.Config.MaxLen*m.featW)
	for i := 0; i < batch; i++ {
		row := out.Row(i)
		if m.condW > 0 {
			copy(row[:m.condW], m.lastCond.Row(i))
		}
		copy(row[m.condW:m.condW+m.metaW], meta.Row(i))
		for t, f := range feats {
			base := m.condW + m.metaW + t*m.featW
			copy(row[base:base+m.featW], f.Row(i))
		}
	}
	return out
}

// unflatten splits a critic-input gradient back into metadata and per-step
// feature gradients. The conditioning prefix is an input, not a generator
// output, so its gradient columns are discarded.
func (m *Model) unflatten(d *mat.Matrix) (*mat.Matrix, []*mat.Matrix) {
	batch := d.Rows
	dMeta := mat.New(batch, m.metaW)
	dFeats := make([]*mat.Matrix, m.Config.MaxLen)
	for t := range dFeats {
		dFeats[t] = mat.New(batch, m.featW)
	}
	for i := 0; i < batch; i++ {
		row := d.Row(i)
		copy(dMeta.Row(i), row[m.condW:m.condW+m.metaW])
		for t := 0; t < m.Config.MaxLen; t++ {
			base := m.condW + m.metaW + t*m.featW
			copy(dFeats[t].Row(i), row[base:base+m.featW])
		}
	}
	return dMeta, dFeats
}

// encodeReal packs a real sample into a critic-input row: the label
// one-hot (conditional models only), metadata, then each timestep's
// features with a trailing presence flag (1 for real steps, 0 padding).
func (m *Model) encodeReal(s Sample, row []float64) {
	if m.condW > 0 {
		row[s.Label] = 1
	}
	copy(row[m.condW:m.condW+m.metaW], s.Meta)
	for t := 0; t < m.Config.MaxLen; t++ {
		base := m.condW + m.metaW + t*m.featW
		if t < len(s.Features) {
			copy(row[base:base+m.featW-1], s.Features[t])
			row[base+m.featW-1] = 1
		} else {
			for j := base; j < base+m.featW; j++ {
				row[j] = 0
			}
		}
	}
}

// realBatch assembles a random minibatch of real samples as critic input.
func (m *Model) realBatch(samples []Sample, batch int) *mat.Matrix {
	out := mat.New(batch, m.condW+m.metaW+m.Config.MaxLen*m.featW)
	for i := 0; i < batch; i++ {
		s := samples[m.rng.Intn(len(samples))]
		m.encodeReal(s, out.Row(i))
	}
	return out
}

// metaSlice extracts the (conditioning ++ metadata) columns of
// critic-input rows — the auxiliary critic's input.
func (m *Model) metaSlice(x *mat.Matrix) *mat.Matrix {
	out := mat.New(x.Rows, m.condW+m.metaW)
	for i := 0; i < x.Rows; i++ {
		copy(out.Row(i), x.Row(i)[:m.condW+m.metaW])
	}
	return out
}

// condMeta prefixes fake metadata rows with the cached label one-hots so
// they line up with metaSlice of real rows; it returns meta unchanged on
// unconditional models.
func (m *Model) condMeta(meta *mat.Matrix) *mat.Matrix {
	if m.condW == 0 {
		return meta
	}
	out := mat.New(meta.Rows, m.condW+m.metaW)
	for i := 0; i < meta.Rows; i++ {
		row := out.Row(i)
		copy(row[:m.condW], m.lastCond.Row(i))
		copy(row[m.condW:], meta.Row(i))
	}
	return out
}
