package dgan

import (
	"fmt"
	"math/rand"

	"repro/internal/mat"
	"repro/internal/nn"
	"repro/internal/privacy"
)

// Stats summarizes a training run.
type Stats struct {
	Steps      int
	CriticLoss float64 // last critic Wasserstein loss (pre-penalty)
	GenLoss    float64 // last generator loss
	GradNorm   float64 // generator gradient L2 norm at the last step
}

// TrainHook observes training progress at generator-step granularity:
// it is invoked after every completed generator update with the 1-based
// step count and the running stats. A non-nil return aborts training with
// that error. internal/core records each chunk's loss curves through
// this hook.
type TrainHook func(step int, st Stats) error

// Train runs `steps` generator updates (each preceded by CriticIters critic
// updates) over the sample set. It returns an error for an empty sample
// set or malformed sample shapes.
func (m *Model) Train(samples []Sample, steps int) (Stats, error) {
	return m.TrainWithHook(samples, steps, nil)
}

// TrainWithHook is Train with a per-step progress hook (nil behaves like
// Train).
func (m *Model) TrainWithHook(samples []Sample, steps int, hook TrainHook) (Stats, error) {
	if err := m.checkSamples(samples); err != nil {
		return Stats{}, err
	}
	return m.trainLoop(samples, steps, nil, hook)
}

// TrainDP runs DP-SGD training: the critics (which observe private data)
// are updated with per-sample clipped, noised gradients accumulated through
// dp; the generator update is post-processing of the critic and needs no
// extra noise. Pre-train on public data with Train, then fine-tune with
// TrainDP (Insight 4).
func (m *Model) TrainDP(samples []Sample, steps int, dp *privacy.DPSGD) (Stats, error) {
	return m.TrainDPWithHook(samples, steps, dp, nil)
}

// TrainDPWithHook is TrainDP with a per-step progress hook.
func (m *Model) TrainDPWithHook(samples []Sample, steps int, dp *privacy.DPSGD, hook TrainHook) (Stats, error) {
	if err := m.checkSamples(samples); err != nil {
		return Stats{}, err
	}
	if dp == nil {
		return Stats{}, fmt.Errorf("dgan: TrainDP requires a DPSGD instance")
	}
	return m.trainLoop(samples, steps, dp, hook)
}

func (m *Model) trainLoop(samples []Sample, steps int, dp *privacy.DPSGD, hook TrainHook) (Stats, error) {
	var st Stats
	if m.condW > 0 {
		m.fitLabelWeights(samples)
	}
	for i := 0; i < steps; i++ {
		for c := 0; c < m.Config.CriticIters; c++ {
			st.CriticLoss = m.criticStep(samples, dp)
		}
		st.GenLoss, st.GradNorm = m.generatorStep()
		st.Steps++
		telSteps.Inc()
		if hook != nil {
			if err := hook(st.Steps, st); err != nil {
				return st, err
			}
		}
	}
	return st, nil
}

func (m *Model) checkSamples(samples []Sample) error {
	if len(samples) == 0 {
		return fmt.Errorf("dgan: no training samples")
	}
	for i, s := range samples {
		if len(s.Meta) != m.metaW {
			return fmt.Errorf("dgan: sample %d metadata width %d, want %d", i, len(s.Meta), m.metaW)
		}
		if len(s.Features) == 0 || len(s.Features) > m.Config.MaxLen {
			return fmt.Errorf("dgan: sample %d has %d steps, want 1..%d", i, len(s.Features), m.Config.MaxLen)
		}
		for t, f := range s.Features {
			if len(f) != m.featW-1 {
				return fmt.Errorf("dgan: sample %d step %d width %d, want %d", i, t, len(f), m.featW-1)
			}
		}
		if m.condW > 0 && (s.Label < 0 || s.Label >= m.condW) {
			return fmt.Errorf("dgan: sample %d label %d, want 0..%d", i, s.Label, m.condW-1)
		}
	}
	return nil
}

// fitLabelWeights records the empirical scenario-label distribution of the
// training set; unconditional generation draws per-sample labels from it.
func (m *Model) fitLabelWeights(samples []Sample) {
	counts := make([]float64, m.condW)
	for _, s := range samples {
		counts[s.Label]++
	}
	total := float64(len(samples))
	for i := range counts {
		counts[i] /= total
	}
	m.labelWeights = counts
}

// criticStep performs one WGAN-GP update of both critics. When dp is
// non-nil the data-dependent gradients are accumulated per sample through
// DP-SGD before the optimizer step.
func (m *Model) criticStep(samples []Sample, dp *privacy.DPSGD) float64 {
	batch := m.Config.Batch
	real := m.realBatch(samples, batch)
	meta, feats := m.forwardGenerator(batch)
	fake := m.flatten(meta, feats)

	var loss float64
	if dp == nil {
		outR := m.critic.Forward(real)
		outF := m.critic.Forward(fake)
		l, gr, gf := nn.WassersteinCriticLoss(outR, outF)
		loss = l
		// Backward passes must each follow their own forward.
		m.critic.Forward(real)
		m.critic.Backward(gr)
		m.critic.Forward(fake)
		m.critic.Backward(gf)
		nn.GradientPenalty(m.critic, real, fake, m.Config.GPWeight, m.rng.Float64)
		m.optD.Step(m.critic)

		realMeta := m.metaSlice(real)
		fakeMeta := m.condMeta(meta)
		outRM := m.auxCritic.Forward(realMeta)
		outFM := m.auxCritic.Forward(fakeMeta)
		_, grm, gfm := nn.WassersteinCriticLoss(outRM, outFM)
		m.auxCritic.Forward(realMeta)
		m.auxCritic.Backward(grm)
		m.auxCritic.Forward(fakeMeta)
		m.auxCritic.Backward(gfm)
		nn.GradientPenalty(m.auxCritic, realMeta, fakeMeta, m.Config.GPWeight, m.rng.Float64)
		m.optAux.Step(m.auxCritic)
		return loss
	}

	// DP path: per-sample gradients for the real-data terms, clipped and
	// noised; the fake-data and penalty terms are data independent given
	// the generator, so they are applied normally after Finalize.
	loss = m.dpCriticUpdate(m.critic, real, fake, dp)
	realMeta := m.metaSlice(real)
	m.dpCriticUpdate(m.auxCritic, realMeta, m.condMeta(meta), dp)
	return loss
}

// dpCriticUpdate updates one critic under DP-SGD and returns the
// Wasserstein loss estimate. The per-sample real gradients are computed on
// per-worker critic replicas (Config.Parallelism lanes), clipped locally,
// and merged by a fixed-order tree reduction, so the update is bitwise
// identical at every parallelism level.
func (m *Model) dpCriticUpdate(critic *nn.MLP, real, fake *mat.Matrix, dp *privacy.DPSGD) float64 {
	batch := real.Rows
	// Per-sample real gradients → clip per sample → tree-reduce → accumulate.
	sum := m.accumulatePerSample(critic, real, dp.Config.ClipNorm)
	dp.AccumulateLot(critic, sum)
	dp.Finalize(critic, batch)
	// Fake term and gradient penalty are post-processing w.r.t. the private
	// data; add their gradients on top of the noised real-term gradient.
	outF := critic.Forward(fake)
	_, gf := nn.WassersteinGenLoss(outF)
	gf.Scale(-1) // critic maximizes D(real)−D(fake): fake term is +mean
	critic.Backward(gf)
	nn.GradientPenalty(critic, fake, fake, m.Config.GPWeight, m.rng.Float64)

	outR := critic.Forward(real)
	outF2 := critic.Forward(fake)
	l, _, _ := nn.WassersteinCriticLoss(outR, outF2)
	opt := m.optD
	if critic == m.auxCritic {
		opt = m.optAux
	}
	opt.Step(critic)
	return l
}

// StepCritic runs one critic update round (both critics) outside the full
// Train loop and returns the Wasserstein loss. dp may be nil for the
// non-private path. It exists so benchmarks can time the hot kernel in
// isolation; training should go through Train/TrainDP.
func (m *Model) StepCritic(samples []Sample, dp *privacy.DPSGD) (float64, error) {
	if err := m.checkSamples(samples); err != nil {
		return 0, err
	}
	return m.criticStep(samples, dp), nil
}

// generatorStep performs one generator update against both critics and
// returns the generator loss and the pre-update gradient L2 norm.
func (m *Model) generatorStep() (float64, float64) {
	batch := m.Config.Batch
	meta, feats := m.forwardGenerator(batch)
	fake := m.flatten(meta, feats)

	out := m.critic.Forward(fake)
	loss, g := nn.WassersteinGenLoss(out)
	dInput := m.critic.Backward(g)
	nn.ZeroGrads(m.critic) // discard critic pollution from this pass
	dMeta, dFeats := m.unflatten(dInput)

	outAux := m.auxCritic.Forward(m.condMeta(meta))
	_, gAux := nn.WassersteinGenLoss(outAux)
	dMetaAux := m.auxCritic.Backward(gAux)
	nn.ZeroGrads(m.auxCritic)
	if m.condW > 0 {
		// Drop the gradient on the conditioning prefix: it is an input.
		stripped := mat.New(dMetaAux.Rows, m.metaW)
		for i := 0; i < dMetaAux.Rows; i++ {
			copy(stripped.Row(i), dMetaAux.Row(i)[m.condW:])
		}
		dMetaAux = stripped
	}
	dMeta.Add(dMetaAux)

	m.backwardGenerator(dMeta, dFeats)
	gradNorm := nn.GradNorm(generatorModule{m})
	m.optG.Step(generatorModule{m})
	return loss, gradNorm
}

func (m *Model) featSchema() []nn.FieldSpec {
	return append(append([]nn.FieldSpec(nil), m.Config.FeatureSchema...), presenceSpec)
}

// Rand exposes the model's seeded source for callers that need coordinated
// sampling (e.g. post-processing draws).
func (m *Model) Rand() *rand.Rand { return m.rng }

// Reseed replaces the model's RNG with a fresh source. Training advances
// the RNG by a data-dependent number of draws, while a checkpoint-decoded
// model starts from Config.Seed — reseeding both onto the same canonical
// stream after training is what makes generation from a resumed run
// bitwise identical to an uninterrupted one (DESIGN.md §7).
func (m *Model) Reseed(seed int64) { m.rng = rand.New(rand.NewSource(seed)) }
