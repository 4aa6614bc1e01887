package core

import (
	"fmt"
	"time"

	"repro/internal/dgan"
	"repro/internal/orchestrator"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// A training plan is the one definition of how NetShare trains its chunk
// models (Insight 3): train the seed chunk, then fine-tune every other
// chunk warm-started from it. The plan holds the deterministic
// preparation — fitted embeddings, codec, per-chunk encoded samples — and
// each task is a pure function of the plan plus its inputs:
//
//	TrainSeedChunk()            → encoded seed model (chunk 0)
//	FineTuneChunk(i, seedBytes) → encoded chunk-i model
//	Assemble(allChunkBytes)     → the synthesizer
//
// Local training (TrainFlowSynthesizer, TrainPacketSynthesizer) runs the
// same tasks in process under internal/orchestrator, handing the
// in-memory seed model to the fine-tunes; internal/cluster workers run
// them in separate processes through the byte wrappers above.
//
// Determinism contract: a plan built from the same (trace, public, cfg)
// on any machine produces bitwise-identical chunk payloads, and both
// executors end in the same canonical generation reseed (finish), so a
// distributed run, a local run, and a crash-recovered run of either kind
// generate byte-identical traces and save byte-identical containers.
// This is what makes the cluster queue's at-least-once task semantics
// safe: two workers that both train the same chunk upload the same
// bytes.

// chunkPlan is the kind-independent core of a plan.
type chunkPlan struct {
	cfg          Config
	ganCfg       dgan.Config
	chunkSamples [][]dgan.Sample
	// public is the DP pre-training corpus (DP with Pretrain only).
	public []dgan.Sample
}

// Chunks returns the number of chunk tasks (seed included).
func (p *chunkPlan) Chunks() int { return len(p.chunkSamples) }

// ChunkSampleCounts returns how many flow samples each chunk holds.
func (p *chunkPlan) ChunkSampleCounts() []int {
	out := make([]int, len(p.chunkSamples))
	for i, s := range p.chunkSamples {
		out[i] = len(s)
	}
	return out
}

// ConfigHash digests the training-relevant configuration, for
// cross-process compatibility checks (same value as the checkpoint
// manifest's hash).
func (p *chunkPlan) ConfigHash() uint64 { return p.cfg.hash() }

// TrainSeedChunk trains the chunk-0 seed model and returns its encoded
// weights.
func (p *chunkPlan) TrainSeedChunk() ([]byte, error) {
	m, _, err := p.trainSeed()
	if err != nil {
		return nil, err
	}
	return m.Encode()
}

// FineTuneChunk warm-starts chunk idx from the encoded seed weights and
// fine-tunes it. Warmstart restores weights only, so fine-tuning from
// decoded seed bytes is bitwise identical to fine-tuning from the
// in-memory seed model.
func (p *chunkPlan) FineTuneChunk(idx int, seedBytes []byte) ([]byte, error) {
	if idx <= 0 || idx >= len(p.chunkSamples) {
		return nil, fmt.Errorf("core: fine-tune chunk %d out of range [1,%d)", idx, len(p.chunkSamples))
	}
	seed, err := dgan.DecodeModel(seedBytes)
	if err != nil {
		return nil, fmt.Errorf("core: decode seed model: %w", err)
	}
	m, _, err := p.fineTune(idx, seed)
	if err != nil {
		return nil, err
	}
	return m.Encode()
}

// trainSeed trains the chunk-0 seed model: plainly, or under DP with
// optional public pre-training followed by DP-SGD on the reserved noise
// stream. Every call builds fresh model and DP-SGD state, so a retried
// attempt replays identical noise and yields identical weights.
func (p *chunkPlan) trainSeed() (*dgan.Model, dgan.Stats, error) {
	seedCfg := p.ganCfg
	seedCfg.Seed = p.cfg.Seed
	seed, err := dgan.New(seedCfg)
	if err != nil {
		return nil, dgan.Stats{}, err
	}
	hook := lossHook(0)
	if p.cfg.DP == nil {
		ts, err := seed.TrainWithHook(p.chunkSamples[0], p.cfg.SeedSteps, hook)
		if err != nil {
			return nil, ts, err
		}
		return seed, ts, nil
	}
	if p.cfg.DP.Pretrain {
		if len(p.public) == 0 {
			return nil, dgan.Stats{}, fmt.Errorf("core: DP pretraining requires public samples")
		}
		if _, err := seed.Train(p.public, p.cfg.DP.PretrainSteps); err != nil {
			return nil, dgan.Stats{}, err
		}
	}
	dp, err := privacy.NewDPSGD(p.dpConfig(), rng.New(rng.Derive(p.cfg.Seed, dpNoiseStream)))
	if err != nil {
		return nil, dgan.Stats{}, err
	}
	// Chart the cumulative privacy spend: the RDP accountant is queried
	// per generator step (cheap relative to a critic round) only while
	// telemetry is enabled.
	_, _, _, epsSeries := chunkSeries(0)
	dpHook := func(step int, ts dgan.Stats) error {
		if telemetry.Default.Enabled() {
			e := dp.Epsilon()
			epsSeries.Record(int64(step), e)
			telEpsilon.Set(e)
		}
		return hook(step, ts)
	}
	ts, err := seed.TrainDPWithHook(p.chunkSamples[0], p.cfg.SeedSteps, dp, dpHook)
	if err != nil {
		return nil, ts, err
	}
	telEpsilon.Set(dp.Epsilon())
	return seed, ts, nil
}

// dpConfig is the DP-SGD configuration of the seed chunk. Validate
// enforces Chunks=1 under DP, so chunk 0 is the whole private dataset and
// its size sets the sampling rate.
func (p *chunkPlan) dpConfig() privacy.DPSGDConfig {
	return privacy.DPSGDConfig{
		ClipNorm:        p.cfg.DP.ClipNorm,
		NoiseMultiplier: p.cfg.DP.NoiseMultiplier,
		SampleRate:      dpSampleRate(p.ganCfg.Batch, len(p.chunkSamples[0])),
		Delta:           p.cfg.DP.Delta,
	}
}

// epsilon is the (ε, δ) guarantee the seed task spends: DPSteps
// compositions at the seed chunk's sampling rate, 0 without DP. It is a
// function of the plan alone, so a run that restores the seed chunk from
// a checkpoint reports the ε of the run that trained it.
func (p *chunkPlan) epsilon() float64 {
	if p.cfg.DP == nil {
		return 0
	}
	dc := p.dpConfig()
	return privacy.ComputeEpsilon(dc.NoiseMultiplier, dc.SampleRate, p.cfg.DPSteps(), dc.Delta)
}

// warmStart builds chunk idx's model from the seed's weights (optimizer
// and RNG state start fresh) on the chunk's decorrelated stream
// rng.Derive(cfg.Seed, idx), which depends only on the seed and the
// index, so every process and fan-out order draws the same noise per
// chunk. It is the fine-tune starting point and a degraded chunk's
// stand-in.
func (p *chunkPlan) warmStart(idx int, seed *dgan.Model) (*dgan.Model, error) {
	mCfg := p.ganCfg
	mCfg.Seed = rng.Derive(p.cfg.Seed, int64(idx))
	m, err := dgan.New(mCfg)
	if err != nil {
		return nil, err
	}
	if err := m.Warmstart(seed); err != nil {
		return nil, err
	}
	return m, nil
}

// fineTune warm-starts chunk idx from the seed model and fine-tunes it on
// the chunk's samples.
func (p *chunkPlan) fineTune(idx int, seed *dgan.Model) (*dgan.Model, dgan.Stats, error) {
	m, err := p.warmStart(idx, seed)
	if err != nil {
		return nil, dgan.Stats{}, err
	}
	var ts dgan.Stats
	if len(p.chunkSamples[idx]) > 0 && p.cfg.FineTuneSteps > 0 {
		if ts, err = m.TrainWithHook(p.chunkSamples[idx], p.cfg.FineTuneSteps, lossHook(idx)); err != nil {
			return nil, ts, err
		}
	}
	return m, ts, nil
}

// lossHook records a chunk's loss and grad-norm curves in its telemetry
// series. Recording is observational only; it cannot perturb training.
func lossHook(idx int) dgan.TrainHook {
	critic, gen, grad, _ := chunkSeries(idx)
	return func(step int, ts dgan.Stats) error {
		critic.Record(int64(step), ts.CriticLoss)
		gen.Record(int64(step), ts.GenLoss)
		grad.Record(int64(step), ts.GradNorm)
		return nil
	}
}

// finish puts every chunk model on its canonical generation stream and
// the configured worker count, and returns the Stats a saved model
// carries. Local training and Assemble both end here: a fresh model's RNG
// has advanced through training while a decoded one's has not, and the
// reseed erases that difference.
func (p *chunkPlan) finish(models []*dgan.Model) Stats {
	for i, m := range models {
		m.Reseed(genSeed(p.cfg, i))
		m.SetParallelism(p.cfg.Parallelism)
	}
	return Stats{ChunkSamples: p.ChunkSampleCounts(), Epsilon: p.epsilon()}
}

// assemble decodes every chunk payload and finishes the models. Stats
// carries no run costs; those belong to the workers that did the
// training.
func (p *chunkPlan) assemble(encoded [][]byte) ([]*dgan.Model, Stats, error) {
	if len(encoded) != len(p.chunkSamples) {
		return nil, Stats{}, fmt.Errorf("core: assemble got %d chunk payloads, want %d", len(encoded), len(p.chunkSamples))
	}
	models := make([]*dgan.Model, len(encoded))
	for i, data := range encoded {
		m, err := dgan.DecodeModel(data)
		if err != nil {
			return nil, Stats{}, fmt.Errorf("core: decode chunk %d model: %w", i, err)
		}
		models[i] = m
	}
	return models, p.finish(models), nil
}

// train runs the plan's tasks in process under the fault-tolerant
// orchestrator — per-chunk checkpoints, resume, retries with backoff and
// seed-weight degradation, all governed by opts — fine-tuning in parallel
// when cfg.Parallel is set, and reports the run's costs in Stats.
func (p *chunkPlan) train(opts TrainOptions) ([]*dgan.Model, Stats, error) {
	n := p.Chunks()
	criticLoss, genLoss := make([]float64, n), make([]float64, n)
	// Each task writes its own chunk's final losses, so the parallel
	// fan-out needs no lock.
	done := func(idx int, m *dgan.Model, ts dgan.Stats, err error) (orchestrator.Model, error) {
		if err != nil {
			return nil, err
		}
		criticLoss[idx], genLoss[idx] = ts.CriticLoss, ts.GenLoss
		return m, nil
	}
	var orch orchestrator.Options
	if opts.Orchestration != nil {
		orch = *opts.Orchestration
	}
	wallStart := time.Now()
	trainSW := telTrainPhase.Start()
	defer trainSW.Stop()
	res, err := orchestrator.Run(orch, orchestrator.Spec{
		NumChunks:  n,
		ConfigHash: p.cfg.hash(),
		BaseSeed:   p.cfg.Seed,
		Parallel:   p.cfg.Parallel,
		TrainSeed: func(orchestrator.ChunkRun) (orchestrator.Model, error) {
			m, ts, err := p.trainSeed()
			return done(0, m, ts, err)
		},
		FineTune: func(run orchestrator.ChunkRun, seed orchestrator.Model) (orchestrator.Model, error) {
			m, ts, err := p.fineTune(run.Idx, seed.(*dgan.Model))
			return done(run.Idx, m, ts, err)
		},
		Fallback: func(idx int, seed orchestrator.Model) (orchestrator.Model, error) {
			m, err := p.warmStart(idx, seed.(*dgan.Model))
			if err != nil {
				return nil, err
			}
			return m, nil
		},
		Decode: func(data []byte) (orchestrator.Model, error) {
			return dgan.DecodeModel(data)
		},
	})
	if err != nil {
		return nil, Stats{}, err
	}
	models := make([]*dgan.Model, n)
	for i, m := range res.Models {
		models[i] = m.(*dgan.Model)
	}
	st := p.finish(models)
	for _, d := range res.ChunkTime {
		st.CPUTime += d
	}
	st.WallTime = time.Since(wallStart)
	st.SeedTime = res.ChunkTime[0]
	st.ChunkAttempts, st.ChunkResumed, st.ChunkDegraded = res.Attempts, res.Resumed, res.Degraded
	st.ChunkCriticLoss, st.ChunkGenLoss = criticLoss, genLoss
	return models, st, nil
}

// planConfigOK rejects configurations that cannot be distributed.
func planConfigOK(cfg Config) error {
	if cfg.DP != nil {
		// DP-SGD's epsilon accounting is a single-process authority; the
		// noise stream and privacy budget cannot be split across leases.
		return fmt.Errorf("core: DP training cannot be distributed across workers; run it standalone")
	}
	if cfg.IPVectorEncoding {
		// The private IP dictionary is fit on the private trace and is
		// not part of the chunk payloads; distributing it would require
		// shipping private state through the queue.
		return fmt.Errorf("core: IPVectorEncoding cannot be distributed across workers; run it standalone")
	}
	return nil
}

// FlowPlan is a training plan for NetFlow traces.
type FlowPlan struct {
	chunkPlan
	codec *flowCodec
}

// PlanFlowTraining prepares a distributable flow-training plan: the
// deterministic preparation of TrainFlowSynthesizer (embeddings, codec,
// chunked sample encoding) without training anything yet.
func PlanFlowTraining(t *trace.FlowTrace, public *trace.PacketTrace, cfg Config) (*FlowPlan, error) {
	if err := planConfigOK(cfg); err != nil {
		return nil, err
	}
	return newFlowPlan(t, public, cfg)
}

// Assemble builds the synthesizer from every chunk's encoded model, in
// chunk order.
func (p *FlowPlan) Assemble(encoded [][]byte) (*FlowSynthesizer, error) {
	models, st, err := p.assemble(encoded)
	if err != nil {
		return nil, err
	}
	return p.synthesizer(models, st), nil
}

func (p *FlowPlan) synthesizer(models []*dgan.Model, st Stats) *FlowSynthesizer {
	return &FlowSynthesizer{chunkSamplers: trained(p.cfg, models, st), codec: p.codec}
}

// PacketPlan is a training plan for PCAP traces.
type PacketPlan struct {
	chunkPlan
	codec *packetCodec
}

// PlanPacketTraining prepares a distributable packet-training plan; see
// PlanFlowTraining.
func PlanPacketTraining(t *trace.PacketTrace, public *trace.PacketTrace, cfg Config) (*PacketPlan, error) {
	if err := planConfigOK(cfg); err != nil {
		return nil, err
	}
	return newPacketPlan(t, public, cfg)
}

// Assemble builds the synthesizer from every chunk's encoded model, in
// chunk order.
func (p *PacketPlan) Assemble(encoded [][]byte) (*PacketSynthesizer, error) {
	models, st, err := p.assemble(encoded)
	if err != nil {
		return nil, err
	}
	return p.synthesizer(models, st), nil
}

func (p *PacketPlan) synthesizer(models []*dgan.Model, st Stats) *PacketSynthesizer {
	return &PacketSynthesizer{chunkSamplers: trained(p.cfg, models, st), codec: p.codec}
}
