package core

import (
	"fmt"

	"repro/internal/dgan"
	"repro/internal/rng"
	"repro/internal/trace"
)

// A training plan decomposes the Insight 3 fan-out into independently
// executable chunk tasks so they can run in different processes (the
// internal/cluster coordinator/worker split). The plan holds the
// deterministic preparation — fitted embeddings, codec, per-chunk
// encoded samples — and each task method is a pure function of the
// plan plus its inputs:
//
//	TrainSeedChunk()            → encoded seed model (chunk 0)
//	FineTuneChunk(i, seedBytes) → encoded chunk-i model
//	Assemble(allChunkBytes)     → the synthesizer
//
// Determinism contract: a plan built from the same (trace, public,
// cfg) on any machine produces bitwise-identical chunk payloads, and
// Assemble applies the same canonical generation reseed as local
// training (trainChunks), so a distributed run, a local run, and a
// crash-recovered distributed run all generate byte-identical traces.
// This is what makes the cluster queue's at-least-once task semantics
// safe: two workers that both train the same chunk upload the same
// bytes.

// chunkPlan is the kind-independent core of a plan.
type chunkPlan struct {
	cfg          Config
	ganCfg       dgan.Config
	chunkSamples [][]dgan.Sample
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
// weights — the same recipe as trainChunks' trainSeed (DP is rejected
// at plan time, so only the non-private path exists here).
func (p *chunkPlan) TrainSeedChunk() ([]byte, error) {
	seedCfg := p.ganCfg
	seedCfg.Seed = p.cfg.Seed
	seed, err := dgan.New(seedCfg)
	if err != nil {
		return nil, err
	}
	if _, err := seed.Train(p.chunkSamples[0], p.cfg.SeedSteps); err != nil {
		return nil, err
	}
	return seed.Encode()
}

// FineTuneChunk warm-starts chunk idx from the encoded seed weights and
// fine-tunes it on the chunk's samples. Warmstart restores weights only
// (optimizer state and RNG restart fresh, exactly as in the in-process
// fan-out), so fine-tuning from decoded seed bytes is bitwise identical
// to fine-tuning from the in-memory seed model.
func (p *chunkPlan) FineTuneChunk(idx int, seedBytes []byte) ([]byte, error) {
	if idx <= 0 || idx >= len(p.chunkSamples) {
		return nil, fmt.Errorf("core: fine-tune chunk %d out of range [1,%d)", idx, len(p.chunkSamples))
	}
	seed, err := dgan.DecodeModel(seedBytes)
	if err != nil {
		return nil, fmt.Errorf("core: decode seed model: %w", err)
	}
	mCfg := p.ganCfg
	// The chunk's decorrelated RNG stream depends only on the base seed
	// and chunk index — the same stream the local fan-out derives.
	mCfg.Seed = rng.Derive(p.cfg.Seed, int64(idx))
	m, err := dgan.New(mCfg)
	if err != nil {
		return nil, err
	}
	if err := m.Warmstart(seed); err != nil {
		return nil, err
	}
	if len(p.chunkSamples[idx]) > 0 && p.cfg.FineTuneSteps > 0 {
		if _, err := m.Train(p.chunkSamples[idx], p.cfg.FineTuneSteps); err != nil {
			return nil, err
		}
	}
	return m.Encode()
}

// assemble decodes every chunk payload and applies the canonical
// post-training generation reseed, mirroring the tail of trainChunks.
// Stats carries only what generation needs (per-chunk sample counts);
// timing belongs to the workers that did the training.
func (p *chunkPlan) assemble(encoded [][]byte) ([]*dgan.Model, Stats, error) {
	var st Stats
	if len(encoded) != len(p.chunkSamples) {
		return nil, st, fmt.Errorf("core: assemble got %d chunk payloads, want %d", len(encoded), len(p.chunkSamples))
	}
	models := make([]*dgan.Model, len(encoded))
	for i, data := range encoded {
		m, err := dgan.DecodeModel(data)
		if err != nil {
			return nil, st, fmt.Errorf("core: decode chunk %d model: %w", i, err)
		}
		m.Reseed(genSeed(p.cfg, i))
		m.SetParallelism(p.cfg.Parallelism)
		models[i] = m
	}
	st.ChunkSamples = p.ChunkSampleCounts()
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

// FlowPlan is a distributed training plan for NetFlow traces.
type FlowPlan struct {
	chunkPlan
	codec *flowCodec
}

// PlanFlowTraining prepares a flow-training plan: the deterministic
// preparation of TrainFlowSynthesizer (embeddings, codec, chunked
// sample encoding) without training anything yet.
func PlanFlowTraining(t *trace.FlowTrace, public *trace.PacketTrace, cfg Config) (*FlowPlan, error) {
	if err := planConfigOK(cfg); err != nil {
		return nil, err
	}
	codec, chunkSamples, err := buildFlowTraining(t, public, cfg)
	if err != nil {
		return nil, err
	}
	ganCfg := ganConfig(cfg, codec.metaSchema(), codec.featureSchema())
	return &FlowPlan{chunkPlan: chunkPlan{cfg: cfg, ganCfg: ganCfg, chunkSamples: chunkSamples}, codec: codec}, nil
}

// Assemble builds the synthesizer from every chunk's encoded model, in
// chunk order.
func (p *FlowPlan) Assemble(encoded [][]byte) (*FlowSynthesizer, error) {
	models, st, err := p.assemble(encoded)
	if err != nil {
		return nil, err
	}
	return &FlowSynthesizer{cfg: p.cfg, codec: p.codec, models: models, stats: st}, nil
}

// PacketPlan is a distributed training plan for PCAP traces.
type PacketPlan struct {
	chunkPlan
	codec *packetCodec
}

// PlanPacketTraining prepares a packet-training plan; see
// PlanFlowTraining.
func PlanPacketTraining(t *trace.PacketTrace, public *trace.PacketTrace, cfg Config) (*PacketPlan, error) {
	if err := planConfigOK(cfg); err != nil {
		return nil, err
	}
	codec, chunkSamples, err := buildPacketTraining(t, public, cfg)
	if err != nil {
		return nil, err
	}
	ganCfg := ganConfig(cfg, codec.metaSchema(), codec.featureSchema())
	return &PacketPlan{chunkPlan: chunkPlan{cfg: cfg, ganCfg: ganCfg, chunkSamples: chunkSamples}, codec: codec}, nil
}

// Assemble builds the synthesizer from every chunk's encoded model, in
// chunk order.
func (p *PacketPlan) Assemble(encoded [][]byte) (*PacketSynthesizer, error) {
	models, st, err := p.assemble(encoded)
	if err != nil {
		return nil, err
	}
	return &PacketSynthesizer{cfg: p.cfg, codec: p.codec, models: models, stats: st}, nil
}
