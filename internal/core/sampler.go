package core

import (
	"math/rand"

	"repro/internal/container"
	"repro/internal/dgan"
	"repro/internal/rng"
)

// Precision is a property of the chunk samplers, not of the synthesizer
// type (DESIGN.md §8, §11). A trained or reference-loaded synthesizer
// samples with float64 *dgan.Model chunks, bit for bit reproducible; Fast
// returns the same synthesizer type over float32 *dgan.InferModel
// snapshots of those chunks, the serving fast path, whose output is pinned
// distributionally by internal/conformance instead. The chunk fan-out,
// per-request quotas, decode loop, label stamping and persistence are
// written once per trace kind and run on either precision.

// sampler is one chunk's generator: *dgan.Model or *dgan.InferModel.
type sampler interface {
	// GenerateEach delivers n samples in windows of whole lots, taking
	// the call's lot-base draw from r (nil: the sampler's own RNG).
	GenerateEach(r *rand.Rand, n, label int, fn func([]dgan.Sample) bool) error
	LabelDistribution() []float64
	LotSize() int
	SetParallelism(n int)
	Encode() ([]byte, error)
}

// FastFlowSynthesizer and FastPacketSynthesizer name the synthesizers
// Fast returns. They are aliases, not types: the benchmark harness in
// perfbench/ still spells *core.FastFlowSynthesizer, and they go away with
// the next change to it.
type (
	FastFlowSynthesizer   = FlowSynthesizer
	FastPacketSynthesizer = PacketSynthesizer
)

// fastGenStream is the rng.Derive stream range reserved for float32 chunk
// generation, disjoint from dpNoiseStream and genStream so the fast path
// never replays or disturbs the float64 path's draws.
const fastGenStream = 1 << 34

// chunkSamplers is what the flow and packet synthesizers share: the
// configuration, one sampler per chunk (all of one precision) and the
// training report.
type chunkSamplers struct {
	cfg    Config
	models []sampler
	stats  Stats
}

// trained wraps freshly trained float64 chunk models.
func trained(cfg Config, models []*dgan.Model, stats Stats) chunkSamplers {
	c := chunkSamplers{cfg: cfg, stats: stats, models: make([]sampler, len(models))}
	for i, m := range models {
		c.models[i] = m
	}
	return c
}

// fast reports whether the chunks sample in float32.
func (c *chunkSamplers) fast() bool {
	_, ok := c.models[0].(*dgan.InferModel)
	return ok
}

// kind picks the container kind of c's precision.
func (c *chunkSamplers) kind(ref, fastKind container.Kind) container.Kind {
	if c.fast() {
		return fastKind
	}
	return ref
}

// seed is chunk i's canonical generation seed on c's precision.
func (c *chunkSamplers) seed(i int) int64 {
	if c.fast() {
		return fastGenSeed(c.cfg, i)
	}
	return genSeed(c.cfg, i)
}

func fastGenSeed(cfg Config, i int) int64 { return rng.Derive(cfg.Seed, fastGenStream+int64(i)) }

// stream returns the stream chunk i generates from: nil (the sampler's own
// RNG, which advances per call) or, when fresh, a new copy of the
// canonical stream, which makes the output equal to the first generate
// after a load.
func (c *chunkSamplers) stream(i int, fresh bool) *rand.Rand {
	if !fresh {
		return nil
	}
	return rng.New(c.seed(i))
}

// quotas splits every request's count across the chunks in proportion to
// their training share (a negative count asks for nothing): quotas[ri][i]
// is request ri's share of chunk i, and totals[i] is chunk i's budget.
func (c *chunkSamplers) quotas(counts []int) (quotas [][]int, totals []int) {
	quotas = make([][]int, len(counts))
	totals = make([]int, len(c.models))
	for ri, n := range counts {
		quotas[ri] = splitCounts(max(n, 0), c.stats.ChunkSamples)
		for i, q := range quotas[ri] {
			totals[i] += q
		}
	}
	return quotas, totals
}

// infer snapshots float64 chunks as float32 samplers, each on its own
// fastGenStream seed.
func (c *chunkSamplers) infer() chunkSamplers {
	out := chunkSamplers{cfg: c.cfg, stats: c.stats, models: make([]sampler, len(c.models))}
	for i, m := range c.models {
		im := m.(*dgan.Model).Infer()
		im.Reseed(fastGenSeed(c.cfg, i))
		im.SetParallelism(c.cfg.Parallelism)
		out.models[i] = im
	}
	return out
}

// Stats returns the training cost report.
func (c *chunkSamplers) Stats() Stats { return c.stats }

// SetParallelism retargets the generation (and, on float64 chunks, any
// further training) worker count of every chunk: 0 = NumCPU, 1 = serial.
// Output is independent of the setting.
func (c *chunkSamplers) SetParallelism(n int) {
	c.cfg.Parallelism = n
	for _, m := range c.models {
		m.SetParallelism(n)
	}
}

// encodeModels serializes every chunk's weights in its precision's format.
func (c *chunkSamplers) encodeModels() ([][]byte, error) {
	var out [][]byte
	for _, m := range c.models {
		enc, err := m.Encode()
		if err != nil {
			return nil, err
		}
		out = append(out, enc)
	}
	return out, nil
}

// loadSamplers decodes persisted chunk weights of either precision and
// puts chunk i on its canonical generation stream, the one trainChunks or
// Fast uses, so a loaded synthesizer's first Generate matches the freshly
// trained or snapshotted one's.
func loadSamplers(blobs [][]byte, cfg Config, stats Stats, fast bool) (chunkSamplers, error) {
	c := chunkSamplers{cfg: cfg, stats: stats, models: make([]sampler, len(blobs))}
	for i, b := range blobs {
		if fast {
			m, err := dgan.DecodeInferWeights(b)
			if err != nil {
				return c, err
			}
			m.Reseed(fastGenSeed(cfg, i))
			m.SetParallelism(cfg.Parallelism)
			c.models[i] = m
			continue
		}
		m, err := dgan.DecodeModel(b)
		if err != nil {
			return c, err
		}
		m.Reseed(genSeed(cfg, i))
		c.models[i] = m
	}
	return c, nil
}
