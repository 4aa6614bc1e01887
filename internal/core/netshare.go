// Package core implements NetShare (Yin et al., SIGCOMM 2022): an
// end-to-end synthetic IP header trace generator combining the paper's four
// insights.
//
//	I1 — merge measurement epochs, split by five-tuple, and model the result
//	     with a time-series GAN (internal/dgan) instead of a tabular GAN;
//	I2 — bit-encode IP addresses, embed ports and protocols with IP2Vec
//	     trained on public data, and log-transform large-support numerics;
//	I3 — slice the flow set into M fixed-time chunks with explicit flow
//	     tags, train a seed model on chunk 0, and fine-tune the remaining
//	     chunks in parallel;
//	I4 — for differential privacy, pre-train on a public trace and
//	     fine-tune with DP-SGD on the private data.
//
// The package exposes two symmetric pipelines: FlowSynthesizer for NetFlow
// traces and PacketSynthesizer for PCAP traces.
package core

import (
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"time"

	"repro/internal/dgan"
	"repro/internal/encoding"
	"repro/internal/ip2vec"
	"repro/internal/orchestrator"
	"repro/internal/privacy"
	"repro/internal/rng"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Config parameterizes a NetShare training run.
type Config struct {
	// Chunks is M, the number of fixed-time chunks (Insight 3). Chunks=1
	// disables chunked fine-tuning and yields the NetShare-V0 variant of
	// Figure 4.
	Chunks int
	// MaxLen caps the measurement sequence length per flow sample; longer
	// flows are truncated during encoding.
	MaxLen int
	// SeedSteps is the number of generator updates for the seed chunk (and
	// for the single model when Chunks=1).
	SeedSteps int
	// FineTuneSteps is the number of generator updates for each fine-tuned
	// chunk; the scalability win of Insight 3 comes from
	// FineTuneSteps < SeedSteps.
	FineTuneSteps int
	// Parallel fine-tunes non-seed chunks concurrently.
	Parallel bool
	// Parallelism is the intra-step worker count passed to the GAN training
	// kernels (parallel per-sample DP-SGD accumulation): 0 selects
	// runtime.NumCPU(), 1 forces serial execution. Trained weights are
	// bitwise identical at every setting.
	Parallelism int

	// EmbedDim is the IP2Vec embedding width for ports and protocols.
	EmbedDim int
	// EmbedEpochs is the IP2Vec training epoch count.
	EmbedEpochs int

	// GAN knobs, passed through to dgan.
	Hidden      int
	Batch       int
	NoiseDim    int
	CriticIters int
	GPWeight    float64
	LR          float64

	// Conditional trains the flow GAN with a scenario-label conditioning
	// vector (one-hot over trace.NumLabels): the metadata generator and
	// both critics see each training series' majority record label, and
	// the trained synthesizer can pin generation to a single scenario via
	// GenerateLabeled. Flow pipeline only; packet training rejects it.
	Conditional bool

	// DP, when non-nil, enables differentially private training (Insight 4).
	DP *DPConfig

	// Ablation switches (off in normal operation; used by the ablation
	// benchmarks to quantify the design choices of §4.1).
	//
	// DisableFlowTags zeroes the flow-tag metadata (the start-here flag and
	// per-chunk presence vector of Insight 3), so chunk models lose
	// cross-chunk correlation information.
	DisableFlowTags bool
	// DisableLogTransform replaces the log(1+x) transform on
	// packets/bytes per flow (Insight 2) with raw min–max normalization,
	// reproducing the baselines' truncated-support failure mode.
	DisableLogTransform bool
	// IPVectorEncoding replaces bit-encoded IPs with an IP2Vec embedding
	// trained on the PRIVATE trace — Table 2's "IP/vector" row. Good
	// fidelity, but the dictionary depends on the private data, so this
	// mode is rejected together with DP.
	IPVectorEncoding bool

	Seed int64
}

// DPConfig selects the private-training mode of Finding 3.
type DPConfig struct {
	NoiseMultiplier float64 // σ of DP-SGD
	ClipNorm        float64 // per-sample clipping bound
	Delta           float64
	// Pretrain, when true, warm-starts from a model trained on the public
	// trace before DP-SGD fine-tuning ("DP Pretrained"); false is naive
	// DP-SGD from scratch ("Naive DP").
	Pretrain bool
	// PretrainSteps is the number of non-private steps on public data.
	PretrainSteps int
}

// DefaultConfig returns a CPU-friendly configuration; the defaults mirror
// the paper's structure (M=10 chunks on 1M records) scaled to the small
// synthetic traces used here.
func DefaultConfig() Config {
	return Config{
		Chunks:        5,
		MaxLen:        6,
		SeedSteps:     400,
		FineTuneSteps: 120,
		Parallel:      true,
		EmbedDim:      8,
		EmbedEpochs:   3,
		Hidden:        32,
		Batch:         16,
		NoiseDim:      8,
		CriticIters:   2,
		GPWeight:      10,
		LR:            1e-3,
		Seed:          1,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Chunks <= 0 {
		return fmt.Errorf("core: Chunks must be positive, got %d", c.Chunks)
	}
	if c.MaxLen <= 0 {
		return fmt.Errorf("core: MaxLen must be positive, got %d", c.MaxLen)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("core: Parallelism must be >= 0 (0 = NumCPU), got %d", c.Parallelism)
	}
	if c.SeedSteps <= 0 || (c.Chunks > 1 && c.FineTuneSteps <= 0) {
		return fmt.Errorf("core: training steps must be positive")
	}
	if c.EmbedDim <= 0 || c.EmbedEpochs <= 0 {
		return fmt.Errorf("core: embedding parameters must be positive")
	}
	if c.IPVectorEncoding && c.DP != nil {
		return fmt.Errorf("core: IP vector encoding trains its dictionary on private data and cannot be combined with DP (Table 2)")
	}
	if c.DP != nil && c.Chunks != 1 {
		// Fine-tune chunks train without DP-SGD, so letting them see the
		// private trace would void the epsilon report. Requiring Chunks=1
		// is also what makes the seed chunk authoritative for the DP-SGD
		// sample rate: it IS the entire private dataset.
		return fmt.Errorf("core: DP training requires Chunks=1 (Insight 4 fine-tunes privately only on the seed chunk), got %d", c.Chunks)
	}
	if c.DP != nil {
		probe := privacy.DPSGDConfig{
			ClipNorm:        c.DP.ClipNorm,
			NoiseMultiplier: c.DP.NoiseMultiplier,
			SampleRate:      0.5,
			Delta:           c.DP.Delta,
		}
		if err := probe.Validate(); err != nil {
			return err
		}
		if c.DP.Pretrain && c.DP.PretrainSteps <= 0 {
			return fmt.Errorf("core: Pretrain requires PretrainSteps > 0")
		}
	}
	return nil
}

// DPSteps returns the number of DP-SGD compositions a training run with
// this configuration will spend: each of the SeedSteps generator updates
// performs CriticIters critic rounds, and every round finalizes one noisy
// lot for the main critic and one for the auxiliary critic.
func (c Config) DPSteps() int { return c.SeedSteps * c.CriticIters * 2 }

// NoiseForTargetEpsilon calibrates the DP-SGD noise multiplier σ so a run
// with this configuration on a dataset of n flow samples stays within
// (targetEps, delta). It inverts the RDP accountant numerically.
func (c Config) NoiseForTargetEpsilon(targetEps, delta float64, n int) float64 {
	return privacy.NoiseForEpsilon(targetEps, dpSampleRate(c.Batch, n), c.DPSteps(), delta)
}

// dpSampleRate is DP-SGD's per-lot sampling probability: a minibatch of
// `batch` drawn from the n samples of the chunk actually being trained
// with TrainDP. Validate enforces Chunks=1 under DP, so that chunk is the
// seed chunk and holds the entire private dataset — the rate computed
// from chunk 0 is the rate of the trained chunk by construction, not an
// approximation.
func dpSampleRate(batch, n int) float64 {
	rate := float64(batch) / float64(maxInt(n, batch))
	if rate > 1 {
		rate = 1
	}
	return rate
}

// Stats reports a training run's cost, the quantities behind Figure 4.
type Stats struct {
	// CPUTime is the summed training time over all chunks — the paper's
	// "total CPU hours" axis.
	CPUTime time.Duration
	// WallTime is the elapsed time; with Parallel fine-tuning it is lower
	// than CPUTime.
	WallTime time.Duration
	// SeedTime is the seed chunk's share of CPUTime.
	SeedTime time.Duration
	// Epsilon is the spent DP budget (0 without DP).
	Epsilon float64
	// ChunkSamples records how many flow samples each chunk contained.
	ChunkSamples []int
	// ChunkAttempts counts training attempts per chunk (0 when the chunk
	// was restored from a checkpoint instead of trained).
	ChunkAttempts []int
	// ChunkResumed marks chunks restored from a checkpoint directory.
	ChunkResumed []bool
	// ChunkDegraded marks chunks that exhausted their retry budget and
	// fell back to the warm-started seed weights (DESIGN.md §7).
	ChunkDegraded []bool
	// ChunkCriticLoss / ChunkGenLoss hold each chunk's final training
	// losses (0 for chunks restored from checkpoints, which run no steps).
	// Full per-step curves live in the telemetry registry (DESIGN.md §9).
	ChunkCriticLoss []float64
	ChunkGenLoss    []float64
}

// DegradedChunks returns the indices of chunks that fell back to seed
// weights, for reporting.
func (s Stats) DegradedChunks() []int {
	var out []int
	for i, d := range s.ChunkDegraded {
		if d {
			out = append(out, i)
		}
	}
	return out
}

// portEmbedding wraps the public-data IP2Vec model plus per-dimension
// normalizers mapping embedding space into the generator's [0,1] range.
type portEmbedding struct {
	model *ip2vec.Model
	dim   int
	norms []encoding.MinMax
	ports []ip2vec.Word // sorted port vocabulary for numeric fallback
}

// newPortEmbedding trains IP2Vec on a public packet trace (the paper uses a
// CAIDA backbone trace) and fits the normalizers over the port/protocol
// vocabulary.
func newPortEmbedding(public *trace.PacketTrace, dim, epochs int, seed int64) (*portEmbedding, error) {
	cfg := ip2vec.DefaultConfig()
	cfg.Dim = dim
	cfg.Epochs = epochs
	cfg.Seed = seed
	model, err := ip2vec.Train(ip2vec.PacketSentences(public), cfg)
	if err != nil {
		return nil, fmt.Errorf("core: train port embedding: %w", err)
	}
	pe := &portEmbedding{model: model, dim: dim, ports: sortedPorts(model)}
	if len(pe.ports) == 0 {
		return nil, fmt.Errorf("core: public trace produced no port vocabulary")
	}
	pe.norms = make([]encoding.MinMax, dim)
	var cols = make([][]float64, dim)
	for _, kind := range []ip2vec.WordKind{ip2vec.KindPort, ip2vec.KindProto} {
		for _, w := range model.Words(kind) {
			v, _ := model.Vector(w)
			for d, x := range v {
				cols[d] = append(cols[d], x)
			}
		}
	}
	for d := range pe.norms {
		pe.norms[d].Fit(cols[d])
	}
	return pe, nil
}

// encodePort returns the normalized embedding of p, substituting the
// numerically nearest in-vocabulary port when p is unseen (public backbone
// data covers nearly all ports, so this is rare).
func (pe *portEmbedding) encodePort(p uint16) []float64 {
	w := ip2vec.PortWord(p)
	if !pe.model.Has(w) {
		w = pe.nearestPortByValue(p)
	}
	v, _ := pe.model.Vector(w)
	out := make([]float64, pe.dim)
	for d, x := range v {
		out[d] = pe.norms[d].Transform(x)
	}
	return out
}

func (pe *portEmbedding) nearestPortByValue(p uint16) ip2vec.Word {
	best := pe.ports[0]
	bestD := diffU32(best.Value, uint32(p))
	for _, w := range pe.ports[1:] {
		if d := diffU32(w.Value, uint32(p)); d < bestD {
			best, bestD = w, d
		}
	}
	return best
}

func diffU32(a, b uint32) uint32 {
	if a > b {
		return a - b
	}
	return b - a
}

// sortedPorts returns the model's port vocabulary in ascending value
// order. ip2vec.Model.Words already sorts, but the invariant documented on
// portEmbedding.ports is enforced here rather than assumed, so a future
// model change (or a hand-built vocabulary) cannot silently break the
// numeric fallbacks.
func sortedPorts(model *ip2vec.Model) []ip2vec.Word {
	ports := model.Words(ip2vec.KindPort)
	sort.Slice(ports, func(i, j int) bool { return ports[i].Value < ports[j].Value })
	return ports
}

// decodePort maps a normalized embedding vector back to a concrete port by
// nearest-neighbour search over the public dictionary. An empty port
// vocabulary falls back to fallbackPort rather than fabricating a word.
func (pe *portEmbedding) decodePort(v []float64) uint16 {
	raw := make([]float64, pe.dim)
	pe.invertInto(raw, v)
	w, ok := pe.model.Nearest(ip2vec.KindPort, raw)
	if !ok {
		return pe.fallbackPort()
	}
	return uint16(w.Value)
}

// encodeProto returns the normalized embedding of a protocol.
func (pe *portEmbedding) encodeProto(p trace.Protocol) []float64 {
	w := ip2vec.ProtoWord(p)
	if !pe.model.Has(w) {
		w = ip2vec.ProtoWord(trace.TCP)
	}
	v, _ := pe.model.Vector(w)
	out := make([]float64, pe.dim)
	for d, x := range v {
		out[d] = pe.norms[d].Transform(x)
	}
	return out
}

// decodeProto maps a normalized embedding back to a protocol; an empty
// protocol vocabulary falls back to TCP.
func (pe *portEmbedding) decodeProto(v []float64) trace.Protocol {
	raw := make([]float64, pe.dim)
	pe.invertInto(raw, v)
	w, ok := pe.model.Nearest(ip2vec.KindProto, raw)
	if !ok {
		return trace.TCP
	}
	return trace.Protocol(w.Value)
}

// TrainOptions carries per-run operational settings that are not part of
// the model configuration and are never persisted with it.
type TrainOptions struct {
	// Orchestration configures checkpoint/resume, the retry/degradation
	// policy, and progress events for the chunked training fan-out; nil
	// runs with the defaults (no checkpointing, no retries).
	Orchestration *orchestrator.Options
}

// hash digests every configuration field that determines training
// results, for the checkpoint manifest. Parallel and Parallelism are
// deliberately excluded: training is bitwise deterministic across worker
// counts (DESIGN.md §6), so a resumed run may change them freely.
func (c Config) hash() uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%d|%d|%g|%g|%t|%t|%t",
		c.Chunks, c.MaxLen, c.SeedSteps, c.FineTuneSteps, c.EmbedDim, c.EmbedEpochs,
		c.Hidden, c.Batch, c.NoiseDim, c.CriticIters, c.GPWeight, c.LR,
		c.DisableFlowTags, c.DisableLogTransform, c.IPVectorEncoding)
	if c.Conditional {
		// Appended only when set so every pre-conditioning checkpoint
		// manifest keeps its hash.
		fmt.Fprint(h, "|cond")
	}
	if c.DP != nil {
		fmt.Fprintf(h, "|dp:%g|%g|%g|%t|%d",
			c.DP.NoiseMultiplier, c.DP.ClipNorm, c.DP.Delta, c.DP.Pretrain, c.DP.PretrainSteps)
	}
	return h.Sum64()
}

// trainChunks trains the per-chunk models over encoded sample sets
// following Insight 3: chunk 0 is the seed; the rest warm-start from it
// and fine-tune (in parallel when requested). The fan-out runs under the
// fault-tolerant orchestrator: per-chunk checkpoints, resume, retries
// with backoff, and seed-weight degradation, all governed by opts.
func trainChunks(cfg Config, ganCfg dgan.Config, chunkSamples [][]dgan.Sample, public []dgan.Sample, opts TrainOptions) ([]*dgan.Model, Stats, error) {
	var st Stats
	st.ChunkSamples = make([]int, len(chunkSamples))
	for i, s := range chunkSamples {
		st.ChunkSamples[i] = len(s)
	}
	st.ChunkCriticLoss = make([]float64, len(chunkSamples))
	st.ChunkGenLoss = make([]float64, len(chunkSamples))
	wallStart := time.Now()
	trainSW := telTrainPhase.Start()
	defer trainSW.Stop()

	// stepHook composes per-step telemetry recording with the chunk's
	// optional mid-training snapshot callback. Loss/grad-norm curves go to
	// the chunk's telemetry series; the final per-chunk losses land in
	// Stats at distinct indices, so the parallel fan-out needs no lock.
	// Recording is observational only — it cannot perturb training.
	stepHook := func(run orchestrator.ChunkRun, m *dgan.Model) dgan.TrainHook {
		critic, gen, grad, _ := chunkSeries(run.Idx)
		return func(step int, ts dgan.Stats) error {
			critic.Record(int64(step), ts.CriticLoss)
			gen.Record(int64(step), ts.GenLoss)
			grad.Record(int64(step), ts.GradNorm)
			st.ChunkCriticLoss[run.Idx] = ts.CriticLoss
			st.ChunkGenLoss[run.Idx] = ts.GenLoss
			if run.SavePartial != nil {
				return run.SavePartial(step, m)
			}
			return nil
		}
	}

	// epsilon is written by the successful seed attempt (the seed phase is
	// synchronous, so no lock is needed). Each attempt constructs fresh
	// DP-SGD state on the reserved noise stream, so retries replay
	// identical noise and cannot change the final weights.
	var epsilon float64
	trainSeed := func(run orchestrator.ChunkRun) (orchestrator.Model, error) {
		seedCfg := ganCfg
		seedCfg.Seed = cfg.Seed
		seed, err := dgan.New(seedCfg)
		if err != nil {
			return nil, err
		}
		if cfg.DP == nil {
			if _, err := seed.TrainWithHook(chunkSamples[0], cfg.SeedSteps, stepHook(run, seed)); err != nil {
				return nil, err
			}
			return seed, nil
		}
		if cfg.DP.Pretrain {
			if len(public) == 0 {
				return nil, fmt.Errorf("core: DP pretraining requires public samples")
			}
			if _, err := seed.Train(public, cfg.DP.PretrainSteps); err != nil {
				return nil, err
			}
		}
		dp, err := privacy.NewDPSGD(privacy.DPSGDConfig{
			ClipNorm:        cfg.DP.ClipNorm,
			NoiseMultiplier: cfg.DP.NoiseMultiplier,
			SampleRate:      dpSampleRate(ganCfg.Batch, len(chunkSamples[0])),
			Delta:           cfg.DP.Delta,
		}, rng.New(rng.Derive(cfg.Seed, dpNoiseStream)))
		if err != nil {
			return nil, err
		}
		// Wrap the step hook to chart the cumulative privacy spend: the
		// RDP accountant is queried per generator step (cheap relative to a
		// critic round) only while telemetry is enabled.
		hook := stepHook(run, seed)
		_, _, _, epsSeries := chunkSeries(run.Idx)
		dpHook := func(step int, ts dgan.Stats) error {
			if telemetry.Default.Enabled() {
				e := dp.Epsilon()
				epsSeries.Record(int64(step), e)
				telEpsilon.Set(e)
			}
			return hook(step, ts)
		}
		if _, err := seed.TrainDPWithHook(chunkSamples[0], cfg.SeedSteps, dp, dpHook); err != nil {
			return nil, err
		}
		epsilon = dp.Epsilon()
		telEpsilon.Set(epsilon)
		return seed, nil
	}

	// newChunkModel builds chunk idx's model on its decorrelated RNG
	// stream and warm-starts it from the seed weights; it is both the
	// fine-tune starting point and the degraded fallback.
	newChunkModel := func(stream int64, seed *dgan.Model) (*dgan.Model, error) {
		mCfg := ganCfg
		// Each chunk model trains on its own decorrelated RNG stream, so
		// the parallel fan-out and a serial loop draw identical noise per
		// chunk (the stream depends only on the seed and chunk index).
		mCfg.Seed = stream
		m, err := dgan.New(mCfg)
		if err != nil {
			return nil, err
		}
		if err := m.Warmstart(seed); err != nil {
			return nil, err
		}
		return m, nil
	}

	fineTune := func(run orchestrator.ChunkRun, seedM orchestrator.Model) (orchestrator.Model, error) {
		seed := seedM.(*dgan.Model)
		steps := cfg.FineTuneSteps
		var m *dgan.Model
		if run.Partial != nil && run.PartialStep < steps {
			// Continue a mid-chunk snapshot (AllowPartial): functionally
			// correct, but not bitwise identical to an uninterrupted run
			// since optimizer and RNG state restart (DESIGN.md §7).
			if pm, err := dgan.DecodeModel(run.Partial); err == nil {
				m, steps = pm, steps-run.PartialStep
			}
		}
		if m == nil {
			var err error
			if m, err = newChunkModel(run.Stream, seed); err != nil {
				return nil, err
			}
		}
		if len(chunkSamples[run.Idx]) > 0 && steps > 0 {
			if _, err := m.TrainWithHook(chunkSamples[run.Idx], steps, stepHook(run, m)); err != nil {
				return nil, err
			}
		}
		return m, nil
	}

	fallback := func(idx int, seedM orchestrator.Model) (orchestrator.Model, error) {
		return newChunkModel(rng.Derive(cfg.Seed, int64(idx)), seedM.(*dgan.Model))
	}

	var orch orchestrator.Options
	if opts.Orchestration != nil {
		orch = *opts.Orchestration
	}
	res, err := orchestrator.Run(orch, orchestrator.Spec{
		NumChunks:  len(chunkSamples),
		ConfigHash: cfg.hash(),
		BaseSeed:   cfg.Seed,
		Parallel:   cfg.Parallel,
		TrainSeed:  trainSeed,
		FineTune:   fineTune,
		Fallback:   fallback,
		Decode: func(data []byte) (orchestrator.Model, error) {
			return dgan.DecodeModel(data)
		},
	})
	if err != nil {
		return nil, st, err
	}

	models := make([]*dgan.Model, len(res.Models))
	for i, m := range res.Models {
		models[i] = m.(*dgan.Model)
		// Canonical generation stream: whether a chunk model was trained
		// fresh (its RNG advanced through training) or restored from a
		// checkpoint (fresh RNG), generation afterwards draws from the
		// same derived stream — resumed and uninterrupted runs emit
		// bitwise-identical traces.
		models[i].Reseed(genSeed(cfg, i))
		st.CPUTime += res.ChunkTime[i]
	}
	st.SeedTime = res.SeedTime
	st.ChunkAttempts = res.Attempts
	st.ChunkResumed = res.Resumed
	st.ChunkDegraded = res.Degraded
	st.Epsilon = epsilon
	st.WallTime = time.Since(wallStart)
	return models, st, nil
}

// dpNoiseStream is the rng.Derive stream index reserved for the DP-SGD
// Gaussian noise source, outside the chunk-index stream range;
// genStream+idx are the reserved post-training generation streams.
const (
	dpNoiseStream = 1 << 32
	genStream     = 1 << 33
)

// genSeed is chunk i's canonical generation seed: trainChunks, the
// distributed plan and the loaders all reseed chunk model i with it, so
// the first trace generated after training equals the first after Load.
func genSeed(cfg Config, i int) int64 { return rng.Derive(cfg.Seed, genStream+int64(i)) }

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// fullLots sizes a generation request for a remaining record budget: aim for
// budget/2 flows (flows carry at least one record each, usually more), but
// never issue less than one lot, and round up to whole lots so the GAN's
// batched forward passes always run full (a partial lot costs the same
// matmuls for fewer samples). The overshoot is trimmed by the caller.
func fullLots(budget, lot int) int {
	want := maxInt(budget/2, 1)
	return (want + lot - 1) / lot * lot
}

// forEachChunk runs fn(i) for every chunk index, concurrently when the
// configuration enables parallelism and there is more than one chunk. Each
// fn must touch only chunk i's state (plus read-only shared data, like the
// fitted codec), which is what keeps parallel and serial generation
// byte-identical.
func forEachChunk(cfg Config, n int, fn func(int)) {
	if !cfg.Parallel || cfg.Parallelism == 1 || n <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// splitCounts apportions n generated samples across chunks proportionally
// to their real sample counts (empty chunks get none).
func splitCounts(n int, chunkSizes []int) []int {
	var total int
	for _, c := range chunkSizes {
		total += c
	}
	out := make([]int, len(chunkSizes))
	if total == 0 {
		return out
	}
	assigned := 0
	for i, c := range chunkSizes {
		out[i] = n * c / total
		assigned += out[i]
	}
	// Distribute the remainder to the largest chunks first.
	for i := 0; assigned < n; i = (i + 1) % len(chunkSizes) {
		if chunkSizes[i] > 0 {
			out[i]++
			assigned++
		}
	}
	return out
}
