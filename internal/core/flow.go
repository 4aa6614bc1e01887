package core

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/dgan"
	"repro/internal/encoding"
	"repro/internal/ip2vec"
	"repro/internal/nn"
	"repro/internal/trace"
)

// flowCodec converts between trace.FlowSeries and dgan samples: the
// metadata is the encoded five-tuple plus flow tags, the measurement
// sequence is one element per NetFlow record (start, duration, packets,
// bytes, label) per the paper's §4.1.
type flowCodec struct {
	cfg     Config
	embed   *portEmbedding
	ipEmbed *ipEmbedding // non-nil only under the IPVectorEncoding ablation

	timeNorm encoding.MinMax // flow start times (global)
	durNorm  scalarCodec
	pktNorm  scalarCodec
	bytNorm  scalarCodec
}

// scalarCodec abstracts over encoding.MinMax and encoding.LogMinMax so the
// log-transform ablation can swap them and persistence can capture their
// fitted ranges.
type scalarCodec interface {
	Fit(xs []float64)
	Transform(x float64) float64
	Inverse(y float64) float64
	Range() (lo, hi float64, ok bool)
	RestoreRange(lo, hi float64)
}

// newScalarCodec selects the Insight 2 log transform unless disabled.
func newScalarCodec(cfg Config) scalarCodec {
	if cfg.DisableLogTransform {
		return &encoding.MinMax{}
	}
	return &encoding.LogMinMax{}
}

func newFlowCodec(cfg Config, embed *portEmbedding, t *trace.FlowTrace) *flowCodec {
	c := &flowCodec{
		cfg: cfg, embed: embed,
		durNorm: newScalarCodec(cfg),
		pktNorm: newScalarCodec(cfg),
		bytNorm: newScalarCodec(cfg),
	}
	starts := make([]float64, 0, len(t.Records))
	durs := make([]float64, 0, len(t.Records))
	pkts := make([]float64, 0, len(t.Records))
	byts := make([]float64, 0, len(t.Records))
	for _, r := range t.Records {
		starts = append(starts, float64(r.Start))
		durs = append(durs, float64(r.Duration))
		pkts = append(pkts, float64(r.Packets))
		byts = append(byts, float64(r.Bytes))
	}
	c.timeNorm.Fit(starts)
	c.durNorm.Fit(durs)
	c.pktNorm.Fit(pkts)
	c.bytNorm.Fit(byts)
	return c
}

func (c *flowCodec) metaSchema() []nn.FieldSpec {
	return metaSchemaFor(c.cfg, c.ipEmbed != nil)
}

// metaSchemaFor builds the shared metadata layout: IPs (bits or embedding),
// port/protocol embeddings, then flow tags.
func metaSchemaFor(cfg Config, ipVector bool) []nn.FieldSpec {
	ipW := 32
	if ipVector {
		ipW = cfg.EmbedDim
	}
	return []nn.FieldSpec{
		{Name: "src_ip", Kind: nn.FieldContinuous, Size: ipW},
		{Name: "dst_ip", Kind: nn.FieldContinuous, Size: ipW},
		{Name: "src_port_emb", Kind: nn.FieldContinuous, Size: cfg.EmbedDim},
		{Name: "dst_port_emb", Kind: nn.FieldContinuous, Size: cfg.EmbedDim},
		{Name: "proto_emb", Kind: nn.FieldContinuous, Size: cfg.EmbedDim},
		{Name: "tag_start", Kind: nn.FieldContinuous, Size: 1},
		{Name: "tag_presence", Kind: nn.FieldContinuous, Size: cfg.Chunks},
	}
}

func (c *flowCodec) featureSchema() []nn.FieldSpec {
	return []nn.FieldSpec{
		{Name: "start", Kind: nn.FieldContinuous, Size: 1},
		{Name: "duration", Kind: nn.FieldContinuous, Size: 1},
		{Name: "packets", Kind: nn.FieldContinuous, Size: 1},
		{Name: "bytes", Kind: nn.FieldContinuous, Size: 1},
		{Name: "label", Kind: nn.FieldCategorical, Size: int(trace.NumLabels)},
	}
}

// encodeMeta packs a tuple plus tags into the metadata vector.
func (c *flowCodec) encodeMeta(ft trace.FiveTuple, tags trace.FlowTags) []float64 {
	out := make([]float64, 0, nn.Width(c.metaSchema()))
	out = appendIP(out, ft.SrcIP, c.ipEmbed)
	out = appendIP(out, ft.DstIP, c.ipEmbed)
	out = append(out, c.embed.encodePort(ft.SrcPort)...)
	out = append(out, c.embed.encodePort(ft.DstPort)...)
	out = append(out, c.embed.encodeProto(ft.Proto)...)
	return append(out, encodeTags(c.cfg, tags)...)
}

// appendIP encodes one address: NetShare's bit encoding, or the Table 2
// ablation's private embedding when ipEmbed is set.
func appendIP(out []float64, ip trace.IPv4, ipEmbed *ipEmbedding) []float64 {
	if ipEmbed != nil {
		return append(out, ipEmbed.encode(ip)...)
	}
	return append(out, encoding.IPBits(ip)...)
}

// decodeIPs extracts both addresses from the metadata prefix and returns
// the offset of the first port field.
func decodeIPs(meta []float64, ipEmbed *ipEmbedding) (src, dst trace.IPv4, off int) {
	if ipEmbed != nil {
		d := ipEmbed.dim
		return ipEmbed.decode(meta[0:d]), ipEmbed.decode(meta[d : 2*d]), 2 * d
	}
	return encoding.IPFromBits(meta[0:32]), encoding.IPFromBits(meta[32:64]), 64
}

// encodeTags emits the Insight 3 flow tags (or zeros under the ablation).
func encodeTags(cfg Config, tags trace.FlowTags) []float64 {
	out := make([]float64, 1+cfg.Chunks)
	if cfg.DisableFlowTags {
		return out
	}
	if tags.StartsHere {
		out[0] = 1
	}
	for i := 0; i < cfg.Chunks && i < len(tags.Presence); i++ {
		if tags.Presence[i] {
			out[1+i] = 1
		}
	}
	return out
}

// decodeMeta inverts encodeMeta (the tags are training aids and are
// discarded).
func (c *flowCodec) decodeMeta(meta []float64) trace.FiveTuple {
	d := c.cfg.EmbedDim
	var ft trace.FiveTuple
	var off int
	ft.SrcIP, ft.DstIP, off = decodeIPs(meta, c.ipEmbed)
	ft.SrcPort = c.embed.decodePort(meta[off : off+d])
	ft.DstPort = c.embed.decodePort(meta[off+d : off+2*d])
	ft.Proto = c.embed.decodeProto(meta[off+2*d : off+3*d])
	return ft
}

// encode converts a tagged series into a training sample, truncating the
// record sequence at MaxLen. Under Conditional training the sample carries
// the series' majority record label as its scenario label.
func (c *flowCodec) encode(t *trace.TaggedFlowSeries) dgan.Sample {
	s := dgan.Sample{Meta: c.encodeMeta(t.Series.Tuple, t.Tags)}
	if c.cfg.Conditional {
		s.Label = int(majorityLabel(t.Series.Records))
	}
	for i, r := range t.Series.Records {
		if i >= c.cfg.MaxLen {
			break
		}
		f := make([]float64, 0, nn.Width(c.featureSchema()))
		f = append(f,
			c.timeNorm.Transform(float64(r.Start)),
			c.durNorm.Transform(float64(r.Duration)),
			c.pktNorm.Transform(float64(r.Packets)),
			c.bytNorm.Transform(float64(r.Bytes)),
		)
		label := make([]float64, trace.NumLabels)
		if int(r.Label) < len(label) {
			label[r.Label] = 1
		}
		s.Features = append(s.Features, append(f, label...))
	}
	return s
}

// majorityLabel returns the most frequent record label of a series; ties
// break toward the lowest label value so the choice is deterministic.
func majorityLabel(recs []trace.FlowRecord) trace.Label {
	var counts [trace.NumLabels]int
	for _, r := range recs {
		if r.Label < trace.NumLabels {
			counts[r.Label]++
		}
	}
	best := trace.Label(0)
	for l := trace.Label(1); l < trace.NumLabels; l++ {
		if counts[l] > counts[best] {
			best = l
		}
	}
	return best
}

// decode converts a generated sample back into flow records (post-
// processing: inverse transforms, integer rounding, label argmax).
func (c *flowCodec) decode(s dgan.Sample) []trace.FlowRecord {
	return c.decodeRecords(s, c.decodeMeta(s.Meta))
}

// decodeRecords is decode with the five-tuple already resolved — the
// generation pipeline decodes tuples for a whole batch at once
// (decodeTuples) and feeds them back in here.
func (c *flowCodec) decodeRecords(s dgan.Sample, ft trace.FiveTuple) []trace.FlowRecord {
	out := make([]trace.FlowRecord, 0, len(s.Features))
	for _, f := range s.Features {
		rec := trace.FlowRecord{Tuple: ft}
		rec.Start = int64(c.timeNorm.Inverse(f[0]))
		rec.Duration = int64(c.durNorm.Inverse(f[1]))
		rec.Packets = int64(math.Round(c.pktNorm.Inverse(f[2])))
		if rec.Packets < 1 {
			rec.Packets = 1
		}
		rec.Bytes = int64(math.Round(c.bytNorm.Inverse(f[3])))
		if rec.Bytes < 1 {
			rec.Bytes = 1
		}
		for l := 0; l < int(trace.NumLabels); l++ {
			if f[4+l] == 1 {
				rec.Label = trace.Label(l)
				break
			}
		}
		out = append(out, rec)
	}
	return out
}

// FlowSynthesizer is a trained NetShare model for NetFlow traces, sampling
// in float64 or, after Fast, in float32 (sampler.go).
type FlowSynthesizer struct {
	chunkSamplers
	codec *flowCodec
}

// TrainFlowSynthesizer runs the full NetShare pipeline on a flow trace.
// public supplies the IP2Vec corpus (and DP pre-training data when
// configured); the paper uses a CAIDA backbone trace.
func TrainFlowSynthesizer(t *trace.FlowTrace, public *trace.PacketTrace, cfg Config) (*FlowSynthesizer, error) {
	return TrainFlowSynthesizerOpts(t, public, cfg, TrainOptions{})
}

// TrainFlowSynthesizerOpts is TrainFlowSynthesizer with operational
// options: checkpoint/resume, retry policy, and progress events for the
// chunked training fan-out.
func TrainFlowSynthesizerOpts(t *trace.FlowTrace, public *trace.PacketTrace, cfg Config, opts TrainOptions) (*FlowSynthesizer, error) {
	codec, chunkSamples, err := buildFlowTraining(t, public, cfg)
	if err != nil {
		return nil, err
	}

	// DP pre-training corpus: flow samples derived from the public packet
	// trace (its flows re-expressed as single NetFlow records).
	var publicSamples []dgan.Sample
	if cfg.DP != nil && cfg.DP.Pretrain {
		publicSamples = publicFlowSamples(codec, public, cfg)
	}

	ganCfg := ganConfig(cfg, codec.metaSchema(), codec.featureSchema())
	models, stats, err := trainChunks(cfg, ganCfg, chunkSamples, publicSamples, opts)
	if err != nil {
		return nil, err
	}
	return &FlowSynthesizer{chunkSamplers: trained(cfg, models, stats), codec: codec}, nil
}

// buildFlowTraining is the deterministic preparation shared by local
// training and the distributed plan (PlanFlowTraining): validate, fit
// the embeddings and codec, then split/chunk/encode the trace into
// per-chunk sample sets. Everything here depends only on (t, public,
// cfg), so every process that runs it reproduces identical samples.
func buildFlowTraining(t *trace.FlowTrace, public *trace.PacketTrace, cfg Config) (*flowCodec, [][]dgan.Sample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if len(t.Records) == 0 {
		return nil, nil, fmt.Errorf("core: empty flow trace")
	}
	if public == nil || len(public.Packets) == 0 {
		return nil, nil, fmt.Errorf("core: a public packet trace is required for the port embedding")
	}
	embed, err := newPortEmbedding(public, cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	codec := newFlowCodec(cfg, embed, t)
	if cfg.IPVectorEncoding {
		ipEmbed, err := newIPEmbedding(ip2vec.FlowSentences(t), cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed+3)
		if err != nil {
			return nil, nil, err
		}
		codec.ipEmbed = ipEmbed
	}

	// Insight 1: merge epochs (the input is already merged), split by
	// five-tuple; Insight 3: chunk by time with flow tags.
	series := trace.SplitFlowSeries(t)
	chunks := trace.ChunkFlowSeries(series, cfg.Chunks)
	chunkSamples := make([][]dgan.Sample, len(chunks))
	for i, chunk := range chunks {
		for _, tagged := range chunk {
			chunkSamples[i] = append(chunkSamples[i], codec.encode(tagged))
		}
	}
	if len(chunkSamples[0]) == 0 {
		return nil, nil, fmt.Errorf("core: seed chunk is empty; reduce Chunks")
	}
	return codec, chunkSamples, nil
}

// publicFlowSamples converts a public packet trace into flow-style training
// samples for DP pre-training.
func publicFlowSamples(codec *flowCodec, public *trace.PacketTrace, cfg Config) []dgan.Sample {
	flows := trace.SplitFlows(public)
	samples := make([]dgan.Sample, 0, len(flows))
	for _, f := range flows {
		var bytes int64
		for _, p := range f.Packets {
			bytes += int64(p.Size)
		}
		rec := trace.FlowRecord{
			Tuple:    f.Tuple,
			Start:    f.Start(),
			Duration: f.End() - f.Start(),
			Packets:  int64(len(f.Packets)),
			Bytes:    bytes,
		}
		tagged := &trace.TaggedFlowSeries{
			Series: &trace.FlowSeries{Tuple: f.Tuple, Records: []trace.FlowRecord{rec}},
			Tags:   trace.FlowTags{StartsHere: true, Presence: make([]bool, cfg.Chunks)},
		}
		samples = append(samples, codec.encode(tagged))
	}
	return samples
}

func ganConfig(cfg Config, meta, feat []nn.FieldSpec) dgan.Config {
	g := dgan.DefaultConfig()
	g.MetaSchema = meta
	g.FeatureSchema = feat
	g.MaxLen = cfg.MaxLen
	g.Hidden = cfg.Hidden
	g.Batch = cfg.Batch
	g.NoiseDim = cfg.NoiseDim
	g.CriticIters = cfg.CriticIters
	g.GPWeight = cfg.GPWeight
	g.LR = cfg.LR
	g.Seed = cfg.Seed
	g.Parallelism = cfg.Parallelism
	if cfg.Conditional {
		g.Labels = int(trace.NumLabels)
	}
	return g
}

// Fast returns the float32 serving snapshot of s (DESIGN.md §11): a
// synthesizer sharing the read-only codec whose chunks are
// dgan.InferModel snapshots on their own generation streams, so
// fast-path serving never perturbs the float64 streams. On a synthesizer
// that already samples in float32 it returns s.
func (s *FlowSynthesizer) Fast() *FlowSynthesizer {
	if s.fast() {
		return s
	}
	return &FlowSynthesizer{chunkSamplers: s.infer(), codec: s.codec}
}

// Generate produces approximately n synthetic flow records, drawing flow
// samples from each chunk model proportionally to the chunk's training
// share and reassembling by start time (§4.2 post-processing). Chunk models
// generate concurrently (each on its own canonical RNG stream) and their
// records are merged in chunk order before sorting, so the emitted trace is
// byte-identical at every parallelism setting. A negative n is 0.
func (s *FlowSynthesizer) Generate(n int) *trace.FlowTrace {
	return s.generateBatch([]int{n}, -1, false)[0]
}

// GenerateFresh is Generate (label -1) or GenerateLabeled (label >= 0) as
// the first call on a freshly loaded copy of s would run it: chunk i draws
// from a new copy of its canonical generation stream instead of its
// model's RNG. s is only read, so concurrent calls on one synthesizer are
// safe, and every call with the same (n, label) returns the same trace.
func (s *FlowSynthesizer) GenerateFresh(n, label int) (*trace.FlowTrace, error) {
	if label >= 0 {
		if err := s.checkLabel(label); err != nil {
			return nil, err
		}
	}
	return s.generateBatch([]int{n}, label, true)[0], nil
}

// Conditional reports whether the model was trained with scenario-label
// conditioning (Config.Conditional).
func (s *FlowSynthesizer) Conditional() bool { return s.cfg.Conditional }

// LabelCatalog returns the scenario labels observed during training — the
// union of labels with positive fitted weight across the chunk models, in
// ascending order. It is empty on unconditional models.
func (s *FlowSynthesizer) LabelCatalog() []trace.Label {
	var seen [trace.NumLabels]bool
	for _, m := range s.models {
		for l, p := range m.LabelDistribution() {
			if p > 0 && l < int(trace.NumLabels) {
				seen[l] = true
			}
		}
	}
	var out []trace.Label
	for l := trace.Label(0); l < trace.NumLabels; l++ {
		if seen[l] {
			out = append(out, l)
		}
	}
	return out
}

// GenerateLabeled produces approximately n synthetic flow records all
// conditioned on (and stamped with) the given scenario label. It fails on
// models trained without Config.Conditional and on out-of-range labels.
func (s *FlowSynthesizer) GenerateLabeled(n int, label trace.Label) (*trace.FlowTrace, error) {
	outs, err := s.GenerateLabeledBatch([]int{n}, label)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// GenerateLabeledBatch is GenerateBatch with every request pinned to the
// same scenario label — the primitive behind webapi's per-label request
// coalescing (only same-label requests may share a chunk fan-out). It
// fails where GenerateLabeled does.
func (s *FlowSynthesizer) GenerateLabeledBatch(counts []int, label trace.Label) ([]*trace.FlowTrace, error) {
	if err := s.checkLabel(int(label)); err != nil {
		return nil, err
	}
	return s.generateBatch(counts, int(label), false), nil
}

// GenerateBatch serves several requests' record counts from ONE chunk
// fan-out: each chunk model runs a single batched forward pass covering
// every request's share, and the generated records are dealt back out
// per-request. Request ri's trace depends only on the sampler state, the
// counts slice, and ri — chunk budgets are per-request quotas, so each
// request receives its proportional share of every chunk (the same chunk
// mixture a solo Generate would produce), not a contiguous slice of a
// merged pool. A one-request batch is Generate.
func (s *FlowSynthesizer) GenerateBatch(counts []int) []*trace.FlowTrace {
	return s.generateBatch(counts, -1, false)
}

func (s *FlowSynthesizer) checkLabel(label int) error {
	if !s.cfg.Conditional {
		return fmt.Errorf("core: GenerateLabeled requires a model trained with Config.Conditional")
	}
	if label >= int(trace.NumLabels) {
		return fmt.Errorf("core: label %d out of range 0..%d", label, trace.NumLabels-1)
	}
	return nil
}

// generateBatch is the shared chunk fan-out; label -1 is unconditional
// mixture generation, label >= 0 pins every chunk's draw to one scenario.
// fresh selects the chunk streams (chunkSamplers.stream).
func (s *FlowSynthesizer) generateBatch(counts []int, label int, fresh bool) []*trace.FlowTrace {
	defer telGeneratePhase.Start().Stop()
	quotas, totals := s.quotas(counts)
	chunkRecs := make([][]trace.FlowRecord, len(s.models))
	forEachChunk(s.cfg, len(s.models), func(i int) {
		chunkRecs[i] = s.generateChunk(s.models[i], s.stream(i, fresh), totals[i], label)
	})
	outs := make([]*trace.FlowTrace, len(counts))
	for ri, n := range counts {
		outs[ri] = &trace.FlowTrace{Records: make([]trace.FlowRecord, 0, max(n, 0))}
	}
	for i, recs := range chunkRecs {
		off := 0
		for ri, out := range outs {
			q := quotas[ri][i]
			out.Records = append(out.Records, recs[off:off+q]...)
			off += q
		}
	}
	for _, out := range outs {
		out.SortByStart()
	}
	return outs
}

// generateChunk fills one chunk's record budget from stream r (nil: the
// sampler's own RNG). Samples are flows and records per flow vary, so it
// generates flows until the budget is met — always requesting whole
// generation lots (partial lots waste a forward pass) and trimming the
// overshoot. Samples are decoded as GenerateEach delivers them, and
// generation stops once the budget is met, so only a window of samples is
// ever resident; the records are those a decode of the whole request
// would emit.
// A pinned label (label >= 0) additionally stamps every emitted record
// with that scenario, making the conditional slice authoritative.
func (s *FlowSynthesizer) generateChunk(m sampler, r *rand.Rand, budget, label int) []trace.FlowRecord {
	if budget <= 0 {
		return nil
	}
	out := make([]trace.FlowRecord, 0, budget)
	for budget > 0 {
		// The label was range-checked by checkLabel and the model was
		// trained conditionally, so this cannot fail.
		_ = m.GenerateEach(r, fullLots(budget, m.LotSize()), label, func(batch []dgan.Sample) bool {
			tuples := decodeTuples(s.codec.embed, s.codec.ipEmbed, batch)
			for bi, sample := range batch {
				for _, r := range s.codec.decodeRecords(sample, tuples[bi]) {
					if budget == 0 {
						return false
					}
					if label >= 0 {
						r.Label = trace.Label(label)
					}
					out = append(out, r)
					budget--
				}
			}
			return budget > 0
		})
	}
	return out
}

// TransformIPs remaps every generated address into the given base/mask
// range — the optional privacy extension of §5 (IP transformation to a
// user-specified or default private range).
func TransformIPs(t *trace.FlowTrace, base trace.IPv4, maskBits int) {
	mask := trace.IPv4(0)
	if maskBits > 0 {
		mask = trace.IPv4(^uint32(0) << (32 - maskBits))
	}
	for i := range t.Records {
		r := &t.Records[i]
		r.Tuple.SrcIP = base&mask | r.Tuple.SrcIP&^mask
		r.Tuple.DstIP = base&mask | r.Tuple.DstIP&^mask
	}
}
