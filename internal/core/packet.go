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

// packetCodec converts between trace.PacketFlow and dgan samples: the
// metadata is the encoded five-tuple plus flow tags, the measurement
// sequence is one element per packet (timestamp, size, TTL) per §4.1.
type packetCodec struct {
	cfg     Config
	embed   *portEmbedding
	ipEmbed *ipEmbedding // non-nil only under the IPVectorEncoding ablation

	timeNorm encoding.MinMax
	sizeNorm scalarCodec
}

func newPacketCodec(cfg Config, embed *portEmbedding, t *trace.PacketTrace) *packetCodec {
	c := &packetCodec{cfg: cfg, embed: embed, sizeNorm: newScalarCodec(cfg)}
	times := make([]float64, 0, len(t.Packets))
	sizes := make([]float64, 0, len(t.Packets))
	for _, p := range t.Packets {
		times = append(times, float64(p.Time))
		sizes = append(sizes, float64(p.Size))
	}
	c.timeNorm.Fit(times)
	c.sizeNorm.Fit(sizes)
	return c
}

func (c *packetCodec) metaSchema() []nn.FieldSpec {
	return metaSchemaFor(c.cfg, c.ipEmbed != nil)
}

func (c *packetCodec) featureSchema() []nn.FieldSpec {
	return []nn.FieldSpec{
		{Name: "time", Kind: nn.FieldContinuous, Size: 1},
		{Name: "size", Kind: nn.FieldContinuous, Size: 1},
		{Name: "ttl", Kind: nn.FieldContinuous, Size: 1},
	}
}

func (c *packetCodec) encodeMeta(ft trace.FiveTuple, tags trace.FlowTags) []float64 {
	out := make([]float64, 0, nn.Width(c.metaSchema()))
	out = appendIP(out, ft.SrcIP, c.ipEmbed)
	out = appendIP(out, ft.DstIP, c.ipEmbed)
	out = append(out, c.embed.encodePort(ft.SrcPort)...)
	out = append(out, c.embed.encodePort(ft.DstPort)...)
	out = append(out, c.embed.encodeProto(ft.Proto)...)
	return append(out, encodeTags(c.cfg, tags)...)
}

func (c *packetCodec) decodeMeta(meta []float64) trace.FiveTuple {
	d := c.cfg.EmbedDim
	var ft trace.FiveTuple
	var off int
	ft.SrcIP, ft.DstIP, off = decodeIPs(meta, c.ipEmbed)
	ft.SrcPort = c.embed.decodePort(meta[off : off+d])
	ft.DstPort = c.embed.decodePort(meta[off+d : off+2*d])
	ft.Proto = c.embed.decodeProto(meta[off+2*d : off+3*d])
	return ft
}

func (c *packetCodec) encode(t *trace.TaggedPacketFlow) dgan.Sample {
	s := dgan.Sample{Meta: c.encodeMeta(t.Flow.Tuple, t.Tags)}
	for i, p := range t.Flow.Packets {
		if i >= c.cfg.MaxLen {
			break
		}
		s.Features = append(s.Features, []float64{
			c.timeNorm.Transform(float64(p.Time)),
			c.sizeNorm.Transform(float64(p.Size)),
			float64(p.TTL) / 255,
		})
	}
	return s
}

// decode converts a generated sample back into packets. Post-processing
// (§4.2): sizes are clamped to the protocol minimum so derived headers are
// valid, and the checksum-bearing header can be produced via
// trace.IPv4Header.
func (c *packetCodec) decode(s dgan.Sample) *trace.PacketFlow {
	return c.decodeFlow(s, c.decodeMeta(s.Meta))
}

// decodeFlow is decode with the five-tuple already resolved by the batched
// decodeTuples pass.
func (c *packetCodec) decodeFlow(s dgan.Sample, ft trace.FiveTuple) *trace.PacketFlow {
	f := &trace.PacketFlow{Tuple: ft}
	for _, feat := range s.Features {
		size := int(math.Round(c.sizeNorm.Inverse(feat[1])))
		if min := trace.MinPacketSize(ft.Proto); size < min {
			size = min
		}
		if size > trace.MaxPacket {
			size = trace.MaxPacket
		}
		f.Packets = append(f.Packets, trace.Packet{
			Time:  int64(c.timeNorm.Inverse(feat[0])),
			Tuple: ft,
			Size:  size,
			TTL:   uint8(math.Round(feat[2] * 255)),
			Flags: 2,
		})
	}
	// Packets within a flow must be time ordered.
	for i := 1; i < len(f.Packets); i++ {
		if f.Packets[i].Time < f.Packets[i-1].Time {
			f.Packets[i].Time = f.Packets[i-1].Time
		}
	}
	return f
}

// PacketSynthesizer is a trained NetShare model for PCAP traces, sampling
// in float64 or, after Fast, in float32 (sampler.go).
type PacketSynthesizer struct {
	chunkSamplers
	codec *packetCodec
}

// TrainPacketSynthesizer runs the full NetShare pipeline on a packet trace.
// public supplies the IP2Vec corpus and optional DP pre-training data.
func TrainPacketSynthesizer(t *trace.PacketTrace, public *trace.PacketTrace, cfg Config) (*PacketSynthesizer, error) {
	return TrainPacketSynthesizerOpts(t, public, cfg, TrainOptions{})
}

// TrainPacketSynthesizerOpts is TrainPacketSynthesizer with operational
// options: checkpoint/resume, retry policy, and progress events for the
// chunked training fan-out.
func TrainPacketSynthesizerOpts(t *trace.PacketTrace, public *trace.PacketTrace, cfg Config, opts TrainOptions) (*PacketSynthesizer, error) {
	codec, chunkSamples, err := buildPacketTraining(t, public, cfg)
	if err != nil {
		return nil, err
	}

	var publicSamples []dgan.Sample
	if cfg.DP != nil && cfg.DP.Pretrain {
		publicSamples = publicPacketSamples(codec, public, cfg)
	}

	ganCfg := ganConfig(cfg, codec.metaSchema(), codec.featureSchema())
	models, stats, err := trainChunks(cfg, ganCfg, chunkSamples, publicSamples, opts)
	if err != nil {
		return nil, err
	}
	return &PacketSynthesizer{chunkSamplers: trained(cfg, models, stats), codec: codec}, nil
}

// buildPacketTraining is the deterministic preparation shared by local
// training and the distributed plan (PlanPacketTraining); see
// buildFlowTraining.
func buildPacketTraining(t *trace.PacketTrace, public *trace.PacketTrace, cfg Config) (*packetCodec, [][]dgan.Sample, error) {
	if err := cfg.Validate(); err != nil {
		return nil, nil, err
	}
	if cfg.Conditional {
		// Packet flows carry no per-record scenario label to condition on.
		return nil, nil, fmt.Errorf("core: Conditional training is flow-only; packet traces carry no scenario labels")
	}
	if len(t.Packets) == 0 {
		return nil, nil, fmt.Errorf("core: empty packet trace")
	}
	if public == nil || len(public.Packets) == 0 {
		return nil, nil, fmt.Errorf("core: a public packet trace is required for the port embedding")
	}
	embed, err := newPortEmbedding(public, cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed)
	if err != nil {
		return nil, nil, err
	}
	codec := newPacketCodec(cfg, embed, t)
	if cfg.IPVectorEncoding {
		ipEmbed, err := newIPEmbedding(ip2vec.PacketSentences(t), cfg.EmbedDim, cfg.EmbedEpochs, cfg.Seed+3)
		if err != nil {
			return nil, nil, err
		}
		codec.ipEmbed = ipEmbed
	}

	flows := trace.SplitFlows(t)
	chunks := trace.ChunkPacketFlows(flows, cfg.Chunks)
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

func publicPacketSamples(codec *packetCodec, public *trace.PacketTrace, cfg Config) []dgan.Sample {
	flows := trace.SplitFlows(public)
	samples := make([]dgan.Sample, 0, len(flows))
	for _, f := range flows {
		tagged := &trace.TaggedPacketFlow{
			Flow: f,
			Tags: trace.FlowTags{StartsHere: true, Presence: make([]bool, cfg.Chunks)},
		}
		samples = append(samples, codec.encode(tagged))
	}
	return samples
}

// Fast returns the float32 serving snapshot of s; see
// FlowSynthesizer.Fast.
func (s *PacketSynthesizer) Fast() *PacketSynthesizer {
	if s.fast() {
		return s
	}
	return &PacketSynthesizer{chunkSamplers: s.infer(), codec: s.codec}
}

// Generate produces approximately n synthetic packets assembled into a
// time-sorted trace. Chunk models generate concurrently (each on its own
// canonical RNG stream) and their flows are merged in chunk order before
// assembly, so the trace is byte-identical at every parallelism setting.
// A negative n is 0.
func (s *PacketSynthesizer) Generate(n int) *trace.PacketTrace {
	return s.generateBatch([]int{n}, false)[0]
}

// GenerateFresh is Generate as the first call on a freshly loaded copy of
// s would run it: chunk i draws from a new copy of its canonical
// generation stream instead of its model's RNG. s is only read, so
// concurrent calls on one synthesizer are safe, and every call with the
// same n returns the same trace.
func (s *PacketSynthesizer) GenerateFresh(n int) *trace.PacketTrace {
	return s.generateBatch([]int{n}, true)[0]
}

// GenerateBatch serves several requests' packet counts from one chunk
// fan-out, with the same per-request chunk quotas as the flow variant. A
// generated flow straddling two requests' shares is split at the packet
// boundary (both halves keep the five-tuple), so every request receives
// exactly its count.
func (s *PacketSynthesizer) GenerateBatch(counts []int) []*trace.PacketTrace {
	return s.generateBatch(counts, false)
}

// generateBatch is the shared chunk fan-out; fresh selects the chunk
// streams (chunkSamplers.stream).
func (s *PacketSynthesizer) generateBatch(counts []int, fresh bool) []*trace.PacketTrace {
	defer telGeneratePhase.Start().Stop()
	quotas, totals := s.quotas(counts)
	chunkFlows := make([][]*trace.PacketFlow, len(s.models))
	forEachChunk(s.cfg, len(s.models), func(i int) {
		chunkFlows[i] = s.generateChunk(s.models[i], s.stream(i, fresh), totals[i])
	})
	perReq := make([][]*trace.PacketFlow, len(counts))
	for i, flows := range chunkFlows {
		fi, pi := 0, 0
		for ri := range counts {
			need := quotas[ri][i]
			for need > 0 && fi < len(flows) {
				f := flows[fi]
				take := min(len(f.Packets)-pi, need)
				perReq[ri] = append(perReq[ri], &trace.PacketFlow{
					Tuple:   f.Tuple,
					Packets: f.Packets[pi : pi+take],
				})
				need -= take
				pi += take
				if pi == len(f.Packets) {
					fi, pi = fi+1, 0
				}
			}
		}
	}
	outs := make([]*trace.PacketTrace, len(counts))
	for ri := range outs {
		outs[ri] = trace.AssemblePackets(perReq[ri])
	}
	return outs
}

// generateChunk fills one chunk's packet budget from stream r (nil: the
// sampler's own RNG), requesting whole generation lots, decoding them as
// GenerateEach delivers them and stopping once the budget is met.
func (s *PacketSynthesizer) generateChunk(m sampler, r *rand.Rand, budget int) []*trace.PacketFlow {
	if budget <= 0 {
		return nil
	}
	var flows []*trace.PacketFlow
	for budget > 0 {
		// Unlabeled generation cannot fail.
		_ = m.GenerateEach(r, fullLots(budget, m.LotSize()), -1, func(batch []dgan.Sample) bool {
			tuples := decodeTuples(s.codec.embed, s.codec.ipEmbed, batch)
			for bi, sample := range batch {
				f := s.codec.decodeFlow(sample, tuples[bi])
				if len(f.Packets) > budget {
					f.Packets = f.Packets[:budget]
				}
				budget -= len(f.Packets)
				flows = append(flows, f)
				if budget == 0 {
					return false
				}
			}
			return true
		})
	}
	return flows
}

// Headers materializes valid IPv4 headers (with checksums) for every
// packet of a generated trace — the derived-field step of §4.2.
func Headers(t *trace.PacketTrace) [][]byte {
	out := make([][]byte, len(t.Packets))
	for i, p := range t.Packets {
		h := trace.IPv4Header{
			TotalLength: uint16(p.Size),
			ID:          uint16(i),
			Flags:       p.Flags,
			TTL:         p.TTL,
			Protocol:    p.Tuple.Proto,
			SrcIP:       p.Tuple.SrcIP,
			DstIP:       p.Tuple.DstIP,
		}
		out[i] = h.Marshal()
	}
	return out
}
