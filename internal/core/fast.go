package core

import (
	"fmt"
	"io"

	"repro/internal/container"
	"repro/internal/dgan"
	"repro/internal/rng"
	"repro/internal/trace"
)

// Serving fast path (DESIGN.md §11): FastFlowSynthesizer and
// FastPacketSynthesizer wrap float32 inference-only snapshots of a trained
// synthesizer's chunk models. They share the fitted codec (port embedding,
// normalizers) with the reference path, generate with the same
// chunk-proportional budgeting, and add GenerateBatch — one batched forward
// fan-out serving several requests' counts at once, the primitive behind
// webapi's cross-request coalescing. Output is reproducible for a
// fixed seed at any parallelism, but it is NOT bitwise-equal to the
// float64 path; fidelity is pinned distributionally by
// internal/conformance instead.

// fastGenStream is the rng.Derive stream range reserved for fast-path
// chunk generation, disjoint from dpNoiseStream and genStream so the fast
// path never replays or disturbs the reference path's draws.
const fastGenStream = 1 << 34

// FastFlowSynthesizer is the float32 serving snapshot of a FlowSynthesizer.
type FastFlowSynthesizer struct {
	cfg    Config
	codec  *flowCodec
	models []*dgan.InferModel
	stats  Stats
}

// Fast snapshots the trained synthesizer for serving. The snapshot shares
// the read-only codec but owns its generation RNGs, so fast-path serving
// never perturbs the reference path's streams.
func (s *FlowSynthesizer) Fast() *FastFlowSynthesizer {
	f := &FastFlowSynthesizer{cfg: s.cfg, codec: s.codec, stats: s.stats}
	f.models = fastModels(s.models, s.cfg)
	return f
}

func fastModels(models []*dgan.Model, cfg Config) []*dgan.InferModel {
	out := make([]*dgan.InferModel, len(models))
	for i, m := range models {
		out[i] = m.Infer()
		out[i].Reseed(rng.Derive(cfg.Seed, fastGenStream+int64(i)))
		out[i].SetParallelism(cfg.Parallelism)
	}
	return out
}

// Generate produces approximately n synthetic flow records on the fast path.
func (s *FastFlowSynthesizer) Generate(n int) *trace.FlowTrace {
	return s.GenerateBatch([]int{n})[0]
}

// Conditional reports whether the snapshotted model was trained with
// scenario-label conditioning.
func (s *FastFlowSynthesizer) Conditional() bool { return s.cfg.Conditional }

// LabelCatalog returns the scenario labels observed during training,
// merged across the chunk snapshots' fitted label distributions.
func (s *FastFlowSynthesizer) LabelCatalog() []trace.Label {
	weights := make([][]float64, 0, len(s.models))
	for _, m := range s.models {
		weights = append(weights, m.LabelWeights)
	}
	return labelCatalog(weights)
}

// GenerateLabeled produces approximately n records conditioned on (and
// stamped with) one scenario label.
func (s *FastFlowSynthesizer) GenerateLabeled(n int, label trace.Label) (*trace.FlowTrace, error) {
	outs, err := s.GenerateLabeledBatch([]int{n}, label)
	if err != nil {
		return nil, err
	}
	return outs[0], nil
}

// GenerateLabeledBatch is GenerateBatch with every request pinned to the
// same scenario label — the primitive behind webapi's per-label request
// coalescing (only same-label requests may share a chunk fan-out). It
// fails on snapshots of unconditional models and on out-of-range labels.
func (s *FastFlowSynthesizer) GenerateLabeledBatch(counts []int, label trace.Label) ([]*trace.FlowTrace, error) {
	if !s.cfg.Conditional {
		return nil, fmt.Errorf("core: GenerateLabeledBatch requires a model trained with Config.Conditional")
	}
	if label >= trace.NumLabels {
		return nil, fmt.Errorf("core: label %d out of range 0..%d", label, trace.NumLabels-1)
	}
	return s.generateBatch(counts, int(label)), nil
}

// GenerateBatch serves several requests' record counts from ONE chunk
// fan-out: each chunk model runs a single batched forward pass covering
// every request's share, and the generated records are dealt back out
// per-request. Request ri's trace depends only on the seed, the counts
// slice, and ri — chunk budgets are per-request quotas, so each request
// receives its proportional share of every chunk (the same chunk mixture
// a solo Generate would produce), not a contiguous slice of a merged pool.
func (s *FastFlowSynthesizer) GenerateBatch(counts []int) []*trace.FlowTrace {
	return s.generateBatch(counts, -1)
}

// generateBatch is the shared batched fan-out; label -1 is unconditional
// mixture generation, label >= 0 pins every chunk's draw to one scenario.
func (s *FastFlowSynthesizer) generateBatch(counts []int, label int) []*trace.FlowTrace {
	defer telGeneratePhase.Start().Stop()
	quotas := make([][]int, len(counts))
	chunkTotals := make([]int, len(s.models))
	for ri, n := range counts {
		quotas[ri] = splitCounts(maxInt(n, 0), s.stats.ChunkSamples)
		for i, q := range quotas[ri] {
			chunkTotals[i] += q
		}
	}
	chunkRecs := make([][]trace.FlowRecord, len(s.models))
	forEachChunk(s.cfg, len(s.models), func(i int) {
		chunkRecs[i] = s.generateChunk(s.models[i], chunkTotals[i], label)
	})
	outs := make([]*trace.FlowTrace, len(counts))
	for ri := range outs {
		outs[ri] = &trace.FlowTrace{}
	}
	for i, recs := range chunkRecs {
		off := 0
		for ri := range counts {
			q := quotas[ri][i]
			outs[ri].Records = append(outs[ri].Records, recs[off:off+q]...)
			off += q
		}
	}
	for _, out := range outs {
		out.SortByStart()
	}
	return outs
}

// generateChunk fills one chunk's record budget, mirroring the reference
// path's whole-lot batching, overshoot trimming, and pinned-label record
// stamping.
func (s *FastFlowSynthesizer) generateChunk(m *dgan.InferModel, budget, label int) []trace.FlowRecord {
	if budget <= 0 {
		return nil
	}
	out := make([]trace.FlowRecord, 0, budget)
	for budget > 0 {
		var batch []dgan.Sample
		if label >= 0 {
			// Range-checked by GenerateLabeledBatch, so this cannot fail.
			batch, _ = m.GenerateLabeled(fullLots(budget, m.Lot), label)
		} else {
			batch = m.Generate(fullLots(budget, m.Lot))
		}
		if len(batch) == 0 {
			return out
		}
		tuples := decodeTuples(s.codec.embed, s.codec.ipEmbed, batch)
		for bi, sample := range batch {
			for _, r := range s.codec.decodeRecords(sample, tuples[bi]) {
				if budget == 0 {
					break
				}
				if label >= 0 {
					r.Label = trace.Label(label)
				}
				out = append(out, r)
				budget--
			}
		}
	}
	return out
}

// Stats returns the training cost report captured at snapshot time.
func (s *FastFlowSynthesizer) Stats() Stats { return s.stats }

// SetParallelism retargets every snapshot model's generation worker count
// (0 = NumCPU, 1 = serial). Output is independent of the setting.
func (s *FastFlowSynthesizer) SetParallelism(n int) {
	s.cfg.Parallelism = n
	for _, m := range s.models {
		m.SetParallelism(n)
	}
}

// fastFlowWire is the gob wire form of a FastFlowSynthesizer; Models holds
// the chunk snapshots in the compact dgan infer wire format.
type fastFlowWire struct {
	Config Config
	Stats  Stats
	Embed  embedWire
	Time   rangeWire
	Dur    rangeWire
	Pkt    rangeWire
	Byt    rangeWire
	Models [][]byte
}

// Save serializes the snapshot to w as a flow-fast container.
func (s *FastFlowSynthesizer) Save(w io.Writer) error {
	if s.codec.ipEmbed != nil {
		return fmt.Errorf("core: IPVectorEncoding models are ablation-only and cannot be persisted")
	}
	wire := fastFlowWire{Config: s.cfg, Stats: s.stats}
	var err error
	if wire.Embed, err = captureEmbed(s.codec.embed); err != nil {
		return err
	}
	if wire.Time, err = captureRange(&s.codec.timeNorm); err != nil {
		return err
	}
	if wire.Dur, err = captureRange(s.codec.durNorm); err != nil {
		return err
	}
	if wire.Pkt, err = captureRange(s.codec.pktNorm); err != nil {
		return err
	}
	if wire.Byt, err = captureRange(s.codec.bytNorm); err != nil {
		return err
	}
	for _, m := range s.models {
		wire.Models = append(wire.Models, m.EncodeInfer())
	}
	return saveContainer(w, container.KindFlowFast, wire)
}

// LoadFastFlowSynthesizer deserializes a snapshot produced by Save, with
// the same frame and state validation as LoadFlowSynthesizer; the weight
// blobs additionally go through DecodeInferWeights' typed validation.
func LoadFastFlowSynthesizer(r io.Reader) (*FastFlowSynthesizer, error) {
	var wire fastFlowWire
	if err := loadContainer(r, container.KindFlowFast, &wire); err != nil {
		return nil, err
	}
	if err := validateModels(wire.Models, wire.Config); err != nil {
		return nil, err
	}
	for _, rw := range []struct {
		r    rangeWire
		name string
	}{{wire.Time, "time"}, {wire.Dur, "duration"}, {wire.Pkt, "packets"}, {wire.Byt, "bytes"}} {
		if err := rw.r.validate(rw.name); err != nil {
			return nil, err
		}
	}
	embed, err := restoreEmbed(wire.Embed)
	if err != nil {
		return nil, err
	}
	codec := &flowCodec{
		cfg: wire.Config, embed: embed,
		durNorm: newScalarCodec(wire.Config),
		pktNorm: newScalarCodec(wire.Config),
		bytNorm: newScalarCodec(wire.Config),
	}
	codec.timeNorm.RestoreRange(wire.Time.Lo, wire.Time.Hi)
	codec.durNorm.RestoreRange(wire.Dur.Lo, wire.Dur.Hi)
	codec.pktNorm.RestoreRange(wire.Pkt.Lo, wire.Pkt.Hi)
	codec.bytNorm.RestoreRange(wire.Byt.Lo, wire.Byt.Hi)

	s := &FastFlowSynthesizer{cfg: wire.Config, codec: codec, stats: wire.Stats}
	if s.models, err = loadFastModels(wire.Models, wire.Config); err != nil {
		return nil, err
	}
	return s, nil
}

func loadFastModels(blobs [][]byte, cfg Config) ([]*dgan.InferModel, error) {
	out := make([]*dgan.InferModel, len(blobs))
	for i, b := range blobs {
		m, err := dgan.DecodeInferWeights(b)
		if err != nil {
			return nil, err
		}
		// Same canonical stream as Fast(), so a loaded snapshot's first
		// Generate matches the freshly snapshotted one's.
		m.Reseed(rng.Derive(cfg.Seed, fastGenStream+int64(i)))
		m.SetParallelism(cfg.Parallelism)
		out[i] = m
	}
	return out, nil
}

// FastPacketSynthesizer is the float32 serving snapshot of a
// PacketSynthesizer.
type FastPacketSynthesizer struct {
	cfg    Config
	codec  *packetCodec
	models []*dgan.InferModel
	stats  Stats
}

// Fast snapshots the trained synthesizer for serving.
func (s *PacketSynthesizer) Fast() *FastPacketSynthesizer {
	f := &FastPacketSynthesizer{cfg: s.cfg, codec: s.codec, stats: s.stats}
	f.models = fastModels(s.models, s.cfg)
	return f
}

// Generate produces approximately n synthetic packets on the fast path.
func (s *FastPacketSynthesizer) Generate(n int) *trace.PacketTrace {
	return s.GenerateBatch([]int{n})[0]
}

// GenerateBatch serves several requests' packet counts from one chunk
// fan-out, with the same per-request chunk quotas as the flow variant. A
// generated flow straddling two requests' shares is split at the packet
// boundary (both halves keep the five-tuple), so every request receives
// exactly its count.
func (s *FastPacketSynthesizer) GenerateBatch(counts []int) []*trace.PacketTrace {
	defer telGeneratePhase.Start().Stop()
	quotas := make([][]int, len(counts))
	chunkTotals := make([]int, len(s.models))
	for ri, n := range counts {
		quotas[ri] = splitCounts(maxInt(n, 0), s.stats.ChunkSamples)
		for i, q := range quotas[ri] {
			chunkTotals[i] += q
		}
	}
	chunkFlows := make([][]*trace.PacketFlow, len(s.models))
	forEachChunk(s.cfg, len(s.models), func(i int) {
		chunkFlows[i] = s.generateChunk(s.models[i], chunkTotals[i])
	})
	perReq := make([][]*trace.PacketFlow, len(counts))
	for i, flows := range chunkFlows {
		fi, pi := 0, 0
		for ri := range counts {
			need := quotas[ri][i]
			for need > 0 && fi < len(flows) {
				f := flows[fi]
				take := len(f.Packets) - pi
				if take > need {
					take = need
				}
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

// generateChunk fills one chunk's packet budget.
func (s *FastPacketSynthesizer) generateChunk(m *dgan.InferModel, budget int) []*trace.PacketFlow {
	if budget <= 0 {
		return nil
	}
	var flows []*trace.PacketFlow
	for budget > 0 {
		batch := m.Generate(fullLots(budget, m.Lot))
		tuples := decodeTuples(s.codec.embed, s.codec.ipEmbed, batch)
		for bi, sample := range batch {
			f := s.codec.decodeFlow(sample, tuples[bi])
			if len(f.Packets) > budget {
				f.Packets = f.Packets[:budget]
			}
			budget -= len(f.Packets)
			flows = append(flows, f)
			if budget == 0 {
				break
			}
		}
	}
	return flows
}

// Stats returns the training cost report captured at snapshot time.
func (s *FastPacketSynthesizer) Stats() Stats { return s.stats }

// SetParallelism retargets every snapshot model's generation worker count.
func (s *FastPacketSynthesizer) SetParallelism(n int) {
	s.cfg.Parallelism = n
	for _, m := range s.models {
		m.SetParallelism(n)
	}
}

// fastPacketWire is the gob wire form of a FastPacketSynthesizer.
type fastPacketWire struct {
	Config Config
	Stats  Stats
	Embed  embedWire
	Time   rangeWire
	Size   rangeWire
	Models [][]byte
}

// Save serializes the snapshot to w as a packet-fast container.
func (s *FastPacketSynthesizer) Save(w io.Writer) error {
	if s.codec.ipEmbed != nil {
		return fmt.Errorf("core: IPVectorEncoding models are ablation-only and cannot be persisted")
	}
	wire := fastPacketWire{Config: s.cfg, Stats: s.stats}
	var err error
	if wire.Embed, err = captureEmbed(s.codec.embed); err != nil {
		return err
	}
	if wire.Time, err = captureRange(&s.codec.timeNorm); err != nil {
		return err
	}
	if wire.Size, err = captureRange(s.codec.sizeNorm); err != nil {
		return err
	}
	for _, m := range s.models {
		wire.Models = append(wire.Models, m.EncodeInfer())
	}
	return saveContainer(w, container.KindPacketFast, wire)
}

// LoadFastPacketSynthesizer deserializes a snapshot produced by Save.
func LoadFastPacketSynthesizer(r io.Reader) (*FastPacketSynthesizer, error) {
	var wire fastPacketWire
	if err := loadContainer(r, container.KindPacketFast, &wire); err != nil {
		return nil, err
	}
	if err := validateModels(wire.Models, wire.Config); err != nil {
		return nil, err
	}
	if err := wire.Time.validate("time"); err != nil {
		return nil, err
	}
	if err := wire.Size.validate("size"); err != nil {
		return nil, err
	}
	embed, err := restoreEmbed(wire.Embed)
	if err != nil {
		return nil, err
	}
	codec := &packetCodec{cfg: wire.Config, embed: embed, sizeNorm: newScalarCodec(wire.Config)}
	codec.timeNorm.RestoreRange(wire.Time.Lo, wire.Time.Hi)
	codec.sizeNorm.RestoreRange(wire.Size.Lo, wire.Size.Hi)

	s := &FastPacketSynthesizer{cfg: wire.Config, codec: codec, stats: wire.Stats}
	if s.models, err = loadFastModels(wire.Models, wire.Config); err != nil {
		return nil, err
	}
	return s, nil
}
