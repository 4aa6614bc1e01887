package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/container"
	"repro/internal/encoding"
	"repro/internal/ip2vec"
)

// Model persistence: a trained synthesizer (chunk models, port embedding,
// and fitted normalizers) can be saved once and reloaded for repeated
// generation, so data holders train once and serve many requests.
// Optimizer state is not persisted; a loaded model generates and can be
// fine-tuned further from its weights.
//
// The wire bytes are a container frame (internal/container): magic,
// format version, kind tag (flow vs packet), and a CRC-32 over the gob
// payload. Loading validates the frame before the gob decoder ever runs,
// then validates the decoded state itself — model count against
// Config.Chunks, every fitted normalizer range finite with Lo <= Hi —
// so a truncated, bit-flipped, wrong-kind, or future-version file
// surfaces as a typed error (container.ErrBadMagic, ErrFutureVersion,
// ErrCorrupt, ErrWrongKind) instead of an opaque gob failure, silently
// loaded garbage, or a panic.

// rangeWire captures one fitted normalizer's bounds.
type rangeWire struct{ Lo, Hi float64 }

// validate rejects non-finite or inverted bounds, which would otherwise
// poison every value the restored normalizer touches.
func (r rangeWire) validate(field string) error {
	if math.IsNaN(r.Lo) || math.IsNaN(r.Hi) || math.IsInf(r.Lo, 0) || math.IsInf(r.Hi, 0) {
		return fmt.Errorf("core: persisted %s range [%v, %v] is not finite", field, r.Lo, r.Hi)
	}
	if r.Lo > r.Hi {
		return fmt.Errorf("core: persisted %s range [%v, %v] is inverted", field, r.Lo, r.Hi)
	}
	return nil
}

func captureRange(c interface {
	Range() (float64, float64, bool)
}) (rangeWire, error) {
	lo, hi, ok := c.Range()
	if !ok {
		return rangeWire{}, fmt.Errorf("core: normalizer not fitted")
	}
	return rangeWire{Lo: lo, Hi: hi}, nil
}

// embedWire captures the port embedding.
type embedWire struct {
	Model []byte
	Dim   int
	Norms []rangeWire
}

func captureEmbed(pe *portEmbedding) (embedWire, error) {
	enc, err := pe.model.Encode()
	if err != nil {
		return embedWire{}, err
	}
	w := embedWire{Model: enc, Dim: pe.dim}
	for i := range pe.norms {
		r, err := captureRange(&pe.norms[i])
		if err != nil {
			return embedWire{}, err
		}
		w.Norms = append(w.Norms, r)
	}
	return w, nil
}

func restoreEmbed(w embedWire) (*portEmbedding, error) {
	if w.Dim <= 0 {
		return nil, fmt.Errorf("core: persisted embedding dimension %d is not positive", w.Dim)
	}
	model, err := ip2vec.Decode(w.Model)
	if err != nil {
		return nil, err
	}
	if len(w.Norms) != w.Dim {
		return nil, fmt.Errorf("core: embedding has %d norms, want %d", len(w.Norms), w.Dim)
	}
	pe := &portEmbedding{model: model, dim: w.Dim, ports: sortedPorts(model)}
	if len(pe.ports) == 0 {
		return nil, fmt.Errorf("core: persisted embedding has no port vocabulary")
	}
	pe.norms = make([]encoding.MinMax, w.Dim)
	for i, r := range w.Norms {
		if err := r.validate(fmt.Sprintf("embedding norm %d", i)); err != nil {
			return nil, err
		}
		pe.norms[i].RestoreRange(r.Lo, r.Hi)
	}
	return pe, nil
}

// saveContainer gob-encodes wire and writes it to w inside a container
// frame of the given kind, so every saved synthesizer carries a magic,
// format version, kind tag, and payload CRC.
func saveContainer(w io.Writer, kind container.Kind, wire any) error {
	var payload bytes.Buffer
	if err := gob.NewEncoder(&payload).Encode(wire); err != nil {
		return fmt.Errorf("core: encode synthesizer: %w", err)
	}
	if _, err := w.Write(container.Encode(kind, payload.Bytes())); err != nil {
		return fmt.Errorf("core: write synthesizer: %w", err)
	}
	return nil
}

// loadContainer reads a full container frame from r, validates it, and
// gob-decodes the payload into wire. The frame must be of the trace kind's
// float64 kind ref or float32 kind fast, and fast reports which. The gob
// decoder only ever sees CRC-verified bytes; a panic anywhere below (a
// malformed gob stream that slips past the CRC, e.g. hand-crafted) is
// converted to an error.
func loadContainer(r io.Reader, ref, fastKind container.Kind, wire any) (fast bool, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("core: load synthesizer: decoder panicked on malformed input: %v", rec)
		}
	}()
	data, err := io.ReadAll(r)
	if err != nil {
		return false, fmt.Errorf("core: read synthesizer: %w", err)
	}
	kind, payload, err := container.Decode(data)
	if err != nil {
		return false, fmt.Errorf("core: load synthesizer: %w", err)
	}
	if kind != ref && kind != fastKind {
		return false, fmt.Errorf("core: load synthesizer: %w: got %s, want %s or %s", container.ErrWrongKind, kind, ref, fastKind)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(wire); err != nil {
		return false, fmt.Errorf("core: load synthesizer: %w", err)
	}
	return kind == fastKind, nil
}

// validateModels cross-checks the persisted chunk models against the
// persisted configuration: exactly one model per configured chunk.
func validateModels(models [][]byte, cfg Config) error {
	if len(models) == 0 {
		return fmt.Errorf("core: persisted synthesizer has no models")
	}
	if cfg.Chunks > 0 && len(models) != cfg.Chunks {
		return fmt.Errorf("core: persisted synthesizer has %d models, config declares %d chunks",
			len(models), cfg.Chunks)
	}
	return nil
}

// errAblationSave refuses to persist the IPVectorEncoding ablation (its
// private dictionary exists only to quantify Table 2's tradeoff).
var errAblationSave = fmt.Errorf("core: IPVectorEncoding models are ablation-only and cannot be persisted")

// savedStats is the part of Stats a container carries: the per-chunk
// sample counts generation splits requests by, and the spent privacy
// budget. Run costs (times, attempts, losses) differ between identical
// trainings, so leaving them out makes the container a pure function of
// (data, config, seed). The wire field keeps the name Stats: gob matches
// fields by name and skips the rest, so containers that carry the whole
// Stats still load.
type savedStats struct {
	ChunkSamples []int
	Epsilon      float64
}

func saveStats(st Stats) savedStats {
	return savedStats{ChunkSamples: st.ChunkSamples, Epsilon: st.Epsilon}
}

func (w savedStats) stats() Stats {
	return Stats{ChunkSamples: w.ChunkSamples, Epsilon: w.Epsilon}
}

// flowSynWire is the gob wire form of a FlowSynthesizer of either
// precision: Models holds dgan.Model gob blobs or dgan infer-format
// snapshots, as the container kind says. Gob writes the type name into
// the stream, so renaming it changes every saved container's bytes.
type flowSynWire struct {
	Config Config
	Stats  savedStats
	Embed  embedWire
	Time   rangeWire
	Dur    rangeWire
	Pkt    rangeWire
	Byt    rangeWire
	Models [][]byte
}

// Save serializes the synthesizer to w as a flow-model container, or a
// flow-fast container when it samples in float32. The IPVectorEncoding
// ablation mode is not persistable.
func (s *FlowSynthesizer) Save(w io.Writer) error {
	if s.codec.ipEmbed != nil {
		return errAblationSave
	}
	wire := flowSynWire{Config: s.cfg, Stats: saveStats(s.stats)}
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
	if wire.Models, err = s.encodeModels(); err != nil {
		return err
	}
	return saveContainer(w, s.kind(container.KindFlowModel, container.KindFlowFast), wire)
}

// LoadFlowSynthesizer deserializes a synthesizer produced by Save, from a
// flow-model or flow-fast container, validating the container frame and
// the decoded state (model count vs Config.Chunks, finite non-inverted
// normalizer ranges) before any model weights are trusted; float32 weight
// blobs additionally go through DecodeInferWeights' typed validation.
func LoadFlowSynthesizer(r io.Reader) (*FlowSynthesizer, error) {
	var wire flowSynWire
	fast, err := loadContainer(r, container.KindFlowModel, container.KindFlowFast, &wire)
	if err != nil {
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

	chunks, err := loadSamplers(wire.Models, wire.Config, wire.Stats.stats(), fast)
	if err != nil {
		return nil, err
	}
	return &FlowSynthesizer{chunkSamplers: chunks, codec: codec}, nil
}

// packetSynWire is the gob wire form of a PacketSynthesizer of either
// precision; see flowSynWire.
type packetSynWire struct {
	Config Config
	Stats  savedStats
	Embed  embedWire
	Time   rangeWire
	Size   rangeWire
	Models [][]byte
}

// Save serializes the synthesizer to w as a packet-model container, or a
// packet-fast container when it samples in float32. The IPVectorEncoding
// ablation mode is not persistable.
func (s *PacketSynthesizer) Save(w io.Writer) error {
	if s.codec.ipEmbed != nil {
		return errAblationSave
	}
	wire := packetSynWire{Config: s.cfg, Stats: saveStats(s.stats)}
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
	if wire.Models, err = s.encodeModels(); err != nil {
		return err
	}
	return saveContainer(w, s.kind(container.KindPacketMdl, container.KindPacketFast), wire)
}

// LoadPacketSynthesizer deserializes a synthesizer produced by Save, from
// a packet-model or packet-fast container, with the same frame and state
// validation as LoadFlowSynthesizer.
func LoadPacketSynthesizer(r io.Reader) (*PacketSynthesizer, error) {
	var wire packetSynWire
	fast, err := loadContainer(r, container.KindPacketMdl, container.KindPacketFast, &wire)
	if err != nil {
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

	chunks, err := loadSamplers(wire.Models, wire.Config, wire.Stats.stats(), fast)
	if err != nil {
		return nil, err
	}
	return &PacketSynthesizer{chunkSamplers: chunks, codec: codec}, nil
}
