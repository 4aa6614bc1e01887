package core

import (
	"repro/internal/dgan"
	"repro/internal/ip2vec"
	"repro/internal/mat"
	"repro/internal/trace"
)

// Batched five-tuple decode for the generation pipeline. Per-sample decode
// runs one linear nearest-neighbour search per port/protocol field; here all
// fields of a generated batch are gathered into query matrices and resolved
// with one ip2vec.NearestBatch (a single matmul) per kind. The decode only
// reads the embedding, so concurrent chunk decoders may share it.

// fallbackPort is the explicit decode fallback when the dictionary has no
// port vocabulary: the numerically lowest known port, or 0 when the
// vocabulary is empty. pe.ports is sorted at build time (model.Words) and
// re-sorted when restored from a checkpoint, but the minimum is scanned
// explicitly so the fallback stays correct even for a hand-built or
// unsorted vocabulary.
func (pe *portEmbedding) fallbackPort() uint16 {
	if len(pe.ports) == 0 {
		return 0
	}
	min := pe.ports[0].Value
	for _, w := range pe.ports[1:] {
		if w.Value < min {
			min = w.Value
		}
	}
	return uint16(min)
}

// invertInto denormalizes row into dst (the generator emits [0,1]-normalized
// embedding coordinates; the dictionary search runs in embedding space).
func (pe *portEmbedding) invertInto(dst, row []float64) {
	for d, x := range row {
		dst[d] = pe.norms[d].Inverse(x)
	}
}

// decodeKindBatch resolves every row to its nearest word value of the given
// kind through one batched matmul. fallback is used when the kind has no
// vocabulary at all.
func (pe *portEmbedding) decodeKindBatch(kind ip2vec.WordKind, rows [][]float64, fallback uint32) []uint32 {
	out := make([]uint32, len(rows))
	q := mat.New(len(rows), pe.dim)
	for i, row := range rows {
		pe.invertInto(q.Row(i), row)
	}
	words, ok := pe.model.NearestBatch(kind, q)
	if !ok {
		for i := range out {
			out[i] = fallback
		}
		return out
	}
	for i, w := range words {
		out[i] = w.Value
	}
	return out
}

// decodeTuples inverts the shared metadata layout for a whole generated
// batch at once: IPs are bit-decoded per sample, ports and protocols are
// resolved through the batched dictionary search.
func decodeTuples(embed *portEmbedding, ipEmbed *ipEmbedding, samples []dgan.Sample) []trace.FiveTuple {
	d := embed.dim
	n := len(samples)
	out := make([]trace.FiveTuple, n)
	portRows := make([][]float64, 2*n)
	protoRows := make([][]float64, n)
	for i := range samples {
		meta := samples[i].Meta
		var off int
		out[i].SrcIP, out[i].DstIP, off = decodeIPs(meta, ipEmbed)
		portRows[2*i] = meta[off : off+d]
		portRows[2*i+1] = meta[off+d : off+2*d]
		protoRows[i] = meta[off+2*d : off+3*d]
	}
	ports := embed.decodeKindBatch(ip2vec.KindPort, portRows, uint32(embed.fallbackPort()))
	protos := embed.decodeKindBatch(ip2vec.KindProto, protoRows, uint32(trace.TCP))
	for i := range out {
		out[i].SrcPort = uint16(ports[2*i])
		out[i].DstPort = uint16(ports[2*i+1])
		out[i].Proto = trace.Protocol(protos[i])
	}
	return out
}
