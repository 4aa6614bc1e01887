package benchpar

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/dgan"
	"repro/internal/ip2vec"
	"repro/internal/mat"
	"repro/internal/nn"
)

// GenBatch is the sample count drawn per op by the dgan generation
// workloads — 32 full lots at the benchmark model's lot size of 8.
const GenBatch = 256

// DecodeQueries is the number of embedding rows decoded per op by the
// nearest-word workloads.
const DecodeQueries = 256

// FlowGenSize is the record count per op of the end-to-end flow workload.
const FlowGenSize = 2000

func newGenModel(parallelism int) (*dgan.Model, error) {
	cfg := dgan.DefaultConfig()
	cfg.MetaSchema = []nn.FieldSpec{
		{Name: "m0", Kind: nn.FieldContinuous, Size: 2},
		{Name: "m1", Kind: nn.FieldCategorical, Size: 4},
	}
	cfg.FeatureSchema = []nn.FieldSpec{
		{Name: "f0", Kind: nn.FieldContinuous, Size: 1},
		{Name: "f1", Kind: nn.FieldCategorical, Size: 3},
	}
	cfg.MaxLen = 6
	cfg.Batch = 8
	cfg.Seed = 3
	cfg.Parallelism = parallelism
	return dgan.New(cfg)
}

func genModel(b *testing.B, parallelism int) *dgan.Model {
	m, err := newGenModel(parallelism)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// GenerateOp returns a single-op closure over a fresh generation model,
// for callers that time individual ops rather than testing.B loops (the
// telemetry-overhead measurement interleaves recording on/off per op).
func GenerateOp(parallelism int) (func(), error) {
	m, err := newGenModel(parallelism)
	if err != nil {
		return nil, err
	}
	return func() { m.Generate(GenBatch) }, nil
}

// Generate benchmarks the lot-parallel sampler (inference forwards, live
// mask, pooled scratch) at the given worker count.
func Generate(parallelism int) func(b *testing.B) {
	return func(b *testing.B) {
		m := genModel(b, parallelism)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Generate(GenBatch)
		}
	}
}

// GenerateFast benchmarks the float32 inference snapshot (fused GRU
// steps, compact weights, polynomial activations) of the same generation
// model at the given worker count. Compared against Generate(1), this is
// the serving fast path's speedup over the float64 reference sampler.
func GenerateFast(parallelism int) func(b *testing.B) {
	return func(b *testing.B) {
		im := genModel(b, 1).Infer()
		im.SetParallelism(parallelism)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			im.Generate(GenBatch)
		}
	}
}

func decodeSetup(b *testing.B) (*ip2vec.Model, *mat.Matrix, [][]float64) {
	m, err := ip2vec.Train(ip2vec.PacketSentences(datasets.CAIDAChicago(2000, 7)), ip2vec.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	queries := mat.New(DecodeQueries, m.Dim)
	rows := make([][]float64, DecodeQueries)
	for i := range rows {
		row := queries.Row(i)
		for d := range row {
			row[d] = r.NormFloat64() * 0.3
		}
		rows[i] = row
	}
	// Warm the searcher so neither path pays its one-time build in the loop.
	m.Nearest(ip2vec.KindPort, rows[0])
	return m, queries, rows
}

// DecodeScan benchmarks decoding DecodeQueries embedding rows with the
// original per-row linear scan over the vocabulary.
func DecodeScan() func(b *testing.B) {
	return func(b *testing.B) {
		m, _, rows := decodeSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, v := range rows {
				m.NearestScan(ip2vec.KindPort, v)
			}
		}
	}
}

// DecodeBatched benchmarks the same decode as one matmul against the
// contiguous embedding matrix plus a norm-trick argmin per row.
func DecodeBatched() func(b *testing.B) {
	return func(b *testing.B) {
		m, queries, _ := decodeSetup(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.NearestBatch(ip2vec.KindPort, queries)
		}
	}
}

// FlowGenerate benchmarks the end-to-end synthesizer pipeline — chunk
// fan-out, lot-parallel sampling, batched tuple decode, assembly — on a
// small trained model. Training happens once, outside the timer.
func FlowGenerate(parallelism int) func(b *testing.B) {
	return func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Chunks = 2
		cfg.SeedSteps = 60
		cfg.FineTuneSteps = 20
		cfg.MaxLen = 4
		cfg.EmbedEpochs = 2
		cfg.Seed = 9
		syn, err := core.TrainFlowSynthesizer(
			datasets.UGR16(400, 21), datasets.CAIDAChicago(1500, 22), cfg)
		if err != nil {
			b.Fatal(err)
		}
		syn.SetParallelism(parallelism)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			syn.Generate(FlowGenSize)
		}
	}
}

func conditionalFlowSynthesizer(b *testing.B) *core.FlowSynthesizer {
	cfg := core.DefaultConfig()
	cfg.Chunks = 2
	cfg.SeedSteps = 60
	cfg.FineTuneSteps = 20
	cfg.MaxLen = 4
	cfg.EmbedEpochs = 2
	cfg.Seed = 9
	cfg.Conditional = true
	// TON is the labeled preset (nine scenario labels at 35% attack
	// fraction), so the conditioning vector sees real label diversity.
	syn, err := core.TrainFlowSynthesizer(
		datasets.TON(400, 21), datasets.CAIDAChicago(1500, 22), cfg)
	if err != nil {
		b.Fatal(err)
	}
	return syn
}

// ConditionalFlowMixture benchmarks unconditional (trained-mixture)
// generation on a conditioning-enabled synthesizer — the baseline for the
// labeled-vs-unlabeled overhead comparison. Training happens once,
// outside the timer.
func ConditionalFlowMixture() func(b *testing.B) {
	return func(b *testing.B) {
		syn := conditionalFlowSynthesizer(b)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			syn.Generate(FlowGenSize)
		}
	}
}

// ConditionalFlowLabeled benchmarks scenario-pinned generation on the same
// synthesizer, measuring the cost of the pinned one-hot conditioning path
// (label stamping plus fixed conditioning vector) against the mixture.
func ConditionalFlowLabeled() func(b *testing.B) {
	return func(b *testing.B) {
		syn := conditionalFlowSynthesizer(b)
		label := syn.LabelCatalog()[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := syn.GenerateLabeled(FlowGenSize, label); err != nil {
				b.Fatal(err)
			}
		}
	}
}
