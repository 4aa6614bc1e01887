// Generation-pipeline benchmarks: the lot-parallel dgan sampler and its
// float32 snapshot, the batched embedding decode against the linear scan,
// and the end-to-end flow synthesizer. The workloads live in
// internal/benchpar so cmd/benchpar can record the same numbers into
// BENCH_generate.json. Run with
//
//	go test -bench=Generate -benchmem
package repro

import (
	"runtime"
	"testing"

	"repro/internal/benchpar"
)

// BenchmarkGenerateDGAN times the lot-parallel sampler serially and with
// all CPUs; output is bitwise-identical at both settings.
func BenchmarkGenerateDGAN(b *testing.B) {
	serialAndParallel(b, benchpar.Generate)
}

// BenchmarkGenerateDGANFast times the float32 inference snapshot (the
// serving fast path) on the same weights and sample count; unlike the
// float64 pairs its output is distributionally pinned, not bitwise.
func BenchmarkGenerateDGANFast(b *testing.B) {
	serialAndParallel(b, benchpar.GenerateFast)
}

// BenchmarkGenerateDecode times 256 nearest-word lookups via the original
// per-row scan and via the single-matmul batch path.
func BenchmarkGenerateDecode(b *testing.B) {
	b.Run("scan", benchpar.DecodeScan())
	b.Run("batched", benchpar.DecodeBatched())
}

// BenchmarkGenerateFlow times the full synthesizer pipeline (chunk
// fan-out, sampling, batched tuple decode, assembly) end to end.
func BenchmarkGenerateFlow(b *testing.B) {
	b.Run("serial", benchpar.FlowGenerate(1))
	b.Run("parallel", benchpar.FlowGenerate(runtime.NumCPU()))
}
