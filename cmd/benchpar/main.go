// Command benchpar runs the benchmark workloads from internal/benchpar
// and records the results as JSON, including the machine's CPU count so
// readers can judge the speedups in context (on a 1-CPU runner serial and
// parallel are expected to tie).
//
// Three suites are available:
//
//   - parallel (default): training kernels at serial vs all-CPU worker
//     counts, written to BENCH_parallel.json
//   - generate: the generation pipeline — old-vs-new dgan sampler,
//     scan-vs-batched embedding decode, and the end-to-end flow
//     synthesizer — written to BENCH_generate.json
//   - store: the columnar trace store vs the flat CSV payload — on-disk
//     size and filtered-query/full-decode timings — written to
//     BENCH_store.json
//
// Usage:
//
//	benchpar -out BENCH_parallel.json
//	benchpar -suite generate -out BENCH_generate.json
//	benchpar -suite store -out BENCH_store.json
package main

import (
	"encoding/json"
	"flag"
	"log"
	"os"
	"runtime"
	"sort"
	"testing"
	"time"

	"repro/internal/benchpar"
	"repro/internal/telemetry"
)

type result struct {
	NsPerOp     int64   `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	Iterations  int     `json:"iterations"`
	MFlops      float64 `json:"mflops,omitempty"`
}

type pair struct {
	Serial   result  `json:"serial"`
	Parallel result  `json:"parallel"`
	Speedup  float64 `json:"speedup"`
}

// comparison records a baseline implementation against its optimized
// replacement on the same machine and inputs.
type comparison struct {
	Baseline  result  `json:"baseline"`
	Optimized result  `json:"optimized"`
	Speedup   float64 `json:"speedup"`
	AllocCut  float64 `json:"alloc_cut"` // baseline allocs/op ÷ optimized allocs/op
}

// telemetryOverhead records the cost of telemetry recording on the
// generation hot path: the same workload with the registry enabled vs
// disabled. OverheadPct is (enabled − disabled) / disabled × 100; the
// budget is ≤2%.
type telemetryOverhead struct {
	Enabled     result  `json:"enabled"`
	Disabled    result  `json:"disabled"`
	OverheadPct float64 `json:"overhead_pct"`
}

// sizeComparison records one payload stored two ways.
type sizeComparison struct {
	Rows          int64   `json:"rows"`
	BaselineBytes int64   `json:"baseline_bytes"`
	StoreBytes    int64   `json:"store_bytes"`
	Reduction     float64 `json:"reduction"` // baseline ÷ store
}

type report struct {
	CPUs        int                       `json:"cpus"`
	GoMaxProcs  int                       `json:"gomaxprocs"`
	GoVersion   string                    `json:"go_version"`
	Note        string                    `json:"note"`
	Benchmarks  map[string]pair           `json:"benchmarks,omitempty"`
	Comparisons map[string]comparison     `json:"comparisons,omitempty"`
	Sizes       map[string]sizeComparison `json:"sizes,omitempty"`
	Telemetry   *telemetryOverhead        `json:"telemetry,omitempty"`
}

// bench runs work several times and keeps the fastest rep: the minimum
// ns/op is the best estimate of a workload's intrinsic cost on a shared
// runner, where slower reps carry scheduler and GC interference.
func bench(work func(*testing.B)) result {
	const reps = 3
	var best result
	for i := 0; i < reps; i++ {
		r := testing.Benchmark(work)
		got := result{
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
			Iterations:  r.N,
		}
		if i == 0 || got.NsPerOp < best.NsPerOp {
			best = got
		}
	}
	return best
}

func run(name string, work func(int) func(*testing.B), flops float64) pair {
	measure := func(workers int) result {
		out := bench(work(workers))
		if flops > 0 && out.NsPerOp > 0 {
			// flops per op / (ns per op) = GFLOPS; ×1e3 → MFLOPS.
			out.MFlops = flops / float64(out.NsPerOp) * 1e3
		}
		return out
	}
	log.Printf("%s: serial...", name)
	s := measure(1)
	var p result
	if runtime.NumCPU() > 1 {
		log.Printf("%s: parallel (%d workers)...", name, runtime.NumCPU())
		p = measure(runtime.NumCPU())
	} else {
		// One CPU: the "parallel" setting is the same configuration, so
		// re-measuring would only record scheduler noise.
		p = s
	}
	sp := 0.0
	if p.NsPerOp > 0 {
		sp = float64(s.NsPerOp) / float64(p.NsPerOp)
	}
	log.Printf("%s: serial %d ns/op, parallel %d ns/op, speedup %.2fx, allocs %d -> %d",
		name, s.NsPerOp, p.NsPerOp, sp, s.AllocsPerOp, p.AllocsPerOp)
	return pair{Serial: s, Parallel: p, Speedup: sp}
}

// compare measures a baseline workload against its optimized replacement.
func compare(name string, baseline, optimized func(*testing.B)) comparison {
	measure := func(label string, work func(*testing.B)) result {
		log.Printf("%s: %s...", name, label)
		return bench(work)
	}
	b := measure("baseline", baseline)
	o := measure("optimized", optimized)
	c := comparison{Baseline: b, Optimized: o}
	if o.NsPerOp > 0 {
		c.Speedup = float64(b.NsPerOp) / float64(o.NsPerOp)
	}
	if o.AllocsPerOp > 0 {
		c.AllocCut = float64(b.AllocsPerOp) / float64(o.AllocsPerOp)
	}
	log.Printf("%s: baseline %d ns/op (%d allocs), optimized %d ns/op (%d allocs), speedup %.2fx",
		name, b.NsPerOp, b.AllocsPerOp, o.NsPerOp, o.AllocsPerOp, c.Speedup)
	return c
}

func parallelReport() report {
	n := float64(benchpar.MatMulSize)
	return report{
		Note: "serial vs parallel timings of the same deterministic kernels; " +
			"speedups scale with cpus (expect ~1.0 on a 1-CPU runner)",
		Benchmarks: map[string]pair{
			"matmul_96":      run("matmul_96", benchpar.MatMul, 2*n*n*n),
			"critic_step":    run("critic_step", benchpar.CriticStep, 0),
			"dp_critic_step": run("dp_critic_step", benchpar.DPCriticStep, 0),
		},
	}
}

// measureTelemetry times the serial dgan generation workload with the
// global registry off vs on, restoring the prior setting. The workload's
// RNG draws and control flow are identical either way (telemetry is
// strictly observational), so the delta is pure recording cost — a few
// atomics per generated lot. That delta is orders of magnitude below
// shared-runner drift (thermal throttling, co-tenants swing whole
// testing.Benchmark blocks by ±15%), so block-level timing cannot
// resolve it. Instead single ops are timed with recording toggled every
// iteration: adjacent ~10ms ops see identical machine conditions, and
// the per-side medians are immune to the odd GC pause or scheduler
// stall landing on one op.
func measureTelemetry() *telemetryOverhead {
	op, err := benchpar.GenerateOp(1)
	if err != nil {
		log.Fatal(err)
	}
	prev := telemetry.Default.Enabled()
	defer telemetry.Default.SetEnabled(prev)

	for i := 0; i < 8; i++ {
		op() // warm caches and the scratch pool before timing
	}

	const pairs = 200
	log.Printf("telemetry_overhead: %d interleaved op pairs...", pairs)
	onNs := make([]int64, 0, pairs)
	offNs := make([]int64, 0, pairs)
	for i := 0; i < pairs; i++ {
		order := [2]bool{false, true}
		if i%2 == 1 {
			order[0], order[1] = true, false
		}
		for _, enabled := range order {
			telemetry.Default.SetEnabled(enabled)
			t0 := time.Now()
			op()
			d := time.Since(t0).Nanoseconds()
			if enabled {
				onNs = append(onNs, d)
			} else {
				offNs = append(offNs, d)
			}
		}
	}
	med := func(xs []int64) int64 {
		sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
		return xs[len(xs)/2]
	}
	on := result{NsPerOp: med(onNs), Iterations: pairs}
	off := result{NsPerOp: med(offNs), Iterations: pairs}

	o := &telemetryOverhead{Enabled: on, Disabled: off}
	if off.NsPerOp > 0 {
		o.OverheadPct = (float64(on.NsPerOp) - float64(off.NsPerOp)) / float64(off.NsPerOp) * 100
	}
	log.Printf("telemetry_overhead: disabled %d ns/op, enabled %d ns/op (medians), overhead %.2f%%",
		off.NsPerOp, on.NsPerOp, o.OverheadPct)
	return o
}

func generateReport() report {
	return report{
		Note: "generation pipeline: baseline-vs-optimized comparisons are " +
			"algorithmic (batched matmul decode, float32 fused inference) and " +
			"hold at any cpu count; the " +
			"serial-vs-parallel pairs scale with cpus (expect ~1.0 on a 1-CPU " +
			"runner). Float64 entries are bitwise-identical at every " +
			"parallelism setting; the _fast entries are the float32 serving " +
			"snapshot — reproducible per seed but pinned distributionally " +
			"(internal/conformance), not bitwise. flow_generate_labeled_2000 " +
			"records labeled-vs-unlabeled generate overhead on a " +
			"conditioning-enabled synthesizer (baseline = trained mixture, " +
			"optimized = scenario-pinned); a Speedup near 1.0 means the " +
			"conditioning vector adds negligible per-record cost.",
		Comparisons: map[string]comparison{
			"ip2vec_decode_256": compare("ip2vec_decode_256",
				benchpar.DecodeScan(), benchpar.DecodeBatched()),
			// Serving fast path vs the float64 reference sampler on
			// identical weights; the acceptance floor is 2x serial.
			"dgan_generate_256_fast": compare("dgan_generate_256_fast",
				benchpar.Generate(1), benchpar.GenerateFast(1)),
			// Labeled-vs-unlabeled generate overhead on one conditional
			// model: pinning a scenario label should cost roughly nothing
			// relative to sampling the trained mixture.
			"flow_generate_labeled_2000": compare("flow_generate_labeled_2000",
				benchpar.ConditionalFlowMixture(), benchpar.ConditionalFlowLabeled()),
		},
		Benchmarks: map[string]pair{
			"dgan_generate_256":      run("dgan_generate_256", benchpar.Generate, 0),
			"dgan_generate_256_fast": run("dgan_generate_256_fast", benchpar.GenerateFast, 0),
			"flow_generate_2000":     run("flow_generate_2000", benchpar.FlowGenerate, 0),
		},
		Telemetry: measureTelemetry(),
	}
}

// storeReport measures the columnar trace store (DESIGN.md §13) against
// the flat-CSV payload it replaces: on-disk size, the filtered-query
// path (full parse + scan vs predicate pushdown), and the full decode.
func storeReport() report {
	sb, err := benchpar.NewStoreBench(benchpar.StoreRows)
	if err != nil {
		log.Fatal(err)
	}
	defer sb.Close()
	storeBytes, err := sb.StoreSize()
	if err != nil {
		log.Fatal(err)
	}
	size := sizeComparison{
		Rows:          sb.Rows(),
		BaselineBytes: sb.CSVSize(),
		StoreBytes:    storeBytes,
	}
	if storeBytes > 0 {
		size.Reduction = float64(size.BaselineBytes) / float64(storeBytes)
	}
	log.Printf("flow_trace_%d: csv %d bytes, store %d bytes, %.2fx smaller (%d rows match the benchmark filter)",
		sb.Rows(), size.BaselineBytes, size.StoreBytes, size.Reduction, sb.Matched())
	return report{
		Note: "columnar trace store vs flat CSV payload on the same " +
			"synthetic flow trace; the filtered query is a dst_port " +
			"predicate inside a ~5% time window, so the store prunes " +
			"partitions and decodes two columns while the baseline parses " +
			"everything. Ratios are size- and algorithm-bound and hold at " +
			"any cpu count.",
		Sizes: map[string]sizeComparison{
			"flow_trace_100k": size,
		},
		Comparisons: map[string]comparison{
			"filtered_query_100k": compare("filtered_query_100k",
				sb.BaselineFilteredScan(), sb.StoreFilteredQuery()),
			"full_decode_100k": compare("full_decode_100k",
				sb.BaselineFullDecode(), sb.StoreFullDecode()),
		},
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchpar: ")
	suite := flag.String("suite", "parallel", "benchmark suite: parallel, generate, or store")
	out := flag.String("out", "", "output JSON path (default BENCH_<suite>.json)")
	flag.Parse()

	var rep report
	switch *suite {
	case "parallel":
		rep = parallelReport()
	case "generate":
		rep = generateReport()
	case "store":
		rep = storeReport()
	default:
		log.Fatalf("unknown -suite %q (want parallel, generate, or store)", *suite)
	}
	rep.CPUs = runtime.NumCPU()
	rep.GoMaxProcs = runtime.GOMAXPROCS(0)
	rep.GoVersion = runtime.Version()
	path := *out
	if path == "" {
		path = "BENCH_" + *suite + ".json"
	}

	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("wrote %s", path)
}
