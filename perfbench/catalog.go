package main

// The metric catalog. BENCHMARK.json lists the same names, units and
// directions (a test keeps the two in step). Every workload emits every
// end-to-end metric; what each one measures on each workload is in
// e2eMeaning and README.md.

type metricDef struct {
	Name   string
	Unit   string
	Better string
	// Bound is the share by which an end-to-end metric may worsen
	// before a change counts as a regression (0 for per-layer metrics).
	Bound float64
	// Moves names, for a per-layer metric, the end-to-end metrics and
	// workload it should move.
	Moves string
}

var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "rss_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "main_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "main_p90_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "items_per_s", Unit: "1/s", Better: "higher", Bound: 0.25},
}

// e2eMeaning says what each end-to-end metric measures on each workload,
// in workloadOrder; the report prints it beside the value.
var e2eMeaning = map[string][3]string{
	"setup_s":       {"median of the set-ups: train the conditional model, store it, start the server, warm both paths", "median of the set-ups: build the input CSV, open the registry, start the server", "median of the set-ups: build the 1M-packet capture"},
	"rss_peak_mb":   {"peak resident memory of the process", "peak resident memory of the process", "peak resident memory of the process"},
	"main_p50_ms":   {"gen_exact_p50_ms: exact-path generate, request to last byte", "job_s in ms: submit to done", "query_p50_ms: windowed query"},
	"main_p90_ms":   {"gen_p90_ms: every generate request", "p90 of submit to done", "query_p90_ms: windowed query"},
	"cpu_ms_per_op": {"gen_cpu_ms: process CPU per generate request", "job_cpu_s in ms: process CPU from submit to done", "process CPU per windowed query"},
	"items_per_s":   {"gen_rps × count: synthetic records served per second", "records delivered per second of the user's wait (job plus downloads)", "ingest_pkts_per_s: packets ÷ (ingest + flush + store commit)"},
}

var perLayer = []metricDef{
	// Exact generate path on serve.
	{Name: "webapi.exact.handler_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on serve"},
	{Name: "registry.model_read_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on serve"},
	{Name: "registry.loads_per_req", Unit: "count", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on serve"},
	{Name: "core.load_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on serve"},
	{Name: "core.generate_exact_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on serve"},
	// Fast generate path on serve.
	{Name: "webapi.fast.handler_ms", Unit: "ms", Better: "lower", Moves: "main_p90_ms, items_per_s on serve"},
	{Name: "webapi.fast.coalesce", Unit: "count", Better: "higher", Moves: "main_p90_ms, items_per_s on serve"},
	{Name: "webapi.fast.cache_hit", Unit: "ratio", Better: "higher", Moves: "main_p90_ms, items_per_s on serve"},
	{Name: "core.generate_fast_ms", Unit: "ms", Better: "lower", Moves: "main_p90_ms, items_per_s on serve"},
	// Decode and encode work on serve.
	{Name: "core.decode.cache_hit", Unit: "ratio", Better: "higher", Moves: "cpu_ms_per_op on serve, main_p50_ms on job"},
	{Name: "dgan.steps_saved_ratio", Unit: "ratio", Better: "higher", Moves: "cpu_ms_per_op on serve, main_p50_ms on job"},
	{Name: "ip2vec.queries_per_record", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op on serve, main_p50_ms on job"},
	{Name: "trace.csv_encode_ms", Unit: "ms", Better: "lower", Moves: "cpu_ms_per_op on serve"},
	// Training on job.
	{Name: "trace.csv_parse_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on job"},
	{Name: "core.train_prep_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on job"},
	{Name: "orchestrator.seed_chunk_s", Unit: "s", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on job"},
	{Name: "orchestrator.finetune_s", Unit: "s", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on job"},
	{Name: "orchestrator.retries", Unit: "count", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on job"},
	{Name: "dgan.train.steps", Unit: "count", Better: "lower", Moves: "main_p50_ms, cpu_ms_per_op on job"},
	// Bulk generation, persistence and download on job.
	{Name: "core.generate_bulk_s", Unit: "s", Better: "lower", Moves: "main_p50_ms, items_per_s on job"},
	{Name: "registry.put_model_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, items_per_s on job"},
	{Name: "store.write_s", Unit: "s", Better: "lower", Moves: "main_p50_ms, items_per_s on job"},
	{Name: "registry.commit_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms on job, items_per_s on capture"},
	{Name: "store.scan_ms", Unit: "ms", Better: "lower", Moves: "items_per_s on job"},
	{Name: "trace.ipfix_encode_ms", Unit: "ms", Better: "lower", Moves: "items_per_s on job"},
	{Name: "webapi.download_ms", Unit: "ms", Better: "lower", Moves: "items_per_s on job"},
	// Ingest on capture.
	{Name: "trace.pcap_read_s", Unit: "s", Better: "lower", Moves: "items_per_s on capture"},
	{Name: "ingest.assemble_s", Unit: "s", Better: "lower", Moves: "items_per_s on capture"},
	{Name: "ingest.evicted_ratio", Unit: "ratio", Better: "lower", Moves: "items_per_s on capture"},
	{Name: "store.packet_write_s", Unit: "s", Better: "lower", Moves: "items_per_s on capture"},
	// Queries on capture.
	{Name: "registry.open_store_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, main_p90_ms on capture"},
	{Name: "webapi.query.handler_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, main_p90_ms on capture"},
	{Name: "store.window_query_ms", Unit: "ms", Better: "lower", Moves: "main_p50_ms, main_p90_ms on capture"},
	{Name: "store.prune_ratio", Unit: "ratio", Better: "higher", Moves: "main_p50_ms, main_p90_ms on capture"},
	{Name: "store.bytes_per_query", Unit: "bytes", Better: "lower", Moves: "main_p50_ms, main_p90_ms, cpu_ms_per_op on capture"},
	{Name: "store.scan_query_ms", Unit: "ms", Better: "lower", Moves: "no gated metric: the scan_s detail on capture"},
	// Each layer's self time as a share of the replayed operations' time.
	{Name: "registry.self_pct", Unit: "%", Better: "lower", Moves: "main_p50_ms on serve and capture"},
	{Name: "core.self_pct", Unit: "%", Better: "lower", Moves: "main_p50_ms on serve and job"},
	{Name: "orchestrator.self_pct", Unit: "%", Better: "lower", Moves: "main_p50_ms on job"},
	{Name: "trace.self_pct", Unit: "%", Better: "lower", Moves: "cpu_ms_per_op on serve, items_per_s on job and capture"},
	{Name: "ingest.self_pct", Unit: "%", Better: "lower", Moves: "items_per_s on capture"},
	{Name: "store.self_pct", Unit: "%", Better: "lower", Moves: "main_p50_ms on capture, items_per_s on job"},
	// What recording spans costs.
	{Name: "trace_overhead_pct", Unit: "%", Better: "lower", Moves: "no end-to-end metric (it is traced minus untraced main_p50_ms, as a share of untraced)"},
}

// selfLayers are the layers whose self time in the replay is a
// per-layer metric. webapi is timed only as whole handlers; dgan, nn,
// mat and ip2vec run inside core calls and are seen only through core
// spans and their counters.
var selfLayers = []string{"registry", "core", "orchestrator", "trace", "ingest", "store"}
