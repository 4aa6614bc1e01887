GO ?= go
FUZZTIME ?= 5s

.PHONY: all build perfbench-build fmt-check vet cross-build test test-race test-crash test-telemetry test-conformance test-conditional test-ingest test-store test-cluster fuzz bench bench-parallel bench-generate bench-store bench-conditional staticcheck govulncheck ci clean

all: build

build:
	$(GO) build ./...

# The benchmark harness is its own module (perfbench/go.mod), so
# `go build ./...` skips it; vet and build it against this tree through
# its replace directive (no network needed), so an API change that breaks
# `bash perfbench/run.sh` fails here.
perfbench-build:
	cd perfbench && $(GO) vet . && $(GO) build -o /dev/null .

# gofmt gate: fails when any Go file is not gofmt-formatted
# (`gofmt -l .` lists them).
fmt-check:
	test -z "$$(gofmt -l .)"

vet:
	$(GO) vet ./...

# The amd64 assembly kernels (internal/mat/kernels_amd64.s) have a pure-Go
# fallback behind a !amd64 build tag; vet and build it for arm64 so the
# fallback keeps compiling. Cross-compiling needs no network.
cross-build:
	GOARCH=arm64 $(GO) vet ./... && GOARCH=arm64 $(GO) build ./...

test:
	$(GO) test ./...

# Race-detector pass over the packages with parallel kernels, the
# fault-tolerant training fan-out, and the lot-parallel generation
# pipeline: the matmul worker pool, the per-sample DP-SGD fan-out, the
# chunked fine-tune fan-out, the checkpoint/resume orchestrator, the
# generation scratch pool, the durable model registry (DESIGN.md §6–8,
# §10), and the serving paths — the per-model entry cache whose one
# decoded synthesizer serves concurrent fresh-stream float64 generates,
# the cross-request batch scheduler, and the lot-parallel float32 sampler
# (DESIGN.md §10–11) — plus the columnar trace store and
# the webapi artifact cache layered on it (DESIGN.md §13) and the
# distributed chunk queue with its worker-kill golden test (DESIGN.md §14).
# internal/trace covers the template-based egress encoders (NetFlow v9,
# IPFIX) alongside the legacy formats.
test-race:
	$(GO) test -race ./internal/mat/... ./internal/dgan/... ./internal/core/... \
		./internal/orchestrator/... ./internal/privacy/... ./internal/ip2vec/... \
		./internal/container/... ./internal/registry/... ./internal/webapi/... \
		./internal/conformance/... ./internal/ingest/... ./internal/trace/... \
		./internal/store/... ./internal/cluster/...

# Crash/fault matrix: the checkpoint/resume/retry tests that simulate
# process death, torn writes, and exhausted retry budgets (DESIGN.md §7).
test-crash:
	$(GO) test ./internal/orchestrator/... -run 'Crash|Fault|Resume|Torn|Partial|Exhaust'
	$(GO) test ./internal/core -run 'Resume|Fault|Exhausted|DPRetry'

# Telemetry subsystem (DESIGN.md §9): race pass over the registry and the
# web API that serves it, the zero-allocation hot-path proof, and the
# strictly-observational contract — training and generation are
# bit-identical with recording on and off.
test-telemetry:
	$(GO) test -race ./internal/telemetry/... ./internal/webapi/...
	$(GO) test ./internal/telemetry -run TestHotPathZeroAllocs
	$(GO) test ./internal/core -run 'TestTelemetryStrictlyObservational|TestFlowGenerateGolden'

# Live-ingestion subsystem (DESIGN.md §12): the streaming pcap reader's
# golden round-trip and framing-variant fixtures, the flow table's
# property tests (hard memory bounds, packet conservation, deterministic
# eviction incl. the 1M-packet capture), and the watcher/webapi wiring.
test-ingest:
	$(GO) test ./internal/ingest/... ./internal/trace/...
	$(GO) test ./internal/webapi -run TestIngestEndpoint

# Short fuzz pass over every fuzz target (trace parsers, flow assembly,
# and checkpoint/manifest loaders). Each target needs its own
# invocation: `go test -fuzz` accepts exactly one target per run.
fuzz:
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadPCAP -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadNetFlowV5 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadFlowCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadPacketCSV -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzParseIPv4 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadNetFlowV9 -fuzztime $(FUZZTIME)
	$(GO) test ./internal/trace -run '^$$' -fuzz FuzzReadIPFIX -fuzztime $(FUZZTIME)
	$(GO) test ./internal/ingest -run '^$$' -fuzz FuzzFlowAssemble -fuzztime $(FUZZTIME)
	$(GO) test ./internal/orchestrator -run '^$$' -fuzz FuzzLoadCheckpoint -fuzztime $(FUZZTIME)
	$(GO) test ./internal/orchestrator -run '^$$' -fuzz FuzzLoadManifest -fuzztime $(FUZZTIME)
	$(GO) test ./internal/container -run '^$$' -fuzz FuzzDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/dgan -run '^$$' -fuzz FuzzDecodeInferWeights -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzBlockDecode -fuzztime $(FUZZTIME)
	$(GO) test ./internal/store -run '^$$' -fuzz FuzzQueryFilter -fuzztime $(FUZZTIME)
	$(GO) test ./internal/cluster -run '^$$' -fuzz FuzzParseLease -fuzztime $(FUZZTIME)

# Distributed training subsystem (DESIGN.md §14): the durable chunk
# queue's lease/reclaim/retry matrix, the plan API's
# distributed-equals-standalone golden tests, the worker-crash
# bitwise-recovery test, the cluster web API routing, and the watch-loop
# regression tests the cluster's rotating-capture deployments rely on.
test-cluster:
	$(GO) test ./internal/cluster/...
	$(GO) test ./internal/core -run 'Plan'
	$(GO) test ./internal/webapi -run 'Cluster'
	$(GO) test ./internal/ingest -run 'TestWatch'

# Distributional conformance gate for the serving fast path (DESIGN.md
# §11): per-field JSD/EMD of fast-path output vs the float64 reference
# path under calibrated thresholds, plus trace validity properties.
test-conformance:
	$(GO) test ./internal/conformance/...

# Conditional labeled generation (DESIGN.md §15): one-hot scenario
# conditioning through the dgan trainer and both samplers, the flow
# synthesizer's labeled API, the per-label scenario-matrix fidelity
# harness, and the webapi label plumbing — labeled generate on both
# serving paths, label-validation 400s, the sweep-vs-in-flight-batch
# regression, and the NetFlow v9/IPFIX egress round-trips.
test-conditional:
	$(GO) test ./internal/dgan -run 'Conditional|UnconditionalGenerateLabeled'
	$(GO) test ./internal/core -run 'Conditional|UnconditionalGenerateLabeled'
	$(GO) test ./internal/conformance -run 'ScenarioMatrix'
	$(GO) test ./internal/webapi -run 'TestConditionalGenerateEndToEnd|TestGenerateLabelValidation|TestSweepFailsOrFinishesFastRequests|TestStoreDownloadNetFlowV9AndIPFIX'

# Columnar trace store (DESIGN.md §13): the block/column codecs, the
# golden CSV round-trip, the corruption matrix, time-partition pruning,
# and the query layer, plus the registry/webapi/ingest integrations.
test-store:
	$(GO) test ./internal/store/...
	$(GO) test ./internal/registry -run 'Store|Sweep'
	$(GO) test ./internal/webapi -run 'TraceQuery|ColumnarStore|EncodedDownload|ArtifactLRU|QueryWithout'
	$(GO) test ./internal/ingest -run TestWriteStore

# Full paper-evaluation benchmark suite (slow).
bench:
	$(GO) test -bench=. -benchmem

# Serial-vs-parallel kernel timings, recorded to BENCH_parallel.json.
bench-parallel:
	$(GO) run ./cmd/benchpar -out BENCH_parallel.json

# Generation-pipeline timings (float64-vs-float32 sampler, scan-vs-batched
# decode, end-to-end flow generation), recorded to BENCH_generate.json.
bench-generate:
	$(GO) run ./cmd/benchpar -suite generate -out BENCH_generate.json

# Columnar-store size and query timings vs the flat-CSV baseline,
# recorded to BENCH_store.json.
bench-store:
	$(GO) run ./cmd/benchpar -suite store -out BENCH_store.json

# Labeled-vs-unlabeled generate overhead. The flow_generate_labeled_2000
# comparison lives in the generate suite so the number lands in
# BENCH_generate.json next to the rest of the pipeline timings.
bench-conditional:
	$(GO) run ./cmd/benchpar -suite generate -out BENCH_generate.json

# Static analysis and vulnerability scanning. Both tools are optional:
# the targets run them when installed and skip with a notice otherwise,
# so `make ci` works on minimal containers without network access.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go install honnef.co/go/tools/cmd/staticcheck@latest)"; \
	fi

govulncheck:
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./...; \
	else \
		echo "govulncheck not installed; skipping (go install golang.org/x/vuln/cmd/govulncheck@latest)"; \
	fi

ci: fmt-check vet cross-build staticcheck govulncheck build perfbench-build test test-race test-crash test-telemetry test-conformance test-conditional test-ingest test-store test-cluster fuzz bench-generate

clean:
	$(GO) clean ./...
