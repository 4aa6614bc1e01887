// Package webapi implements the web-service prototype of the paper's §5
// (the authors host theirs at pcapshare.com): an HTTP API through which a
// data holder submits a trace (or selects a built-in dataset), trains
// NetShare asynchronously, and downloads the synthetic trace in CSV,
// libpcap, or NetFlow v5 format.
//
//	POST /api/v1/jobs              submit a training job
//	GET  /api/v1/jobs              list jobs
//	GET  /api/v1/jobs/{id}         job status
//	GET  /api/v1/jobs/{id}/trace   download the synthetic trace
//	GET  /api/v1/traces/{id}/query query a store-backed trace in place
//	GET  /api/v1/datasets          list built-in datasets
//	GET  /api/v1/models            list durably stored models
//	POST /api/v1/models/{name}/generate  generate from a stored model
//	GET  /api/v1/ingest            live-ingestion stats (when attached)
//	GET  /api/v1/cluster           cluster queue status (when attached)
//	POST /api/v1/cluster/workers/{id}  worker heartbeat (when attached)
//	GET  /healthz                  liveness
//
// With a registry attached (UseRegistry), trained models and terminal
// jobs survive restarts: a rebooted server recovers them and serves
// generation output bitwise-identical to the pre-restart process.
package webapi

import (
	"bytes"
	"container/list"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/ingest"
	"repro/internal/orchestrator"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Pre-registered telemetry handles (DESIGN.md §9).
var (
	telJobsSubmitted = telemetry.Default.Counter("webapi.jobs.submitted")
	telJobsDone      = telemetry.Default.Counter("webapi.jobs.done")
	telJobsFailed    = telemetry.Default.Counter("webapi.jobs.failed")
	telJobDuration   = telemetry.Default.Timer("webapi.job.duration")
)

// JobRequest is the POST /api/v1/jobs body.
type JobRequest struct {
	// Kind is "netflow" or "pcap".
	Kind string `json:"kind"`
	// Dataset selects a built-in dataset; CSV supplies an inline trace in
	// the package trace CSV schema instead. Exactly one must be set.
	Dataset string `json:"dataset,omitempty"`
	CSV     string `json:"csv,omitempty"`
	// Records sizes the built-in dataset.
	Records int `json:"records,omitempty"`
	// Generate is the synthetic record/packet count to produce.
	Generate int `json:"generate,omitempty"`

	// Config overrides (zero values keep defaults).
	Chunks        int   `json:"chunks,omitempty"`
	SeedSteps     int   `json:"seedSteps,omitempty"`
	FineTuneSteps int   `json:"fineTuneSteps,omitempty"`
	MaxLen        int   `json:"maxLen,omitempty"`
	Seed          int64 `json:"seed,omitempty"`
	// Parallelism is the training/generation worker count (0 = all CPUs,
	// 1 = serial). Results are bitwise identical at every setting; the knob
	// only trades wall-clock time against CPU use.
	Parallelism int `json:"parallelism,omitempty"`

	// MaxRetries is the per-chunk retry budget; past it a fine-tune chunk
	// degrades to the warm-started seed weights (reported per chunk in
	// JobStatus.Chunks). For cluster jobs it is instead the durable
	// re-lease budget per chunk; exhausting it fails the job.
	MaxRetries int `json:"maxRetries,omitempty"`

	// Cluster routes the job through the attached distributed chunk queue
	// (AttachCluster) instead of training in-process. Requires at least
	// one worker draining the queue; results are bitwise identical to a
	// local run.
	Cluster bool `json:"cluster,omitempty"`

	// DP enables differentially private training.
	DP *DPRequest `json:"dp,omitempty"`
}

// DPRequest configures DP-SGD for a job.
type DPRequest struct {
	NoiseMultiplier float64 `json:"noiseMultiplier"`
	Pretrain        bool    `json:"pretrain"`
}

// JobState enumerates a job's lifecycle.
type JobState string

// Job lifecycle states.
const (
	StatePending JobState = "pending"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
)

// ChunkInfo is one chunk's live training status within a job.
type ChunkInfo struct {
	// State is pending, training, retrying, done, resumed, or degraded.
	State string `json:"state"`
	// Attempts counts training attempts consumed so far.
	Attempts int `json:"attempts,omitempty"`
}

// Per-chunk states surfaced in ChunkInfo.
const (
	ChunkPending  = "pending"
	ChunkTraining = "training"
	ChunkRetrying = "retrying"
	ChunkDone     = "done"
	ChunkResumed  = "resumed"
	ChunkDegraded = "degraded"
)

// JobMetrics carries a finished job's training telemetry in status
// responses: the final per-chunk losses (full per-step curves are exposed
// process-wide at GET /metrics). Values come from core.Stats, so they are
// deterministic and race-free even with concurrent jobs.
type JobMetrics struct {
	ChunkCriticLoss []float64 `json:"chunkCriticLoss,omitempty"`
	ChunkGenLoss    []float64 `json:"chunkGenLoss,omitempty"`
}

// JobStatus is the GET /api/v1/jobs/{id} response.
type JobStatus struct {
	ID        string   `json:"id"`
	Kind      string   `json:"kind"`
	State     JobState `json:"state"`
	Error     string   `json:"error,omitempty"`
	Submitted string   `json:"submitted"`
	// Chunks is the per-chunk training status, live while the job runs.
	Chunks []ChunkInfo `json:"chunks,omitempty"`
	// Training stats, present once done.
	CPUMillis  int64   `json:"cpuMillis,omitempty"`
	WallMillis int64   `json:"wallMillis,omitempty"`
	Epsilon    float64 `json:"epsilon,omitempty"`
	Records    int     `json:"records,omitempty"`
	// GenMillis is the wall-clock time of the generation phase.
	GenMillis int64 `json:"genMillis,omitempty"`
	// Metrics holds per-job training telemetry, present once done.
	Metrics *JobMetrics `json:"metrics,omitempty"`
}

// clone deep-copies the status so handlers can serialize it outside the
// server lock. The Chunks slice (and Metrics) must not be shared: the
// orchestrator's event goroutines mutate the live elements concurrently.
func (st JobStatus) clone() JobStatus {
	out := st
	out.Chunks = append([]ChunkInfo(nil), st.Chunks...)
	if st.Metrics != nil {
		m := JobMetrics{
			ChunkCriticLoss: append([]float64(nil), st.Metrics.ChunkCriticLoss...),
			ChunkGenLoss:    append([]float64(nil), st.Metrics.ChunkGenLoss...),
		}
		out.Metrics = &m
	}
	return out
}

// job is the server-side job record.
type job struct {
	status JobStatus
	// The finished trace, kept until the registry commits the job's
	// store (for the life of the job on a memory-only server).
	flow   *trace.FlowTrace   // result for netflow jobs
	packet *trace.PacketTrace // result for pcap jobs
}

// Server is the HTTP API. Create with NewServer and mount via Handler.
type Server struct {
	// Debug mounts /debug/pprof/ on the handler. Set before calling
	// Handler; the profiling endpoints expose internals and should stay
	// off on anything public-facing.
	Debug bool

	mu     sync.Mutex
	jobs   map[string]*job
	nextID int

	// publicPackets sizes the public embedding corpus.
	publicPackets int
	// maxInflight bounds concurrently running jobs (the prototype runs on
	// one box; excess submissions queue as pending until a slot frees).
	sem chan struct{}
	// done is closed-by-signal bookkeeping for tests: every finished job
	// sends on it when the server was built with notifications.
	notify chan string

	// runHook, when non-nil, runs at the start of every job body — the
	// test seam for the panic-containment tests.
	runHook func(id string)

	// reg is the durable model/job registry; nil means memory-only
	// operation. Attach with UseRegistry before serving traffic.
	reg *registry.Registry

	// FastCacheCap bounds the LRU of decoded model entries both generate
	// paths serve from (fastserve.go); 0 selects the default. Set before
	// serving traffic.
	FastCacheCap int
	fastMu       sync.Mutex
	fastCache    map[string]*list.Element
	fastLRU      *list.List

	// ArtifactCacheBytes bounds the encoded-download LRU (tracestore.go):
	// pcap/netflow5 re-encodes of store-backed traces are cached up to
	// this many payload bytes. 0 selects the default; negative disables.
	ArtifactCacheBytes int64
	artMu              sync.Mutex
	artCache           map[string]*list.Element
	artLRU             *list.List
	artSize            int64
	// fastHook, when non-nil, runs inside each coalesced fast batch just
	// before generation — the test seam for coalescing and panic tests.
	fastHook func(name string, batchSize int)

	// ingestSrc, when attached, backs GET /api/v1/ingest with live
	// flow-assembly statistics.
	ingestSrc IngestSource

	// clusterQ, when attached, backs the cluster endpoints and routes
	// Cluster-flagged jobs through the distributed chunk queue.
	clusterQ *cluster.Queue
}

// IngestSource is anything that can snapshot ingestion statistics —
// in practice *ingest.Assembler, kept behind an interface so the API
// layer stays decoupled from the assembler and tests can fake it.
type IngestSource interface {
	Stats() ingest.Stats
}

// AttachIngest exposes src's statistics at GET /api/v1/ingest. Safe to
// call before or while serving; pass nil to detach.
func (s *Server) AttachIngest(src IngestSource) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ingestSrc = src
}

// NewServer returns an API server allowing up to maxInflight concurrent
// training jobs.
func NewServer(maxInflight int) *Server {
	if maxInflight < 1 {
		maxInflight = 1
	}
	return &Server{
		jobs:          make(map[string]*job),
		publicPackets: 1500,
		sem:           make(chan struct{}, maxInflight),
	}
}

// Notifications returns a channel receiving each job id as it finishes
// (success or failure). Intended for tests and CLI progress display.
func (s *Server) Notifications() <-chan string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.notify == nil {
		s.notify = make(chan string, 64)
	}
	return s.notify
}

// route is one API endpoint: the ServeMux pattern, the query parameters
// the index advertises after its path, and the handler.
type route struct {
	pattern string
	query   string
	handler http.HandlerFunc
}

// routes is the single table both the mux registrations and the GET /
// index are built from, so the advertised endpoint list cannot drift from
// what the server actually serves.
func (s *Server) routes() []route {
	rs := []route{
		{"GET /{$}", "", s.handleIndex},
		{"GET /healthz", "", func(w http.ResponseWriter, r *http.Request) {
			writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
		}},
		{"GET /api/v1/datasets", "", s.handleDatasets},
		{"POST /api/v1/jobs", "", s.handleSubmit},
		{"GET /api/v1/jobs", "", s.handleList},
		{"GET /api/v1/jobs/{id}", "", s.handleStatus},
		{"GET /api/v1/jobs/{id}/trace", "?format=csv|pcap|netflow5|netflow9|ipfix", s.handleDownload},
		{"GET /api/v1/traces/{id}/query", "?from=&to=&filter=&agg=&topk=&limit=", s.handleTraceQuery},
		{"GET /api/v1/models", "", s.handleModels},
		{"POST /api/v1/models/{name}/generate", "", s.handleModelGenerate},
		{"GET /api/v1/ingest", "", s.handleIngest},
		{"GET /api/v1/cluster", "", s.handleCluster},
		{"POST /api/v1/cluster/workers/{id}", "", s.handleWorkerHeartbeat},
		{"GET /metrics", "?format=prom", s.handleMetrics},
	}
	if s.Debug {
		rs = append(rs,
			route{"/debug/pprof/", "", pprof.Index},
			route{"/debug/pprof/cmdline", "", pprof.Cmdline},
			route{"/debug/pprof/profile", "", pprof.Profile},
			route{"/debug/pprof/symbol", "", pprof.Symbol},
			route{"/debug/pprof/trace", "", pprof.Trace},
		)
	}
	return rs
}

// endpoint is the index's listing of a route: its pattern without the
// ServeMux exact-match marker, followed by its query parameters.
func (rt route) endpoint() string {
	return strings.Replace(rt.pattern, "{$}", "", 1) + rt.query
}

// Handler returns the HTTP handler for the API.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for _, rt := range s.routes() {
		mux.HandleFunc(rt.pattern, rt.handler)
	}
	return mux
}

// handleIndex serves GET /: the service description and every endpoint
// the server registers.
func (s *Server) handleIndex(w http.ResponseWriter, r *http.Request) {
	var endpoints []string
	for _, rt := range s.routes() {
		endpoints = append(endpoints, rt.endpoint())
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"service":   "netshare web prototype",
		"paper":     "Practical GAN-based Synthetic IP Header Trace Generation using NetShare (SIGCOMM 2022), section 5",
		"endpoints": endpoints,
	})
}

// handleIngest serves the attached ingest source's statistics.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	src := s.ingestSrc
	s.mu.Unlock()
	if src == nil {
		writeError(w, http.StatusNotFound, "no ingest source attached")
		return
	}
	writeJSON(w, http.StatusOK, src.Stats())
}

// handleMetrics serves the process-wide telemetry snapshot: JSON by
// default, Prometheus text exposition with ?format=prom (or an Accept
// header asking for text/plain).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := telemetry.Default.Snapshot()
	if r.URL.Query().Get("format") == "prom" ||
		strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_ = snap.WritePrometheus(w)
		return
	}
	writeJSON(w, http.StatusOK, snap)
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, map[string]string{"error": fmt.Sprintf(format, args...)})
}

func (s *Server) handleDatasets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string][]string{
		"netflow": datasets.FlowDatasetNames,
		"pcap":    append(append([]string(nil), datasets.PacketDatasetNames...), "caida-chicago"),
	})
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	r.Body = http.MaxBytesReader(w, r.Body, maxRequestBody)
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if err := validateRequest(&req); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	if req.Cluster && s.clusterQueue() == nil {
		writeError(w, http.StatusServiceUnavailable, "no cluster queue attached")
		return
	}

	st := s.newJob(req.Kind)
	telJobsSubmitted.Inc()
	go s.run(st.ID, req)
	writeJSON(w, http.StatusAccepted, st)
}

// newJob registers a pending job and returns a snapshot of its status.
func (s *Server) newJob(kind string) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := &job{status: JobStatus{
		ID:        id,
		Kind:      kind,
		State:     StatePending,
		Submitted: time.Now().UTC().Format(time.RFC3339),
	}}
	s.jobs[id] = j
	return j.status.clone()
}

func validateRequest(req *JobRequest) error {
	switch req.Kind {
	case "netflow", "pcap":
	default:
		return fmt.Errorf("kind must be netflow or pcap, got %q", req.Kind)
	}
	if (req.Dataset == "") == (req.CSV == "") {
		return fmt.Errorf("exactly one of dataset or csv must be set")
	}
	if req.Dataset != "" {
		if req.Records <= 0 {
			req.Records = 1000
		}
		if req.Records > 100_000 {
			return fmt.Errorf("records capped at 100000 for the prototype")
		}
	}
	if req.Generate <= 0 {
		req.Generate = 1000
	}
	if req.Generate > 100_000 {
		return fmt.Errorf("generate capped at 100000 for the prototype")
	}
	if req.DP != nil && req.DP.NoiseMultiplier <= 0 {
		return fmt.Errorf("dp.noiseMultiplier must be positive")
	}
	if req.Cluster && req.DP != nil {
		// DP-SGD keeps its privacy accountant in one process; the cluster
		// path has no cross-worker ε accounting.
		return fmt.Errorf("dp jobs cannot run on the cluster")
	}
	if req.MaxRetries < 0 || req.MaxRetries > 10 {
		return fmt.Errorf("maxRetries must be in [0, 10]")
	}
	if req.Parallelism < 0 {
		return fmt.Errorf("parallelism must be >= 0 (0 = all CPUs)")
	}
	return nil
}

// config assembles the NetShare configuration of a request.
func (req *JobRequest) config() core.Config {
	cfg := core.DefaultConfig()
	if req.Chunks > 0 {
		cfg.Chunks = req.Chunks
	}
	if req.SeedSteps > 0 {
		cfg.SeedSteps = req.SeedSteps
	}
	if req.FineTuneSteps > 0 {
		cfg.FineTuneSteps = req.FineTuneSteps
	}
	if req.MaxLen > 0 {
		cfg.MaxLen = req.MaxLen
	}
	if req.Seed != 0 {
		cfg.Seed = req.Seed
	}
	cfg.Parallelism = req.Parallelism
	if req.DP != nil {
		cfg.Chunks = 1
		cfg.DP = &core.DPConfig{
			NoiseMultiplier: req.DP.NoiseMultiplier,
			ClipNorm:        1.0,
			Delta:           1e-5,
			Pretrain:        req.DP.Pretrain,
			PretrainSteps:   cfg.SeedSteps,
		}
	}
	return cfg
}

// run executes one job in the background: train in process or through
// the cluster queue, then generate, publish and persist the result. Panics
// in the job body are contained: the job fails, the inflight slot is
// released, the completion notification still fires, and — because every
// status mutation helper unlocks via defer — no lock is left held, so the
// server stays fully responsive afterwards.
func (s *Server) run(id string, req JobRequest) {
	s.sem <- struct{}{}
	defer func() { <-s.sem }()
	defer s.notifyDone(id)
	sw := telJobDuration.Start()
	defer sw.Stop()
	defer func() {
		if r := recover(); r != nil {
			s.fail(id, fmt.Errorf("job panicked: %v", r))
		}
	}()

	s.setState(id, StateRunning, nil)
	if s.runHook != nil {
		s.runHook(id)
	}
	cfg := req.config()
	s.initChunks(id, cfg.Chunks)
	var t trainer
	if req.Cluster {
		t = s.clusterTrainer(id, req, cfg)
	} else {
		t = s.localTrainer(id, req, cfg)
	}
	if err := s.trainAndFinish(id, req, t); err != nil {
		s.fail(id, err)
		return
	}
	telJobsDone.Inc()
}

// fail marks a job failed and persists its status.
func (s *Server) fail(id string, err error) {
	telJobsFailed.Inc()
	s.setState(id, StateFailed, err)
	s.persistFailed(id)
}

// trainer trains one job's synthesizer of either kind.
type trainer struct {
	flow   func() (*core.FlowSynthesizer, error)
	packet func() (*core.PacketSynthesizer, error)
}

// localTrainer trains in this process, folding orchestrator progress
// events into the job's chunk status.
func (s *Server) localTrainer(id string, req JobRequest, cfg core.Config) trainer {
	public := datasets.CAIDAChicago(s.publicPackets, cfg.Seed+500)
	opts := core.TrainOptions{Orchestration: &orchestrator.Options{
		MaxRetries: req.MaxRetries,
		OnEvent:    func(ev orchestrator.Event) { s.chunkEvent(id, ev) },
	}}
	return trainer{
		flow: func() (*core.FlowSynthesizer, error) {
			real, err := loadFlowInput(req)
			if err != nil {
				return nil, err
			}
			return core.TrainFlowSynthesizerOpts(real, public, cfg, opts)
		},
		packet: func() (*core.PacketSynthesizer, error) {
			real, err := loadPacketInput(req)
			if err != nil {
				return nil, err
			}
			return core.TrainPacketSynthesizerOpts(real, public, cfg, opts)
		},
	}
}

// trainAndFinish trains the job's synthesizer, generates the requested
// records, and publishes and persists the result.
func (s *Server) trainAndFinish(id string, req JobRequest, t trainer) error {
	switch req.Kind {
	case "netflow":
		syn, err := t.flow()
		if err != nil {
			return err
		}
		genStart := time.Now()
		gen := syn.Generate(req.Generate)
		s.finishFlow(id, gen, syn.Stats(), time.Since(genStart))
		s.persistFlowResult(id, syn, gen)
	case "pcap":
		syn, err := t.packet()
		if err != nil {
			return err
		}
		genStart := time.Now()
		gen := syn.Generate(req.Generate)
		s.finishPacket(id, gen, syn.Stats(), time.Since(genStart))
		s.persistPacketResult(id, syn, gen)
	default:
		return fmt.Errorf("job kind %q", req.Kind)
	}
	return nil
}

// notifyDone signals job completion to the notifications channel (if one
// was requested) without blocking.
func (s *Server) notifyDone(id string) {
	s.mu.Lock()
	ch := s.notify
	s.mu.Unlock()
	if ch != nil {
		select {
		case ch <- id:
		default:
		}
	}
}

func loadFlowInput(req JobRequest) (*trace.FlowTrace, error) {
	if req.CSV != "" {
		return trace.ReadFlowCSV(strings.NewReader(req.CSV))
	}
	t := datasets.FlowByName(req.Dataset, req.Records, 1)
	if t == nil {
		return nil, fmt.Errorf("unknown netflow dataset %q", req.Dataset)
	}
	return t, nil
}

func loadPacketInput(req JobRequest) (*trace.PacketTrace, error) {
	if req.CSV != "" {
		return trace.ReadPacketCSV(strings.NewReader(req.CSV))
	}
	t := datasets.PacketByName(req.Dataset, req.Records, 1)
	if t == nil {
		return nil, fmt.Errorf("unknown pcap dataset %q", req.Dataset)
	}
	return t, nil
}

// initChunks publishes the job's chunk slots before training starts.
func (s *Server) initChunks(id string, n int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if j := s.jobs[id]; j != nil {
		j.status.Chunks = make([]ChunkInfo, n)
		for i := range j.status.Chunks {
			j.status.Chunks[i].State = ChunkPending
		}
	}
}

// chunkEvent folds an orchestrator progress event into the job's live
// per-chunk status.
func (s *Server) chunkEvent(id string, ev orchestrator.Event) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil || ev.Chunk < 0 || ev.Chunk >= len(j.status.Chunks) {
		return
	}
	c := &j.status.Chunks[ev.Chunk]
	switch ev.Kind {
	case orchestrator.EventChunkStart:
		c.State = ChunkTraining
	case orchestrator.EventChunkRetry:
		c.State, c.Attempts = ChunkRetrying, ev.Attempt
	case orchestrator.EventChunkDone:
		c.State, c.Attempts = ChunkDone, ev.Attempt
	case orchestrator.EventChunkResumed:
		c.State = ChunkResumed
	case orchestrator.EventChunkDegraded:
		c.State, c.Attempts = ChunkDegraded, ev.Attempt
	}
}

// finalizeChunks reconciles the per-chunk status with the authoritative
// post-run Stats (events are best-effort progress; Stats is ground truth).
func finalizeChunks(j *job, st core.Stats) {
	if len(st.ChunkAttempts) == 0 {
		return
	}
	j.status.Chunks = make([]ChunkInfo, len(st.ChunkAttempts))
	for i := range st.ChunkAttempts {
		c := &j.status.Chunks[i]
		c.Attempts = st.ChunkAttempts[i]
		switch {
		case st.ChunkDegraded[i]:
			c.State = ChunkDegraded
		case st.ChunkResumed[i]:
			c.State = ChunkResumed
		default:
			c.State = ChunkDone
		}
	}
}

func (s *Server) setState(id string, state JobState, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return
	}
	j.status.State = state
	if err != nil {
		j.status.Error = err.Error()
	}
}

func (s *Server) finishFlow(id string, t *trace.FlowTrace, st core.Stats, genDur time.Duration) {
	s.finish(id, st, genDur, len(t.Records), func(j *job) { j.flow = t })
}

func (s *Server) finishPacket(id string, t *trace.PacketTrace, st core.Stats, genDur time.Duration) {
	s.finish(id, st, genDur, len(t.Packets), func(j *job) { j.packet = t })
}

// finish publishes a completed job's result and final stats.
func (s *Server) finish(id string, st core.Stats, genDur time.Duration, records int, attach func(*job)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return
	}
	attach(j)
	j.status.State = StateDone
	j.status.CPUMillis = st.CPUTime.Milliseconds()
	j.status.WallMillis = st.WallTime.Milliseconds()
	j.status.Epsilon = st.Epsilon
	j.status.Records = records
	j.status.GenMillis = genDur.Milliseconds()
	j.status.Metrics = &JobMetrics{
		ChunkCriticLoss: append([]float64(nil), st.ChunkCriticLoss...),
		ChunkGenLoss:    append([]float64(nil), st.ChunkGenLoss...),
	}
	finalizeChunks(j, st)
}

// statusSnapshot returns a deep copy of one job's status, taken under the
// server lock so concurrent chunk events cannot race the serialization.
func (s *Server) statusSnapshot(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.jobs[id]
	if j == nil {
		return JobStatus{}, false
	}
	return j.status.clone(), true
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	out := func() []JobStatus {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := make([]JobStatus, 0, len(s.jobs))
		for _, j := range s.jobs {
			out = append(out, j.status.clone())
		}
		return out
	}()
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, ok := s.statusSnapshot(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleDownload(w http.ResponseWriter, r *http.Request) {
	// Snapshot the state and result pointers under the lock; the traces
	// themselves are written once before State flips to done and read-only
	// afterwards, so encoding may proceed unlocked.
	st, flow, packet, ok := func() (JobStatus, *trace.FlowTrace, *trace.PacketTrace, bool) {
		s.mu.Lock()
		defer s.mu.Unlock()
		j := s.jobs[r.PathValue("id")]
		if j == nil {
			return JobStatus{}, nil, nil, false
		}
		return j.status.clone(), j.flow, j.packet, true
	}()
	if !ok {
		writeError(w, http.StatusNotFound, "no such job")
		return
	}
	if st.State != StateDone {
		writeError(w, http.StatusConflict, "job is %s", st.State)
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = "csv"
	}
	// CSV downloads stream the persisted canonical payload straight from
	// the registry when one exists — no re-encoding, no full trace copy
	// in memory — and fall back to the in-memory trace otherwise.
	if format == "csv" && s.streamStoredTrace(w, st.ID) {
		return
	}
	// Encoded downloads (pcap, netflow5/netflow9/ipfix) of store-backed
	// jobs stream the re-encode off the columnar scan, fronted by the
	// bounded artifact LRU (tracestore.go).
	switch format {
	case "pcap", "netflow5", "netflow9", "ipfix":
		if s.streamEncodedTrace(w, st.ID, format) {
			return
		}
	}
	// A job recovered after a restart has no in-memory trace; rebuild it
	// from the persisted payload for the formats that need re-encoding.
	if flow == nil && packet == nil {
		var err error
		flow, packet, err = s.reloadTrace(st.ID)
		if err != nil {
			writeError(w, http.StatusNotFound, "trace unavailable for job %s: %v", st.ID, err)
			return
		}
	}

	var buf bytes.Buffer
	var contentType, ext string
	var err error
	switch {
	case flow != nil && format == "csv":
		contentType, ext = "text/csv", "csv"
		err = trace.WriteFlowCSV(&buf, flow)
	case flow != nil && format == "netflow5":
		contentType, ext = "application/octet-stream", "nf5"
		err = trace.WriteNetFlowV5(&buf, flow)
	case flow != nil && format == "netflow9":
		contentType, ext = "application/octet-stream", "nf9"
		err = trace.WriteNetFlowV9(&buf, flow)
	case flow != nil && format == "ipfix":
		contentType, ext = "application/octet-stream", "ipfix"
		err = trace.WriteIPFIX(&buf, flow)
	case packet != nil && format == "csv":
		contentType, ext = "text/csv", "csv"
		err = trace.WritePacketCSV(&buf, packet)
	case packet != nil && format == "pcap":
		contentType, ext = "application/vnd.tcpdump.pcap", "pcap"
		err = trace.WritePCAP(&buf, packet)
	default:
		writeError(w, http.StatusBadRequest, "format %q not available for this job", format)
		return
	}
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode trace: %v", err)
		return
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s.%s", st.ID, ext))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(buf.Bytes())
}
