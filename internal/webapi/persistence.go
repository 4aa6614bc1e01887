package webapi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Durable serving (DESIGN.md §10): when a registry is attached, every
// terminal job is persisted — its status document, its trained model as
// a checksummed container, and its synthetic trace payload — and a
// restarted server recovers all of it on boot. Jobs that were still
// pending or running when the process died were never persisted and are
// simply absent after recovery; clients resubmit them.

// Pre-registered telemetry handles for registry traffic through the API.
var (
	telJobsRecovered  = telemetry.Default.Counter("webapi.registry.jobs.recovered")
	telModelsServed   = telemetry.Default.Counter("webapi.registry.model.generations")
	telTracesStreamed = telemetry.Default.Counter("webapi.registry.trace.streamed")
	telRegistryErrors = telemetry.Default.Counter("webapi.registry.errors")
)

// maxRequestBody caps training-endpoint upload bodies: large enough for
// the 100k-record prototype cap with room to spare, small enough that a
// hostile client cannot balloon the heap.
const maxRequestBody = 64 << 20

// maxGenerateBody caps generate-endpoint bodies: the request is a small
// JSON document (count/format/fast), so anything past 1 MiB is hostile.
const maxGenerateBody = 1 << 20

// RecoveryStats reports what UseRegistry found on boot.
type RecoveryStats struct {
	// Jobs is the number of terminal job records recovered into the
	// server's job table; Models counts stored models now servable.
	Jobs   int
	Models int
	// Swept counts files the boot-time GC pass removed (stray temp files,
	// orphans, corrupt entries); Corrupt how many of those were corrupt.
	Swept   int
	Corrupt int
}

// UseRegistry attaches a durable registry to the server and recovers its
// persisted state: a garbage-collection sweep first (so recovery only
// trusts validated entries), then every terminal job record is loaded
// back into the job table. Call it once, before Handler is serving
// traffic. Models remain on disk: each generate request re-reads and
// verifies its container, and a container is decoded once into the
// server's model-entry cache (fastserve.go).
func (s *Server) UseRegistry(reg *registry.Registry) (RecoveryStats, error) {
	var stats RecoveryStats
	rep, err := reg.Sweep()
	if err != nil {
		return stats, fmt.Errorf("webapi: registry sweep: %w", err)
	}
	stats.Swept, stats.Corrupt = len(rep.Removed), rep.Corrupt
	// Drop cached encoded artifacts whose backing job the sweep removed
	// (a boot-time no-op; SweepRegistry reuses the same path live).
	s.artifactDrop(func(jobID string) bool {
		_, err := reg.Job(jobID)
		return err == nil
	})

	s.mu.Lock()
	defer s.mu.Unlock()
	s.reg = reg
	for _, rec := range reg.Jobs() {
		var st JobStatus
		if err := json.Unmarshal(rec.Status, &st); err != nil || st.ID != rec.ID {
			telRegistryErrors.Inc()
			continue
		}
		if st.State != StateDone && st.State != StateFailed {
			// Only terminal states are ever persisted; anything else is a
			// foreign or future record we do not understand.
			continue
		}
		s.jobs[st.ID] = &job{status: st}
		// Keep new job IDs monotonic across restarts.
		if n, err := strconv.Atoi(strings.TrimPrefix(st.ID, "job-")); err == nil && n > s.nextID {
			s.nextID = n
		}
		telJobsRecovered.Inc()
		stats.Jobs++
	}
	stats.Models = len(reg.Models())
	return stats, nil
}

// registry returns the attached registry (nil when running memory-only).
func (s *Server) registry() *registry.Registry {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reg
}

// persistFlowResult durably stores a finished netflow job: model
// container, columnar trace store, and the status document.
func (s *Server) persistFlowResult(id string, syn *core.FlowSynthesizer, gen *trace.FlowTrace) {
	var model bytes.Buffer
	if err := syn.Save(&model); err != nil {
		s.registryError(id, fmt.Errorf("save model: %w", err))
		return
	}
	s.persistResult(id, "netflow", model.Bytes(), func(dir string) error {
		return store.WriteFlowTrace(dir, gen, store.Options{})
	})
}

// persistPacketResult durably stores a finished pcap job.
func (s *Server) persistPacketResult(id string, syn *core.PacketSynthesizer, gen *trace.PacketTrace) {
	var model bytes.Buffer
	if err := syn.Save(&model); err != nil {
		s.registryError(id, fmt.Errorf("save model: %w", err))
		return
	}
	s.persistResult(id, "pcap", model.Bytes(), func(dir string) error {
		return store.WritePacketTrace(dir, gen, store.Options{})
	})
}

// persistResult commits a terminal job: the model container first, then
// the trace as a block-compressed columnar store (DESIGN.md §13) built
// by build into the registry's staging directory. Jobs persisted by
// older builds keep their flat CSV payloads; both shapes are served.
func (s *Server) persistResult(id, kind string, model []byte, build func(dir string) error) {
	reg := s.registry()
	if reg == nil {
		return
	}
	if _, err := reg.PutModel(id, model); err != nil {
		s.registryError(id, err)
		return
	}
	st, ok := s.statusSnapshot(id)
	if !ok {
		return
	}
	statusJSON, err := json.Marshal(st)
	if err != nil {
		s.registryError(id, err)
		return
	}
	rec := registry.JobRecord{
		ID: id, State: string(st.State), Status: statusJSON,
		Model: id, TraceKind: kind,
	}
	if err := reg.PutJobStore(rec, build); err != nil {
		s.registryError(id, err)
		return
	}
	// The committed store now serves every download (csv and the encoded
	// formats stream off it, reloadTrace rebuilds the rest), so drop the
	// in-memory trace: finished jobs must not pin their traces for the
	// life of the process. Without a registry it stays, as the only copy.
	s.mu.Lock()
	if j := s.jobs[id]; j != nil {
		j.flow, j.packet = nil, nil
	}
	s.mu.Unlock()
}

// persistFailed durably records a terminal failure (no model, no trace),
// so a restarted server still reports the job and its error.
func (s *Server) persistFailed(id string) {
	reg := s.registry()
	if reg == nil {
		return
	}
	st, ok := s.statusSnapshot(id)
	if !ok {
		return
	}
	statusJSON, err := json.Marshal(st)
	if err != nil {
		s.registryError(id, err)
		return
	}
	if err := reg.PutJob(registry.JobRecord{ID: id, State: string(st.State), Status: statusJSON}, nil); err != nil {
		s.registryError(id, err)
	}
}

// registryError counts and logs-by-telemetry a persistence failure.
// Durability is best-effort relative to the job itself: the job already
// finished in memory, so a full registry disk must not fail it.
func (s *Server) registryError(id string, err error) {
	_ = id
	_ = err
	telRegistryErrors.Inc()
}

// handleModels lists the registry's stored models.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	if reg == nil {
		writeError(w, http.StatusServiceUnavailable, "no registry configured (start the server with -registry)")
		return
	}
	models := reg.Models()
	if models == nil {
		models = []registry.ModelInfo{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": models})
}

// GenerateRequest is the POST /api/v1/models/{name}/generate body.
type GenerateRequest struct {
	// Count is the synthetic record/packet count (default 1000, capped at
	// 100000 like job submissions).
	Count int `json:"count,omitempty"`
	// Format is csv (default), netflow5/netflow9/ipfix (flow models), or
	// pcap (packet models).
	Format string `json:"format,omitempty"`
	// Label pins generation to one scenario label (trace.ParseLabel names,
	// e.g. "dos"). Requires a flow model trained with conditioning
	// (core.Config.Conditional); anything else is a 400. Empty means the
	// model's trained scenario mixture.
	Label string `json:"label,omitempty"`
	// Fast opts into the float32 serving fast path (fastserve.go): cached
	// snapshot, coalesced batched generation. Higher throughput, but output
	// depends on request ordering — only its distribution is pinned. The
	// default path stays per-request deterministic. Models stored as fast
	// containers always serve fast regardless of this flag.
	Fast bool `json:"fast,omitempty"`
}

// handleModelGenerate serves generation straight from a stored model. The
// container is read and validated through the registry on every request
// (a deleted model is a 404, a corrupt one a 404 or 500), then served from
// the model's cached entry (fastserve.go), decoded once per (name,
// checksum). The default path calls the decoded synthesizer's
// GenerateFresh, which starts every request from the canonical generation
// streams: the same model, count and label always produce the bytes a
// freshly loaded model would, before and after a restart.
func (s *Server) handleModelGenerate(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	if reg == nil {
		writeError(w, http.StatusServiceUnavailable, "no registry configured (start the server with -registry)")
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, maxGenerateBody)
	var req GenerateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil && err != io.EOF {
		writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
		return
	}
	if req.Count <= 0 {
		req.Count = 1000
	}
	if req.Count > 100_000 {
		writeError(w, http.StatusBadRequest, "count capped at 100000 for the prototype")
		return
	}
	if req.Format == "" {
		req.Format = "csv"
	}
	label := -1
	if req.Label != "" {
		l, ok := trace.ParseLabel(req.Label)
		if !ok {
			writeError(w, http.StatusBadRequest, "unknown scenario label %q", req.Label)
			return
		}
		label = int(l)
	}

	name := r.PathValue("name")
	framed, info, err := reg.ModelBytes(name)
	if err != nil {
		writeError(w, http.StatusNotFound, "model %q: %v", name, err)
		return
	}
	if label >= 0 && strings.HasPrefix(info.Kind, "packet") {
		writeError(w, http.StatusBadRequest, "label %q: model %q is a packet model; labeled generation is flow-only", req.Label, name)
		return
	}
	entry, hit, err := s.modelEntry(name, framed, info)
	if err != nil {
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if req.Fast || isFastKind(info.Kind) {
		s.serveFastGenerate(w, name, entry, hit, req, label)
		return
	}

	var served bool
	if syn := entry.refFlow; syn != nil {
		if label >= 0 && !syn.Conditional() {
			writeError(w, http.StatusBadRequest, "label %q: model %q was not trained with scenario conditioning", req.Label, name)
			return
		}
		gen, err := syn.GenerateFresh(req.Count, label)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "labeled generation for model %q: %v", name, err)
			return
		}
		served = writeFlowResult(w, name, req.Format, gen)
	} else {
		served = writePacketResult(w, name, req.Format, entry.refPkt.GenerateFresh(req.Count))
	}
	if served {
		telModelsServed.Inc()
	}
}

// streamStoredTrace serves a job's CSV download straight from the
// registry payload on disk: legacy flat payloads are copied verbatim;
// columnar store payloads are decoded block-by-block into the canonical
// CSV (byte-identical to the flat form) without materializing the trace.
// Returns false when the registry has no servable payload (caller falls
// back to the in-memory path).
func (s *Server) streamStoredTrace(w http.ResponseWriter, id string) bool {
	reg := s.registry()
	if reg == nil {
		return false
	}
	rec, err := reg.Job(id)
	if err != nil || rec.TraceSize == 0 {
		return false
	}
	if rec.TraceStore {
		str, err := reg.OpenStore(id)
		if err != nil {
			telRegistryErrors.Inc()
			return false
		}
		w.Header().Set("Content-Type", "text/csv")
		w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.csv", id))
		w.WriteHeader(http.StatusOK)
		if err := str.WriteCSV(w); err == nil {
			telTracesStreamed.Inc()
		} else {
			telRegistryErrors.Inc()
		}
		return true
	}
	rc, n, err := reg.OpenTrace(id)
	if err != nil {
		telRegistryErrors.Inc()
		return false
	}
	defer rc.Close()
	w.Header().Set("Content-Type", "text/csv")
	w.Header().Set("Content-Length", strconv.FormatInt(n, 10))
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.csv", id))
	w.WriteHeader(http.StatusOK)
	if _, err := io.CopyN(w, rc, n); err == nil {
		telTracesStreamed.Inc()
	}
	return true
}

// reloadTrace rebuilds a recovered job's trace from its persisted CSV
// payload, for download formats that need re-encoding (pcap, netflow5,
// netflow9, ipfix).
func (s *Server) reloadTrace(id string) (*trace.FlowTrace, *trace.PacketTrace, error) {
	reg := s.registry()
	if reg == nil {
		return nil, nil, fmt.Errorf("no registry configured")
	}
	rec, err := reg.Job(id)
	if err != nil {
		return nil, nil, err
	}
	payload, err := reg.TraceBytes(id)
	if err != nil {
		return nil, nil, err
	}
	switch rec.TraceKind {
	case "netflow":
		t, err := trace.ReadFlowCSV(bytes.NewReader(payload))
		return t, nil, err
	case "pcap":
		t, err := trace.ReadPacketCSV(bytes.NewReader(payload))
		return nil, t, err
	default:
		return nil, nil, fmt.Errorf("job %q has no stored trace", id)
	}
}
