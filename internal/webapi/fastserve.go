package webapi

import (
	"bytes"
	"container/list"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Model entries and fast serving (DESIGN.md §10–11). Every stored model a
// generate request touches is decoded once into a cached entry keyed by
// model name and manifest checksum, and both generate paths serve from it:
//
//   - the default path calls the entry's float64 synthesizer's
//     GenerateFresh, which draws from new copies of the canonical chunk
//     streams per request, so the bytes equal what a freshly loaded model
//     would emit and requests may run concurrently on the one synthesizer;
//   - "fast": true routes through a float32 snapshot, built from that same
//     synthesizer on first fast use, and a cross-request batch scheduler:
//     concurrent generate calls for the same model coalesce into ONE
//     batched forward fan-out (core.Fast*Synthesizer.GenerateBatch), each
//     request receiving its proportional per-chunk share.
//
// The handler still reads and CRC-checks the container through the
// registry on every request; only a checksum the entry does not match
// (a new or overwritten model) decodes. The fast path trades the bitwise
// contract for throughput — a cached snapshot's RNG advances across
// requests, so responses depend on request ordering; only the output
// DISTRIBUTION is pinned (internal/conformance). Models stored as fast
// containers (flow-fast / packet-fast kinds) always serve via the fast
// path: they carry no float64 weights to be deterministic with.

// Pre-registered telemetry handles for the entry cache and the fast path.
// webapi.model.cache.* counts every generate request's entry lookup (a
// miss is a container decode); webapi.fast.cache.* counts the fast-path
// requests among them.
var (
	telModelCacheHits = telemetry.Default.Counter("webapi.model.cache.hits")
	telModelCacheMiss = telemetry.Default.Counter("webapi.model.cache.misses")
	telFastBatches    = telemetry.Default.Counter("webapi.fast.batches")
	telFastRequests   = telemetry.Default.Counter("webapi.fast.requests")
	telFastCacheHits  = telemetry.Default.Counter("webapi.fast.cache.hits")
	telFastCacheMiss  = telemetry.Default.Counter("webapi.fast.cache.misses")
	telFastPanics     = telemetry.Default.Counter("webapi.fast.panics")
)

// defaultFastCacheCap bounds the model-entry LRU when the server does not
// override FastCacheCap.
const defaultFastCacheCap = 8

// errFastEvicted fails waiters stranded when a registry sweep drops
// their snapshot mid-queue. It is retryable: serveFastGenerate's loop
// reloads from the registry, turning a swept model into a clean 404
// instead of a half-served response.
var errFastEvicted = errors.New("webapi: fast snapshot evicted by registry sweep")

// fastWait is one request's slot in a coalesced batch.
type fastWait struct {
	count int
	// label pins this request to one scenario (-1 = unconditional mixture).
	// The scheduler only coalesces same-label requests into one batch.
	label int
	flow  *trace.FlowTrace
	pkt   *trace.PacketTrace
	err   error
	done  chan struct{}
}

// fastEntry is one stored model's cached decode plus its fast-path batch
// scheduler state. For reference containers ref* holds the decoded float64
// synthesizer and the float32 snapshot is built from it on first fast use;
// fast containers decode straight into the snapshot. Exactly one of
// flow/pkt is set once snapshot has run.
type fastEntry struct {
	name string
	// sum is the manifest checksum of the container the entry was decoded
	// from; a request whose registry read returns another checksum (the
	// model was overwritten) decodes a new entry.
	sum uint32

	refFlow *core.FlowSynthesizer
	refPkt  *core.PacketSynthesizer

	snapOnce sync.Once
	flow     *core.FastFlowSynthesizer
	pkt      *core.FastPacketSynthesizer

	mu      sync.Mutex
	pending []*fastWait
	running bool
	// dead marks an entry poisoned by a generation panic: it accepts no new
	// waiters and has been evicted, so the next request decodes a fresh
	// snapshot instead of reusing corrupt in-memory state.
	dead bool
}

// snapshot builds the float32 snapshot from the float64 synthesizer on
// first use (a no-op for fast containers). Every fast request calls it
// before enqueueing, so the batch runner always sees flow/pkt set.
func (e *fastEntry) snapshot() {
	e.snapOnce.Do(func() {
		switch {
		case e.refFlow != nil:
			e.flow = e.refFlow.Fast()
		case e.refPkt != nil:
			e.pkt = e.refPkt.Fast()
		}
	})
}

// fastState initializes the LRU lazily under s.fastMu.
func (s *Server) fastState() {
	if s.fastCache == nil {
		s.fastCache = make(map[string]*list.Element)
		s.fastLRU = list.New()
	}
}

// fastCap resolves the effective cache capacity.
func (s *Server) fastCap() int {
	if s.FastCacheCap > 0 {
		return s.FastCacheCap
	}
	return defaultFastCacheCap
}

// lookupFast returns the cached entry for name, whatever its checksum,
// refreshing its LRU position, or nil on miss.
func (s *Server) lookupFast(name string) *fastEntry {
	s.fastMu.Lock()
	defer s.fastMu.Unlock()
	s.fastState()
	el, ok := s.fastCache[name]
	if !ok {
		return nil
	}
	s.fastLRU.MoveToFront(el)
	return el.Value.(*fastEntry)
}

// insertFast caches entry, replacing any entry for the same name with
// another checksum and evicting the least-recently-used entry past
// capacity. If another goroutine inserted the same (name, checksum) first,
// that entry wins and is returned — both requests then share one decode
// and coalesce on one scheduler. A replaced entry is only dropped from the
// cache: requests already holding it finish from it.
func (s *Server) insertFast(entry *fastEntry) *fastEntry {
	s.fastMu.Lock()
	defer s.fastMu.Unlock()
	s.fastState()
	if el, ok := s.fastCache[entry.name]; ok {
		if old := el.Value.(*fastEntry); old.sum == entry.sum {
			s.fastLRU.MoveToFront(el)
			return old
		}
		s.fastLRU.Remove(el)
	}
	s.fastCache[entry.name] = s.fastLRU.PushFront(entry)
	for s.fastLRU.Len() > s.fastCap() {
		oldest := s.fastLRU.Back()
		delete(s.fastCache, oldest.Value.(*fastEntry).name)
		s.fastLRU.Remove(oldest)
	}
	return entry
}

// evictFast drops name from the cache (no-op when absent or already
// replaced by a newer entry for the same name).
func (s *Server) evictFast(entry *fastEntry) {
	s.fastMu.Lock()
	defer s.fastMu.Unlock()
	s.fastState()
	if el, ok := s.fastCache[entry.name]; ok && el.Value.(*fastEntry) == entry {
		delete(s.fastCache, entry.name)
		s.fastLRU.Remove(el)
	}
}

// modelEntry returns the cached entry for the container the registry just
// returned (framed, info), decoding framed on a miss; hit reports whether
// the entry was already cached.
func (s *Server) modelEntry(name string, framed []byte, info registry.ModelInfo) (entry *fastEntry, hit bool, err error) {
	if e := s.lookupFast(name); e != nil && e.sum == info.Checksum {
		telModelCacheHits.Inc()
		return e, true, nil
	}
	telModelCacheMiss.Inc()
	entry = &fastEntry{name: name, sum: info.Checksum}
	r := bytes.NewReader(framed)
	switch info.Kind {
	case "flow":
		entry.refFlow, err = core.LoadFlowSynthesizer(r)
	case "flow-fast":
		entry.flow, err = core.LoadFastFlowSynthesizer(r)
	case "packet":
		entry.refPkt, err = core.LoadPacketSynthesizer(r)
	case "packet-fast":
		entry.pkt, err = core.LoadFastPacketSynthesizer(r)
	default:
		return nil, false, fmt.Errorf("model %q has unknown kind %q", name, info.Kind)
	}
	if err != nil {
		return nil, false, fmt.Errorf("load model %q: %w", name, err)
	}
	return s.insertFast(entry), false, nil
}

// serveFastGenerate handles one fast-path generate request end to end:
// snapshot, batch enqueue, wait, encode. entry and hit come from the
// handler's modelEntry call; label is the parsed scenario label (-1 for
// the unconditional mixture).
func (s *Server) serveFastGenerate(w http.ResponseWriter, name string, entry *fastEntry, hit bool, req GenerateRequest, label int) {
	telFastRequests.Inc()
	for {
		if entry == nil {
			// Retrying after the entry died: read the registry again, so a
			// deleted model is a clean 404.
			framed, info, err := s.registry().ModelBytes(name)
			if err != nil {
				writeError(w, http.StatusNotFound, "model %q: %v", name, err)
				return
			}
			if entry, hit, err = s.modelEntry(name, framed, info); err != nil {
				writeError(w, http.StatusInternalServerError, "%v", err)
				return
			}
		}
		if hit {
			telFastCacheHits.Inc()
		} else {
			telFastCacheMiss.Inc()
		}
		entry.snapshot()
		if label >= 0 {
			// Kind was validated upstream; conditioning is a property of the
			// decoded snapshot, so it is checked here.
			if entry.flow == nil {
				writeError(w, http.StatusBadRequest, "label %q: model %q is a packet model; labeled generation is flow-only", req.Label, name)
				return
			}
			if !entry.flow.Conditional() {
				writeError(w, http.StatusBadRequest, "label %q: model %q was not trained with scenario conditioning", req.Label, name)
				return
			}
		}

		wait := &fastWait{count: req.Count, label: label, done: make(chan struct{})}
		entry.mu.Lock()
		if entry.dead {
			// Poisoned between lookup and enqueue; retry with a fresh
			// snapshot (the panicking runner already evicted this one).
			entry.mu.Unlock()
			entry = nil
			continue
		}
		entry.pending = append(entry.pending, wait)
		runner := !entry.running
		if runner {
			entry.running = true
		}
		entry.mu.Unlock()

		// First arriver becomes the runner and drains the queue; requests
		// landing while a batch is in flight are picked up by the next
		// drain and coalesce into one forward fan-out.
		if runner {
			s.runFastBatches(entry)
		}
		<-wait.done
		if errors.Is(wait.err, errFastEvicted) {
			// A registry sweep dropped the snapshot while this request was
			// queued; retry against the registry so the response is either a
			// fresh complete trace or a clean 404 — never a partial result.
			entry = nil
			continue
		}
		if wait.err != nil {
			writeError(w, http.StatusInternalServerError, "%v", wait.err)
			return
		}
		served := false
		if wait.flow != nil {
			served = writeFlowResult(w, name, req.Format, wait.flow)
		} else {
			served = writePacketResult(w, name, req.Format, wait.pkt)
		}
		if served {
			telModelsServed.Inc()
		}
		return
	}
}

// runFastBatches drains the entry's pending queue, one coalesced
// GenerateBatch per drain, until the queue is empty. A batch only
// coalesces requests pinned to the same scenario label (the conditioning
// vector is per-forward-pass, not per-row); waiters for other labels
// stay queued and are drained by subsequent iterations.
func (s *Server) runFastBatches(entry *fastEntry) {
	for {
		entry.mu.Lock()
		if len(entry.pending) == 0 {
			entry.running = false
			entry.mu.Unlock()
			return
		}
		label := entry.pending[0].label
		var batch, rest []*fastWait
		for _, w := range entry.pending {
			if w.label == label {
				batch = append(batch, w)
			} else {
				rest = append(rest, w)
			}
		}
		entry.pending = rest
		entry.mu.Unlock()
		if !s.serveFastBatch(entry, batch, label) {
			return
		}
	}
}

// serveFastBatch runs one coalesced forward fan-out. A panic anywhere in
// generation is contained the same way job panics are (run's recover →
// StateFailed): every waiter in this batch AND any that queued meanwhile
// fails with an error response, the entry is marked dead and evicted so
// its (possibly corrupt) state is never reused, and the scheduler slot is
// released. Returns false when the entry died and draining must stop.
func (s *Server) serveFastBatch(entry *fastEntry, batch []*fastWait, label int) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			telFastPanics.Inc()
			err := fmt.Errorf("fast generation for model %q panicked: %v", entry.name, r)
			// Refuse new waiters first, then fail everyone already queued.
			// Waiters in `batch` were never completed (the panic aborted
			// GenerateBatch before any done channel closed).
			entry.mu.Lock()
			entry.dead = true
			entry.running = false
			stranded := entry.pending
			entry.pending = nil
			entry.mu.Unlock()
			for _, w := range append(batch, stranded...) {
				w.err = err
				close(w.done)
			}
			s.evictFast(entry)
			ok = false
		}
	}()
	if s.fastHook != nil {
		s.fastHook(entry.name, len(batch))
	}
	counts := make([]int, len(batch))
	for i, w := range batch {
		counts[i] = w.count
	}
	if entry.flow != nil {
		var outs []*trace.FlowTrace
		if label >= 0 {
			var err error
			if outs, err = entry.flow.GenerateLabeledBatch(counts, trace.Label(label)); err != nil {
				// Pre-validated at enqueue, so this is defensive: fail the
				// batch without poisoning the snapshot.
				for _, w := range batch {
					w.err = err
					close(w.done)
				}
				return true
			}
		} else {
			outs = entry.flow.GenerateBatch(counts)
		}
		for i, w := range batch {
			w.flow = outs[i]
			close(w.done)
		}
	} else {
		outs := entry.pkt.GenerateBatch(counts)
		for i, w := range batch {
			w.pkt = outs[i]
			close(w.done)
		}
	}
	telFastBatches.Inc()
	return true
}

// writeFlowResult encodes a generated flow trace in the requested format
// and writes the HTTP response (including format/encoding errors),
// reporting whether a success response was written.
func writeFlowResult(w http.ResponseWriter, name, format string, gen *trace.FlowTrace) bool {
	var buf bytes.Buffer
	var contentType, ext string
	var err error
	switch format {
	case "csv":
		contentType, ext = "text/csv", "csv"
		err = trace.WriteFlowCSV(&buf, gen)
	case "netflow5":
		contentType, ext = "application/octet-stream", "nf5"
		err = trace.WriteNetFlowV5(&buf, gen)
	case "netflow9":
		contentType, ext = "application/octet-stream", "nf9"
		err = trace.WriteNetFlowV9(&buf, gen)
	case "ipfix":
		contentType, ext = "application/octet-stream", "ipfix"
		err = trace.WriteIPFIX(&buf, gen)
	default:
		writeError(w, http.StatusBadRequest, "format %q not available for flow models", format)
		return false
	}
	return writeAttachment(w, name, contentType, ext, buf.Bytes(), err)
}

// writePacketResult is writeFlowResult for packet traces.
func writePacketResult(w http.ResponseWriter, name, format string, gen *trace.PacketTrace) bool {
	var buf bytes.Buffer
	var contentType, ext string
	var err error
	switch format {
	case "csv":
		contentType, ext = "text/csv", "csv"
		err = trace.WritePacketCSV(&buf, gen)
	case "pcap":
		contentType, ext = "application/vnd.tcpdump.pcap", "pcap"
		err = trace.WritePCAP(&buf, gen)
	default:
		writeError(w, http.StatusBadRequest, "format %q not available for packet models", format)
		return false
	}
	return writeAttachment(w, name, contentType, ext, buf.Bytes(), err)
}

func writeAttachment(w http.ResponseWriter, name, contentType, ext string, body []byte, err error) bool {
	if err != nil {
		writeError(w, http.StatusInternalServerError, "encode trace: %v", err)
		return false
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%s.%s", name, ext))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(body)
	return true
}

// sweepFastCache drops every cached entry whose model keep rejects.
// Each dropped entry is marked dead first (so no new waiter can join it)
// and its queued-but-unbatched waiters fail with the retryable
// errFastEvicted; a batch already in flight completes from the in-memory
// snapshot. Together with serveFastGenerate's retry loop this makes a
// concurrent sweep + generate resolve to either a complete trace or a
// 404 — never a partial response. Returns how many entries were dropped.
func (s *Server) sweepFastCache(keep func(name string) bool) int {
	s.fastMu.Lock()
	var dropped []*fastEntry
	if s.fastLRU != nil {
		for el := s.fastLRU.Front(); el != nil; {
			next := el.Next()
			entry := el.Value.(*fastEntry)
			if !keep(entry.name) {
				delete(s.fastCache, entry.name)
				s.fastLRU.Remove(el)
				dropped = append(dropped, entry)
			}
			el = next
		}
	}
	s.fastMu.Unlock()

	for _, entry := range dropped {
		entry.mu.Lock()
		entry.dead = true
		stranded := entry.pending
		entry.pending = nil
		entry.mu.Unlock()
		for _, w := range stranded {
			w.err = errFastEvicted
			close(w.done)
		}
	}
	return len(dropped)
}

// isFastKind reports whether a stored model kind is a fast container
// (which carries no float64 weights and can only serve via the fast path).
func isFastKind(kind string) bool { return strings.HasSuffix(kind, "-fast") }
