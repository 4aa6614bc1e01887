package webapi

import (
	"bytes"
	"container/list"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Store-backed trace serving (DESIGN.md §13). Jobs persisted as columnar
// stores are queryable in place — GET /api/v1/traces/{id}/query prunes
// partitions by time window and decodes only the columns a filter
// touches — and their pcap/netflow5 downloads are re-encoded as a
// bounded-memory stream straight off the store scan instead of
// materializing the whole trace. Because the re-encode costs CPU every
// time, finished artifacts are kept in a bytes-bounded LRU keyed by
// (job, format); a registry sweep evicts entries whose job is gone.

// Pre-registered telemetry handles for store-backed serving.
var (
	telTraceQueries   = telemetry.Default.Counter("webapi.trace.queries")
	telArtifactHits   = telemetry.Default.Counter("webapi.artifacts.hits")
	telArtifactMisses = telemetry.Default.Counter("webapi.artifacts.misses")
	telArtifactEvict  = telemetry.Default.Counter("webapi.artifacts.evicted")
)

// DefaultArtifactCacheBytes bounds the encoded-download LRU when the
// server does not configure ArtifactCacheBytes. At the prototype's 100k
// record cap a pcap artifact tops out around 8 MiB, so the default
// holds a handful of hot traces.
const DefaultArtifactCacheBytes = 32 << 20

// artifact is one cached encoded download.
type artifact struct {
	key         string // jobID + "|" + format
	jobID       string
	data        []byte
	contentType string
	ext         string
}

// artifactKey builds the LRU key for a job's encoded download.
func artifactKey(id, format string) string { return id + "|" + format }

// artifactCap resolves the configured cache budget.
func (s *Server) artifactCap() int64 {
	switch {
	case s.ArtifactCacheBytes > 0:
		return s.ArtifactCacheBytes
	case s.ArtifactCacheBytes < 0:
		return 0 // caching disabled
	}
	return DefaultArtifactCacheBytes
}

// artifactGet returns a cached encoded download and bumps its recency.
func (s *Server) artifactGet(key string) (*artifact, bool) {
	s.artMu.Lock()
	defer s.artMu.Unlock()
	el, ok := s.artCache[key]
	if !ok {
		return nil, false
	}
	s.artLRU.MoveToFront(el)
	return el.Value.(*artifact), true
}

// artifactPut inserts an encoded download, evicting from the cold end
// until the byte budget holds. Artifacts larger than the whole budget
// are not cached at all.
func (s *Server) artifactPut(a *artifact) {
	budget := s.artifactCap()
	if budget <= 0 || int64(len(a.data)) > budget {
		return
	}
	s.artMu.Lock()
	defer s.artMu.Unlock()
	if s.artCache == nil {
		s.artCache = make(map[string]*list.Element)
		s.artLRU = list.New()
	}
	if el, ok := s.artCache[a.key]; ok {
		s.artSize -= int64(len(el.Value.(*artifact).data))
		s.artLRU.Remove(el)
		delete(s.artCache, a.key)
	}
	s.artCache[a.key] = s.artLRU.PushFront(a)
	s.artSize += int64(len(a.data))
	for s.artSize > budget {
		el := s.artLRU.Back()
		if el == nil {
			break
		}
		old := el.Value.(*artifact)
		s.artLRU.Remove(el)
		delete(s.artCache, old.key)
		s.artSize -= int64(len(old.data))
		telArtifactEvict.Inc()
	}
}

// artifactDrop removes every cached artifact for which keep returns
// false, and reports how many were dropped.
func (s *Server) artifactDrop(keep func(jobID string) bool) int {
	s.artMu.Lock()
	defer s.artMu.Unlock()
	dropped := 0
	if s.artLRU == nil {
		return 0
	}
	for el := s.artLRU.Front(); el != nil; {
		next := el.Next()
		a := el.Value.(*artifact)
		if !keep(a.jobID) {
			s.artLRU.Remove(el)
			delete(s.artCache, a.key)
			s.artSize -= int64(len(a.data))
			telArtifactEvict.Inc()
			dropped++
		}
		el = next
	}
	return dropped
}

// SweepRegistry re-runs the registry's garbage-collection sweep and
// evicts server caches the sweep invalidated: encoded artifacts whose
// backing job is gone, and fast-serving snapshots whose model is gone
// (fastserve.go sweepFastCache — queued waiters on a dropped snapshot
// retry and get a clean 404 rather than a stale or partial response).
// Safe to call periodically while serving.
func (s *Server) SweepRegistry() (registry.SweepReport, error) {
	reg := s.registry()
	if reg == nil {
		return registry.SweepReport{}, fmt.Errorf("webapi: no registry attached")
	}
	rep, err := reg.Sweep()
	if err != nil {
		return rep, fmt.Errorf("webapi: registry sweep: %w", err)
	}
	s.artifactDrop(func(jobID string) bool {
		_, err := reg.Job(jobID)
		return err == nil
	})
	alive := make(map[string]bool)
	for _, m := range reg.Models() {
		alive[m.Name] = true
	}
	s.sweepFastCache(func(name string) bool { return alive[name] })
	return rep, nil
}

// streamEncodedTrace serves a store-backed job's pcap or netflow5
// download: from the artifact LRU when hot, otherwise re-encoded as a
// stream off the store scan while teeing into the cache. Returns false
// when the job has no store payload or the format does not fit its kind
// (caller falls back to the in-memory / reload path).
func (s *Server) streamEncodedTrace(w http.ResponseWriter, id, format string) bool {
	reg := s.registry()
	if reg == nil {
		return false
	}
	rec, err := reg.Job(id)
	if err != nil || !rec.TraceStore {
		return false
	}
	var contentType, ext string
	switch {
	case rec.TraceKind == "pcap" && format == "pcap":
		contentType, ext = "application/vnd.tcpdump.pcap", "pcap"
	case rec.TraceKind == "netflow" && format == "netflow5":
		contentType, ext = "application/octet-stream", "nf5"
	case rec.TraceKind == "netflow" && format == "netflow9":
		contentType, ext = "application/octet-stream", "nf9"
	case rec.TraceKind == "netflow" && format == "ipfix":
		contentType, ext = "application/octet-stream", "ipfix"
	default:
		return false
	}

	key := artifactKey(id, format)
	if a, ok := s.artifactGet(key); ok {
		telArtifactHits.Inc()
		w.Header().Set("Content-Type", a.contentType)
		w.Header().Set("Content-Length", strconv.Itoa(len(a.data)))
		w.Header().Set("Content-Disposition",
			fmt.Sprintf("attachment; filename=%s.%s", id, a.ext))
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(a.data)
		return true
	}
	telArtifactMisses.Inc()

	str, err := reg.OpenStore(id)
	if err != nil {
		telRegistryErrors.Inc()
		return false
	}
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("Content-Disposition",
		fmt.Sprintf("attachment; filename=%s.%s", id, ext))
	w.WriteHeader(http.StatusOK)

	// Tee the stream into a buffer so a complete encode can be cached;
	// an encode error after the header is sent just truncates the body.
	var buf bytes.Buffer
	mw := io.MultiWriter(w, &buf)
	switch format {
	case "pcap":
		err = encodePCAPStream(mw, str)
	case "netflow5":
		err = encodeNFV5Stream(mw, str)
	case "netflow9":
		err = encodeNFV9Stream(mw, str)
	case "ipfix":
		err = encodeIPFIXStream(mw, str)
	}
	if err != nil {
		telRegistryErrors.Inc()
		return true
	}
	telTracesStreamed.Inc()
	// Cache an exactly sized copy: buf grew by doubling, so its backing
	// array can be nearly twice the body, while the LRU charges len(data).
	data := make([]byte, buf.Len())
	copy(data, buf.Bytes())
	s.artifactPut(&artifact{
		key: key, jobID: id, data: data,
		contentType: contentType, ext: ext,
	})
	return true
}

// encodePCAPStream re-encodes a packet store as a libpcap capture,
// byte-identical to trace.WritePCAP over the materialized trace.
func encodePCAPStream(w io.Writer, str *store.Store) error {
	pw, err := trace.NewPCAPWriter(w)
	if err != nil {
		return err
	}
	if err := str.ScanPackets(pw.Write); err != nil {
		return err
	}
	return pw.Flush()
}

// encodeNFV5Stream re-encodes a flow store as NetFlow v5 export
// packets. The SysUptime origin is the store's minimum timestamp — the
// same base trace.WriteNetFlowV5 derives from the materialized trace,
// so the streamed bytes are identical to the legacy buffered path.
func encodeNFV5Stream(w io.Writer, str *store.Store) error {
	base, _ := str.TimeRange()
	nw := trace.NewNFV5Writer(w, base)
	if err := str.ScanFlows(nw.Write); err != nil {
		return err
	}
	return nw.Flush()
}

// encodeNFV9Stream re-encodes a flow store as NetFlow v9 export packets,
// byte-identical to trace.WriteNetFlowV9 over the materialized trace
// (same minimum-timestamp SysUptime base as the v5 stream).
func encodeNFV9Stream(w io.Writer, str *store.Store) error {
	base, _ := str.TimeRange()
	nw := trace.NewNFV9Writer(w, base)
	if err := str.ScanFlows(nw.Write); err != nil {
		return err
	}
	return nw.Flush()
}

// encodeIPFIXStream re-encodes a flow store as IPFIX messages,
// byte-identical to trace.WriteIPFIX over the materialized trace (IPFIX
// timestamps are absolute, so no uptime base applies).
func encodeIPFIXStream(w io.Writer, str *store.Store) error {
	iw := trace.NewIPFIXWriter(w)
	if err := str.ScanFlows(iw.Write); err != nil {
		return err
	}
	return iw.Flush()
}

// flowJSON is one flow row in a query response.
type flowJSON struct {
	StartUs    int64  `json:"startUs"`
	DurationUs int64  `json:"durationUs"`
	SrcIP      string `json:"srcIp"`
	DstIP      string `json:"dstIp"`
	SrcPort    uint16 `json:"srcPort"`
	DstPort    uint16 `json:"dstPort"`
	Proto      uint8  `json:"proto"`
	Packets    int64  `json:"packets"`
	Bytes      int64  `json:"bytes"`
	Label      string `json:"label"`
}

// packetJSON is one packet row in a query response.
type packetJSON struct {
	TimeUs  int64  `json:"timeUs"`
	SrcIP   string `json:"srcIp"`
	DstIP   string `json:"dstIp"`
	SrcPort uint16 `json:"srcPort"`
	DstPort uint16 `json:"dstPort"`
	Proto   uint8  `json:"proto"`
	Size    int64  `json:"size"`
	TTL     uint8  `json:"ttl"`
	Flags   uint8  `json:"flags"`
}

// queryResponse is the GET /api/v1/traces/{id}/query body.
type queryResponse struct {
	ID      string         `json:"id"`
	Kind    string         `json:"kind"`
	Agg     string         `json:"agg"`
	Rows    int64          `json:"rows"`
	Stats   store.Stats    `json:"stats"`
	Flows   []flowJSON     `json:"flows,omitempty"`
	Packets []packetJSON   `json:"packets,omitempty"`
	Buckets []store.Talker `json:"buckets,omitempty"`
}

// queryRowLimit caps row-returning queries; clients page with tighter
// time windows or filters instead.
const (
	defaultQueryLimit = 1000
	maxQueryLimit     = 10000
)

// handleTraceQuery serves predicate-pushdown queries over a job's
// columnar trace store: time-window pruning via from/to (microseconds),
// five-tuple/label filtering via filter (store.ParseFilter syntax), and
// aggregations via agg=count|talkers|ports (topk sizes the bucket
// list; agg defaults to talkers when only topk is given). The response
// carries per-query Stats so callers can see how little was read.
func (s *Server) handleTraceQuery(w http.ResponseWriter, r *http.Request) {
	reg := s.registry()
	if reg == nil {
		writeError(w, http.StatusServiceUnavailable, "no registry configured (start the server with -registry)")
		return
	}
	id := r.PathValue("id")
	rec, err := reg.Job(id)
	if err != nil {
		writeError(w, http.StatusNotFound, "no such job %q", id)
		return
	}
	if !rec.TraceStore {
		writeError(w, http.StatusConflict, "job %q has no queryable trace store (legacy CSV payload; download it instead)", id)
		return
	}
	str, err := reg.OpenStore(id)
	if err != nil {
		telRegistryErrors.Inc()
		writeError(w, http.StatusInternalServerError, "open store for job %q: %v", id, err)
		return
	}

	q := r.URL.Query()
	flt, err := store.ParseFilter(q.Get("filter"))
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	from, to := int64(math.MinInt64), int64(math.MaxInt64)
	window := false
	if v := q.Get("from"); v != "" {
		if from, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "from: %q is not a microsecond timestamp", v)
			return
		}
		window = true
	}
	if v := q.Get("to"); v != "" {
		if to, err = strconv.ParseInt(v, 10, 64); err != nil {
			writeError(w, http.StatusBadRequest, "to: %q is not a microsecond timestamp", v)
			return
		}
		window = true
	}
	if window {
		flt = flt.Window(from, to)
	}
	limit := defaultQueryLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxQueryLimit {
			writeError(w, http.StatusBadRequest, "limit must be in [1, %d]", maxQueryLimit)
			return
		}
		limit = n
	}
	topk := 10
	if v := q.Get("topk"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 || n > maxQueryLimit {
			writeError(w, http.StatusBadRequest, "topk must be in [1, %d]", maxQueryLimit)
			return
		}
		topk = n
	}
	agg := q.Get("agg")
	if agg == "" && q.Get("topk") != "" {
		agg = "talkers"
	}

	resp := queryResponse{ID: id, Kind: str.Kind().String(), Agg: agg}
	switch agg {
	case "":
		resp.Agg = "rows"
		if str.Kind() == trace.KindNetFlow {
			recs, st, err := str.QueryFlows(flt, limit)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "query: %v", err)
				return
			}
			resp.Stats, resp.Rows = st, int64(len(recs))
			resp.Flows = make([]flowJSON, len(recs))
			for i, fr := range recs {
				resp.Flows[i] = flowJSON{
					StartUs: fr.Start, DurationUs: fr.Duration,
					SrcIP: fr.Tuple.SrcIP.String(), DstIP: fr.Tuple.DstIP.String(),
					SrcPort: fr.Tuple.SrcPort, DstPort: fr.Tuple.DstPort,
					Proto: uint8(fr.Tuple.Proto), Packets: fr.Packets,
					Bytes: fr.Bytes, Label: fr.Label.String(),
				}
			}
		} else {
			recs, st, err := str.QueryPackets(flt, limit)
			if err != nil {
				writeError(w, http.StatusInternalServerError, "query: %v", err)
				return
			}
			resp.Stats, resp.Rows = st, int64(len(recs))
			resp.Packets = make([]packetJSON, len(recs))
			for i, p := range recs {
				resp.Packets[i] = packetJSON{
					TimeUs: p.Time,
					SrcIP:  p.Tuple.SrcIP.String(), DstIP: p.Tuple.DstIP.String(),
					SrcPort: p.Tuple.SrcPort, DstPort: p.Tuple.DstPort,
					Proto: uint8(p.Tuple.Proto), Size: int64(p.Size),
					TTL: p.TTL, Flags: p.Flags,
				}
			}
		}
	case "count":
		n, st, err := str.Count(flt)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "query: %v", err)
			return
		}
		resp.Stats, resp.Rows = st, n
	case "talkers":
		buckets, st, err := str.TopTalkers(flt, topk)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "query: %v", err)
			return
		}
		resp.Stats, resp.Rows, resp.Buckets = st, st.RowsMatched, buckets
	case "ports":
		buckets, st, err := str.PortCounts(flt, topk)
		if err != nil {
			writeError(w, http.StatusInternalServerError, "query: %v", err)
			return
		}
		resp.Stats, resp.Rows, resp.Buckets = st, st.RowsMatched, buckets
	default:
		writeError(w, http.StatusBadRequest, "agg must be count, talkers or ports (or empty for rows)")
		return
	}
	telTraceQueries.Inc()
	writeJSON(w, http.StatusOK, resp)
}
