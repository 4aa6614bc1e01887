package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/url"
	"sort"
	"strings"
	"time"

	"repro/internal/ingest"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapi"
)

// The capture workload: no GAN work at all. Ingest a seeded CAIDA-like
// capture (pcap parse, flow assembly), commit it as a columnar packet
// store in the registry, then serve windowed queries from one caller and
// finish with a fixed set of full-trace aggregations.

const (
	capPackets = 1_000_000
	capSpanUS  = 10_000_000 // the capture covers 10 s
	capWindow  = capSpanUS / 20
	capAggReps = 3 // passes over the aggregation set
	capIngests = 3 // ingests per run; ingest_pkts_per_s is their median
)

var capPorts = []uint16{53, 80, 445, 443, 21, 22, 25, 123, 8080}

// capQuery is one planned query against the stored capture.
type capQuery struct {
	Agg      string // "" for rows, or count, talkers, ports
	Filter   string // store.ParseFilter syntax
	From, To int64  // window, microseconds; From > To means none
	f        pktFilter
}

func (q capQuery) windowed() bool { return q.From <= q.To }

// path is the query's URL path for trace id.
func (q capQuery) path(id string) string {
	v := url.Values{}
	if q.Agg != "" {
		v.Set("agg", q.Agg)
	}
	if q.Filter != "" {
		v.Set("filter", q.Filter)
	}
	if q.windowed() {
		v.Set("from", fmt.Sprint(q.From))
		v.Set("to", fmt.Sprint(q.To))
	}
	return "/api/v1/traces/" + id + "/query?" + v.Encode()
}

// pktFilter mirrors the store's five-tuple predicate for the benchmark's
// brute-force check.
type pktFilter struct {
	srcIP, dstIP *trace.IPv4
	dstPort      *uint16
	proto        *trace.Protocol
}

func (f pktFilter) match(p trace.Packet) bool {
	return (f.srcIP == nil || p.Tuple.SrcIP == *f.srcIP) &&
		(f.dstIP == nil || p.Tuple.DstIP == *f.dstIP) &&
		(f.dstPort == nil || p.Tuple.DstPort == *f.dstPort) &&
		(f.proto == nil || p.Tuple.Proto == *f.proto)
}

// queryPlan yields the seeded sequence of windowed queries: half rows,
// half counts, each over a random 5% window with a five-tuple filter.
type queryPlan struct{ r *rand.Rand }

func newQueryPlan(seed int64) *queryPlan {
	return &queryPlan{rand.New(rand.NewSource(seed*7_368_787 + 11))}
}

func (p *queryPlan) next() capQuery {
	r := p.r
	q := capQuery{From: r.Int63n(capSpanUS - capWindow)}
	q.To = q.From + capWindow
	if r.Intn(2) == 0 {
		q.Agg = "count"
	}
	proto := func() {
		pr := trace.TCP
		if r.Intn(3) == 0 {
			pr = trace.UDP
		}
		q.f.proto = &pr
	}
	port := func() {
		pt := capPorts[r.Intn(len(capPorts))]
		q.f.dstPort = &pt
	}
	switch r.Intn(5) {
	case 0:
		proto()
	case 1:
		port()
	case 2:
		ip := zipfHost(r, capSrcBase, capHosts)
		q.f.srcIP = &ip
	case 3:
		ip := zipfHost(r, capDstBase, capHosts)
		q.f.dstIP = &ip
	default:
		port()
		proto()
	}
	q.Filter = q.f.String()
	return q
}

// String renders the filter in store.ParseFilter syntax.
func (f pktFilter) String() string {
	var terms []string
	if f.srcIP != nil {
		terms = append(terms, "src_ip="+f.srcIP.String())
	}
	if f.dstIP != nil {
		terms = append(terms, "dst_ip="+f.dstIP.String())
	}
	if f.dstPort != nil {
		terms = append(terms, fmt.Sprintf("dst_port=%d", *f.dstPort))
	}
	if f.proto != nil {
		terms = append(terms, fmt.Sprintf("proto=%d", *f.proto))
	}
	return strings.Join(terms, ",")
}

// aggSet is the fixed set of full-trace aggregations.
func aggSet() []capQuery {
	udp, tcp, https := trace.UDP, trace.TCP, uint16(443)
	none := capQuery{From: 1, To: 0}
	qs := []capQuery{none, none, none, none, none}
	qs[0].Agg, qs[0].f = "count", pktFilter{proto: &udp}
	qs[1].Agg, qs[1].f = "count", pktFilter{dstPort: &https}
	qs[2].Agg = "talkers"
	qs[3].Agg = "ports"
	qs[4].Agg, qs[4].f = "talkers", pktFilter{proto: &tcp}
	for i := range qs {
		qs[i].Filter = qs[i].f.String()
	}
	return qs
}

type capState struct {
	reg  *registry.Registry
	srv  *webapi.Server
	cl   *client
	pcap []byte
}

func (st *capState) close() { st.cl.close() }

// captureSetup builds the seeded capture, opens an empty registry and
// starts the server.
func captureSetup(e *env, i int) (*capState, error) {
	pcap, err := pcapBytes(genPackets(e.seed, capPackets, capSpanUS))
	if err != nil {
		return nil, err
	}
	dir, err := e.dir(fmt.Sprintf("capture-%d", i))
	if err != nil {
		return nil, err
	}
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, err
	}
	srv := webapi.NewServer(1)
	if _, err := srv.UseRegistry(reg); err != nil {
		return nil, err
	}
	return &capState{reg: reg, srv: srv, cl: newClient(srv.Handler(), 1), pcap: pcap}, nil
}

// ingested is the outcome of one ingest-and-commit.
type ingested struct {
	id      string
	rows    int64
	dur     time.Duration // ingest + flush + store committed
	packets []trace.Packet
	stats   ingest.Stats
}

// ingestCapture streams the capture through a fresh assembler and
// commits its packet store in the registry as job id. Spans (traced run
// only) separate assembly, the store write and the registry commit.
func (st *capState) ingestCapture(tr *tracer, id string) (ingested, error) {
	out := ingested{id: id}
	root := tr.begin("op.ingest", 0, 0)
	t0 := time.Now()
	sp := tr.begin("ingest.assemble", root.id(), 0)
	a := ingest.New(ingest.Config{})
	if err := a.IngestReader(bytes.NewReader(st.pcap)); err != nil {
		return out, fmt.Errorf("ingest: %w", err)
	}
	a.Flush()
	sp.end()
	commit := tr.begin("registry.commit", root.id(), 0)
	err := st.reg.PutJobStore(registry.JobRecord{ID: id, State: "done", Status: json.RawMessage(`{}`), TraceKind: "pcap"},
		func(dir string) error {
			sp := tr.begin("store.packet_write", commit.id(), 0)
			defer sp.end()
			n, err := a.WritePacketStore(dir, store.Options{})
			out.rows = n
			return err
		})
	commit.end()
	out.dur = time.Since(t0)
	root.end()
	if err != nil {
		return out, fmt.Errorf("commit capture store: %w", err)
	}
	out.packets = a.PacketTrace().Packets
	out.stats = a.Stats()
	return out, nil
}

// queryResp is the part of the query response the checks read.
type queryResp struct {
	Rows    int64 `json:"rows"`
	Packets []struct {
		TimeUs  int64  `json:"timeUs"`
		SrcIP   string `json:"srcIp"`
		DstIP   string `json:"dstIp"`
		DstPort uint16 `json:"dstPort"`
		Proto   uint8  `json:"proto"`
	} `json:"packets"`
	Buckets []json.RawMessage `json:"buckets"`
}

// queries runs the windowed-query closed loop for e.seconds, then the
// aggregation set capAggReps times, checking each response on arrival
// against pkts. It returns the successful queries' latencies (ms).
func (st *capState) queries(e *env, res *result, cl *client, tr *tracer, id string, pkts []trace.Packet) (windowed, aggs []float64, cpu time.Duration) {
	plan := newQueryPlan(e.seed)
	cpu0 := cpuTime()
	deadline := time.Now().Add(e.seconds)
	for n := 0; time.Now().Before(deadline); n++ {
		windowed = st.query(res, cl, tr, id, plan.next(), "query", int64(n+1), pkts, windowed)
	}
	cpu = cpuTime() - cpu0
	for rep := 0; rep < capAggReps; rep++ {
		for i, q := range aggSet() {
			aggs = st.query(res, cl, tr, id, q, "scan", int64(1_000_000+rep*100+i), pkts, aggs)
		}
	}
	return windowed, aggs, cpu
}

// query sends q, checks the response and appends its latency to lats
// when it succeeded.
func (st *capState) query(res *result, cl *client, tr *tracer, id string, q capQuery, op string, req int64, pkts []trace.Packet, lats []float64) []float64 {
	sp := tr.begin("op."+op, 0, req)
	c, err := cl.do("GET", q.path(id), nil, op, sp)
	sp.end()
	if err != nil {
		c = call{body: []byte(err.Error())}
	}
	res.attempted++
	if problem := checkQuery(pkts, q, c); problem != "" {
		res.fail("query %s: %s", q.path(id), problem)
		return lats
	}
	return append(lats, ms(c.lat))
}

// brute counts the packets matching q by scanning the time-sorted
// packet trace.
func brute(pkts []trace.Packet, q capQuery) int64 {
	lo, hi := 0, len(pkts)
	if q.windowed() {
		lo = sort.Search(len(pkts), func(i int) bool { return pkts[i].Time >= q.From })
		hi = sort.Search(len(pkts), func(i int) bool { return pkts[i].Time > q.To })
	}
	var n int64
	for _, p := range pkts[lo:hi] {
		if q.f.match(p) {
			n++
		}
	}
	return n
}

// checkQuery checks one response against a brute-force scan of the
// assembled packet trace: counts and aggregations must match it exactly;
// row queries return min(matches, the default limit) rows, each inside
// the window and matching the filter. It returns the problem, or "".
func checkQuery(pkts []trace.Packet, q capQuery, c call) string {
	const rowLimit = 1000 // the API's default row limit
	if c.status != 200 {
		return fmt.Sprintf("status %d: %s", c.status, trimBody(c.body))
	}
	var r queryResp
	if err := json.Unmarshal(c.body, &r); err != nil {
		return fmt.Sprintf("bad JSON: %v", err)
	}
	want := brute(pkts, q)
	switch q.Agg {
	case "":
		want = min(want, rowLimit)
		for _, p := range r.Packets {
			src, _ := trace.ParseIPv4(p.SrcIP)
			dst, _ := trace.ParseIPv4(p.DstIP)
			pk := trace.Packet{Time: p.TimeUs, Tuple: trace.FiveTuple{SrcIP: src, DstIP: dst, DstPort: p.DstPort, Proto: trace.Protocol(p.Proto)}}
			if p.TimeUs < q.From || p.TimeUs > q.To || !q.f.match(pk) {
				return fmt.Sprintf("row %+v outside the window or filter", p)
			}
		}
		if r.Rows != want || int64(len(r.Packets)) != want {
			return fmt.Sprintf("%d rows (%d listed), want %d", r.Rows, len(r.Packets), want)
		}
	case "talkers", "ports":
		if r.Rows != want || len(r.Buckets) == 0 {
			return fmt.Sprintf("%d rows matched in %d buckets, want %d", r.Rows, len(r.Buckets), want)
		}
	default:
		if r.Rows != want {
			return fmt.Sprintf("count %d, want %d", r.Rows, want)
		}
	}
	return ""
}

func runCapture(e *env) (*result, error) {
	st, setup, err := setupTimes(e, func(i int) (*capState, error) { return captureSetup(e, i) }, (*capState).close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer st.close()
	res := newResult()

	var in ingested
	var rates []float64
	for i := 0; i < capIngests; i++ {
		in = ingested{} // drop the previous assembled trace first
		if in, err = st.ingestCapture(nil, fmt.Sprintf("capture-%d", i+1)); err != nil {
			return nil, err
		}
		res.attempted++
		res.check(in.rows == int64(len(in.packets)), "ingest: store has %d rows, assembled trace %d packets", in.rows, len(in.packets))
		rates = append(rates, capPackets/in.dur.Seconds())
	}
	q, a, cpu := st.queries(e, res, st.cl, nil, in.id, in.packets)
	var scan float64
	for _, l := range a {
		scan += l
	}
	pps := median(rates)
	res.e2e["setup_s"] = setup
	res.e2e["main_p50_ms"] = metric{median(q), len(q)}
	res.e2e["main_p90_ms"] = metric{percentile(q, 0.9), len(q)}
	res.e2e["cpu_ms_per_op"] = metric{ms(cpu) / float64(len(q)), len(q)}
	res.e2e["items_per_s"] = metric{pps, len(rates)}
	res.addDetail("ingest_pkts_per_s", pps, "1/s", len(rates))
	res.addDetail("store_rows", float64(in.rows), "count", 1)
	res.addDist("query_p50_ms", q, "ms")
	res.addDist("scan_query_p50_ms", a, "ms")
	res.addDetail("query_p90_ms", percentile(q, 0.9), "ms", len(q))
	res.addDetail("scan_s", scan/1000/capAggReps, "s", capAggReps)

	if e.traced {
		if err := st.traced(e, res, in, median(q)); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB()
	res.e2e["rss_peak_mb"] = metric{rss, 1}
	return res, nil
}

// traced runs the queries again through the span middleware, then
// replays the capture's work — parse, assembly, store write, commit,
// queries and aggregations — through trace, ingest, registry and store
// with spans around each call.
func (st *capState) traced(e *env, res *result, in ingested, untracedP50 float64) error {
	zeroLayers(res)
	tr := newTracer()
	cl := newClient(spanMiddleware(tr, st.srv.Handler()), 1)
	q, _, _ := st.queries(e, res, cl, tr, in.id, in.packets)
	cl.close()
	spans := tr.snapshot()
	setLayer(res, "webapi.query.handler_ms", spans, "webapi.query.handler")
	res.layer["trace_overhead_pct"] = metric{100 * (median(q) - untracedP50) / untracedP50, len(q)}
	in.packets = nil // the replay ingests a second copy

	// Parse only.
	root := tr.begin("op.ingest", 0, 0)
	sp := tr.begin("trace.pcap_read", root.id(), 0)
	parsed, err := parseCapture(st.pcap)
	sp.end()
	root.end()
	if err != nil {
		return err
	}
	res.attempted++
	res.check(parsed == capPackets, "replay: parsed %d packets, want %d", parsed, capPackets)
	again, err := st.ingestCapture(tr, "capture-replay")
	if err != nil {
		return err
	}
	res.attempted++
	res.check(again.rows == int64(len(again.packets)), "replay: store has %d rows, assembled trace %d packets", again.rows, len(again.packets))
	stats := again.stats
	res.layer["ingest.evicted_ratio"] = metric{ratio(float64(stats.FlowsEmitted-stats.Flushed), float64(stats.FlowsEmitted)), int(stats.FlowsEmitted)}

	c0 := counters()
	var parts, pruned int
	plan := newQueryPlan(e.seed)
	deadline := time.Now().Add(e.seconds)
	n := 0
	for ; time.Now().Before(deadline); n++ {
		stt, err := st.replayQuery(tr, again, plan.next(), "store.window_query", int64(n+1))
		if err != nil {
			return err
		}
		parts += stt.Partitions
		pruned += stt.PartitionsPruned
	}
	c1 := counters()
	for i, q := range aggSet() {
		if _, err := st.replayQuery(tr, again, q, "store.scan_query", int64(1_000_000+i)); err != nil {
			return err
		}
	}
	res.spans = tr.snapshot()
	rs := res.spans[len(spans):]
	for metricName, name := range map[string]string{
		"trace.pcap_read_s": "trace.pcap_read", "ingest.assemble_s": "ingest.assemble",
		"store.packet_write_s": "store.packet_write", "registry.open_store_ms": "registry.open_store",
		"store.window_query_ms": "store.window_query", "store.scan_query_ms": "store.scan_query",
	} {
		setLayer(res, metricName, rs, name)
	}
	res.layer["registry.commit_ms"] = selfMs(rs, "registry.commit")
	res.layer["store.prune_ratio"] = metric{ratio(float64(pruned), float64(parts)), n}
	res.layer["store.bytes_per_query"] = metric{ratio(delta(c0, c1, "store.bytes.read"), float64(n)), n}
	selfShares(res, rs)
	return nil
}

// parseCapture decodes every record of the capture and counts the IP
// packets.
func parseCapture(pcap []byte) (int, error) {
	pr, err := trace.NewPCAPReader(bytes.NewReader(pcap))
	if err != nil {
		return 0, err
	}
	n := 0
	for {
		_, err := pr.Next()
		switch {
		case err == io.EOF:
			return n, nil
		case errors.Is(err, trace.ErrNonIP), errors.Is(err, trace.ErrPacketParse):
		case err != nil:
			return n, err
		default:
			n++
		}
	}
}

// replayQuery runs one query as the handler does — open the store, then
// query it — with spans around each call.
func (st *capState) replayQuery(tr *tracer, in ingested, q capQuery, name string, req int64) (store.Stats, error) {
	root := tr.begin("op.query", 0, req)
	defer root.end()
	sp := tr.begin("registry.open_store", root.id(), req)
	str, err := st.reg.OpenStore(in.id)
	sp.end()
	if err != nil {
		return store.Stats{}, err
	}
	flt, err := store.ParseFilter(q.Filter)
	if err != nil {
		return store.Stats{}, err
	}
	if q.windowed() {
		flt = flt.Window(q.From, q.To)
	}
	sp = tr.begin(name, root.id(), req)
	defer sp.end()
	var stt store.Stats
	switch q.Agg {
	case "":
		_, stt, err = str.QueryPackets(flt, 1000)
	case "count":
		_, stt, err = str.Count(flt)
	case "talkers":
		_, stt, err = str.TopTalkers(flt, 10)
	case "ports":
		_, stt, err = str.PortCounts(flt, 10)
	}
	return stt, err
}
