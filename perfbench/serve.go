package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/webapi"
)

// The serve workload: a closed loop of serveCallers callers, each
// sending its own seeded sequence of generate requests for serveCount
// records to one stored conditional flow model. Half the requests ask
// for the float32 fast path, a quarter pin one of the first three
// catalog labels.

const (
	serveModel   = "ton-cond"
	serveCount   = 1000 // the API's default count
	serveCallers = 2
	serveRecords = 1000 // training records
)

// genReq is one generate request of the serve plan.
type genReq struct {
	Fast bool
	// Label is -1 for the model's trained mixture, else an index into
	// the first three labels of the model's catalog.
	Label int
}

// servePlan yields one caller's seeded request sequence.
type servePlan struct{ r *rand.Rand }

func newServePlan(seed int64, caller int) *servePlan {
	return &servePlan{rand.New(rand.NewSource(seed*1_000_003 + int64(caller)))}
}

func (p *servePlan) next() genReq {
	q := genReq{Fast: p.r.Intn(2) == 0, Label: -1}
	if p.r.Intn(4) == 0 {
		q.Label = p.r.Intn(3)
	}
	return q
}

type serveState struct {
	reg    *registry.Registry
	srv    *webapi.Server
	cl     *client
	labels []trace.Label // the first three catalog labels
	cfg    core.Config
	// exactRef holds the hash of the first exact-path response per
	// label (-1: none); later ones must repeat it.
	exactRef map[int][32]byte
}

func (st *serveState) close() { st.cl.close() }

// serveSetup trains the model, stores it as a float64 container, starts
// the server and warms both serving paths.
func serveSetup(e *env, i int) (*serveState, error) {
	dir, err := e.dir(fmt.Sprintf("serve-%d", i))
	if err != nil {
		return nil, err
	}
	cfg := core.DefaultConfig()
	cfg.Conditional = true
	syn, err := core.TrainFlowSynthesizer(genFlows(e.seed, serveRecords, tonShape), genPackets(e.seed+1, 1500, 10_000_000), cfg)
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	cat := syn.LabelCatalog()
	if len(cat) < 3 {
		return nil, fmt.Errorf("model catalog has %d labels, want at least 3", len(cat))
	}
	var model bytes.Buffer
	if err := syn.Save(&model); err != nil {
		return nil, fmt.Errorf("save model: %w", err)
	}
	reg, err := registry.Open(dir)
	if err != nil {
		return nil, err
	}
	if _, err := reg.PutModel(serveModel, model.Bytes()); err != nil {
		return nil, err
	}
	srv := webapi.NewServer(1)
	if _, err := srv.UseRegistry(reg); err != nil {
		return nil, err
	}
	st := &serveState{reg: reg, srv: srv, cl: newClient(srv.Handler(), serveCallers), labels: cat[:3], cfg: cfg,
		exactRef: map[int][32]byte{}}
	for _, fast := range []bool{false, true} {
		c, err := st.generate(st.cl, genReq{Fast: fast, Label: -1}, nil)
		if err == nil && c.status != 200 {
			err = fmt.Errorf("status %d: %s", c.status, trimBody(c.body))
		}
		if err != nil {
			st.close()
			return nil, fmt.Errorf("warm-up generate (fast=%t): %w", fast, err)
		}
	}
	return st, nil
}

// generate sends one generate request.
func (st *serveState) generate(cl *client, q genReq, sp *open) (call, error) {
	req := webapi.GenerateRequest{Count: serveCount, Format: "csv", Fast: q.Fast}
	if q.Label >= 0 {
		req.Label = st.labels[q.Label].String()
	}
	body, err := json.Marshal(req)
	if err != nil {
		return call{}, err
	}
	op := "exact"
	if q.Fast {
		op = "fast"
	}
	return cl.do("POST", "/api/v1/models/"+serveModel+"/generate", body, op, sp)
}

// genSample is one completed request; its body was checked on arrival
// and dropped, so memory use does not grow with the request count.
type genSample struct {
	q      genReq
	status int
	lat    time.Duration
}

// servePhase is one closed-loop load phase's outcome.
type servePhase struct {
	samples []genSample
	wall    time.Duration
	cpu     time.Duration
}

// closedLoop runs serveCallers callers for e.seconds; each calls op
// with its next planned request until the deadline.
func closedLoop(e *env, op func(caller, n int, q genReq)) time.Duration {
	deadline := time.Now().Add(e.seconds)
	t0 := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveCallers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			plan := newServePlan(e.seed, c)
			for n := 0; time.Now().Before(deadline); n++ {
				op(c, n, plan.next())
			}
		}(c)
	}
	wg.Wait()
	return time.Since(t0)
}

// load runs the HTTP closed loop against cl, checking each response
// after its latency is taken.
func (st *serveState) load(e *env, res *result, cl *client, tr *tracer) servePhase {
	var mu sync.Mutex
	var ph servePhase
	cpu0 := cpuTime()
	ph.wall = closedLoop(e, func(caller, n int, q genReq) {
		sp := tr.begin("op.generate", 0, reqID(caller, n))
		c, err := st.generate(cl, q, sp)
		sp.end()
		if err != nil {
			c = call{body: []byte(err.Error())}
		}
		problem, hash := st.check(q, c)
		mu.Lock()
		defer mu.Unlock()
		ph.samples = append(ph.samples, genSample{q, c.status, c.lat})
		res.attempted++
		if problem == "" && !q.Fast {
			if ref, ok := st.exactRef[q.Label]; !ok {
				st.exactRef[q.Label] = hash
			} else if ref != hash {
				problem = "exact-path response differs from the first one for the same request"
			}
		}
		if problem != "" {
			res.fail("generate %+v: %s", q, problem)
		}
	})
	ph.cpu = cpuTime() - cpu0
	return ph
}

// reqID numbers caller's n-th request uniquely across callers.
func reqID(caller, n int) int64 { return int64(caller)<<40 | int64(n+1) }

// check checks one response: a flow CSV of exactly serveCount records,
// every record stamped with the label when one was asked for. It
// returns the problem ("" when none) and the body's hash, which exact-
// path responses must repeat for the same (count, label).
func (st *serveState) check(q genReq, c call) (string, [32]byte) {
	if c.status != 200 {
		return fmt.Sprintf("status %d: %s", c.status, trimBody(c.body)), [32]byte{}
	}
	t, err := trace.ReadFlowCSV(bytes.NewReader(c.body))
	if err != nil {
		return fmt.Sprintf("response is not flow CSV: %v", err), [32]byte{}
	}
	if len(t.Records) != serveCount {
		return fmt.Sprintf("%d records, want %d", len(t.Records), serveCount), [32]byte{}
	}
	if q.Label >= 0 {
		want := st.labels[q.Label]
		for _, r := range t.Records {
			if r.Label != want {
				return fmt.Sprintf("record labeled %s, want %s", r.Label, want), [32]byte{}
			}
		}
	}
	return "", sha256.Sum256(c.body)
}

// latencies splits the successful requests' latencies (ms) by path.
func (ph servePhase) latencies() (exact, fast, all []float64) {
	for _, s := range ph.samples {
		if s.status != 200 {
			continue
		}
		l := ms(s.lat)
		all = append(all, l)
		if s.q.Fast {
			fast = append(fast, l)
		} else {
			exact = append(exact, l)
		}
	}
	return exact, fast, all
}

func runServe(e *env) (*result, error) {
	st, setup, err := setupTimes(e, func(i int) (*serveState, error) { return serveSetup(e, i) }, (*serveState).close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer st.close()
	res := newResult()
	res.config = &st.cfg

	ph := st.load(e, res, st.cl, nil)
	exact, fast, all := ph.latencies()
	n := len(ph.samples)
	res.e2e["setup_s"] = setup
	res.e2e["main_p50_ms"] = metric{median(exact), len(exact)}
	res.e2e["main_p90_ms"] = metric{percentile(all, 0.9), len(all)}
	res.e2e["cpu_ms_per_op"] = metric{ms(ph.cpu) / float64(n), n}
	rps := float64(len(all)) / ph.wall.Seconds()
	res.e2e["items_per_s"] = metric{rps * serveCount, len(all)}
	res.addDist("gen_exact_p50_ms", exact, "ms")
	res.addDist("gen_fast_p50_ms", fast, "ms")
	res.addDetail("gen_p90_ms", percentile(all, 0.9), "ms", len(all))
	res.addDetail("gen_rps", rps, "1/s", len(all))
	res.addDetail("gen_cpu_ms", ms(ph.cpu)/float64(n), "ms", n)

	if e.traced {
		if err := st.traced(e, res, median(exact)); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB()
	res.e2e["rss_peak_mb"] = metric{rss, 1}
	return res, nil
}

// traced runs the HTTP load again through the span middleware, then
// replays the same request sequences through registry, core and trace
// with spans around each call, and fills the per-layer metrics.
func (st *serveState) traced(e *env, res *result, untracedP50 float64) error {
	zeroLayers(res)
	tr := newTracer()
	cl := newClient(spanMiddleware(tr, st.srv.Handler()), serveCallers)
	c0 := counters()
	ph := st.load(e, res, cl, tr)
	c1 := counters()
	cl.close()
	exact, _, _ := ph.latencies()
	spans := tr.snapshot()
	nExact, nAll := len(exact), len(ph.samples)
	setLayer(res, "webapi.exact.handler_ms", spans, "webapi.exact.handler")
	setLayer(res, "webapi.fast.handler_ms", spans, "webapi.fast.handler")
	res.layer["registry.loads_per_req"] = metric{ratio(delta(c0, c1, "registry.models.loaded"), float64(nExact)), nExact}
	fastReq, fastBatch := delta(c0, c1, "webapi.fast.requests"), delta(c0, c1, "webapi.fast.batches")
	res.layer["webapi.fast.coalesce"] = metric{ratio(fastReq, fastBatch), int(fastBatch)}
	hits, misses := delta(c0, c1, "webapi.fast.cache.hits"), delta(c0, c1, "webapi.fast.cache.misses")
	res.layer["webapi.fast.cache_hit"] = metric{ratio(hits, hits+misses), int(hits + misses)}
	decodeCounters(res, c0, c1, float64(nAll*serveCount), st.cfg.MaxLen)
	p50 := median(exact)
	res.layer["trace_overhead_pct"] = metric{100 * (p50 - untracedP50) / untracedP50, nExact}

	// Replay through the layers' public functions.
	framed, _, err := st.reg.ModelBytes(serveModel)
	if err != nil {
		return err
	}
	ref, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
	if err != nil {
		return err
	}
	fastSyn := ref.Fast()
	var fastMu sync.Mutex // one batch at a time per snapshot, as the server's scheduler runs them
	var resMu sync.Mutex
	closedLoop(e, func(caller, n int, q genReq) {
		req := reqID(caller, n)
		root := tr.begin("op.generate", 0, req)
		gen, err := st.replayOne(tr, root.id(), req, q, fastSyn, &fastMu)
		if err == nil && len(gen.Records) != serveCount {
			err = fmt.Errorf("%d records, want %d", len(gen.Records), serveCount)
		}
		if err == nil {
			sp := tr.begin("trace.csv_encode", root.id(), req)
			var buf bytes.Buffer
			err = trace.WriteFlowCSV(&buf, gen)
			sp.end()
		}
		root.end()
		resMu.Lock()
		defer resMu.Unlock()
		res.attempted++
		if err != nil {
			res.fail("replay generate %+v: %v", q, err)
		}
	})
	res.spans = tr.snapshot()
	rs := res.spans[len(spans):]
	setLayer(res, "registry.model_read_ms", rs, "registry.model_read")
	setLayer(res, "core.load_ms", rs, "core.load")
	setLayer(res, "core.generate_exact_ms", rs, "core.generate_exact")
	setLayer(res, "core.generate_fast_ms", rs, "core.generate_fast")
	setLayer(res, "trace.csv_encode_ms", rs, "trace.csv_encode")
	selfShares(res, rs)
	return nil
}

// replayOne generates one planned request through registry and core.
func (st *serveState) replayOne(tr *tracer, parent, req int64, q genReq, fastSyn *core.FastFlowSynthesizer, fastMu *sync.Mutex) (*trace.FlowTrace, error) {
	if q.Fast {
		fastMu.Lock()
		defer fastMu.Unlock()
		sp := tr.begin("core.generate_fast", parent, req)
		defer sp.end()
		if q.Label >= 0 {
			outs, err := fastSyn.GenerateLabeledBatch([]int{serveCount}, st.labels[q.Label])
			if err != nil {
				return nil, err
			}
			return outs[0], nil
		}
		return fastSyn.GenerateBatch([]int{serveCount})[0], nil
	}
	sp := tr.begin("registry.model_read", parent, req)
	framed, _, err := st.reg.ModelBytes(serveModel)
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.load", parent, req)
	syn, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
	sp.end()
	if err != nil {
		return nil, err
	}
	sp = tr.begin("core.generate_exact", parent, req)
	defer sp.end()
	if q.Label >= 0 {
		return syn.GenerateLabeled(serveCount, st.labels[q.Label])
	}
	return syn.Generate(serveCount), nil
}
