package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/orchestrator"
	"repro/internal/registry"
	"repro/internal/store"
	"repro/internal/trace"
	"repro/internal/webapi"
)

// The job workload: the pcapshare lifecycle. Submit a netflow training
// job with an inline CSV of a seeded UGR16-like trace, wait for it to
// finish, then download its synthetic trace as CSV and as IPFIX. Jobs
// run one after another until the measured time is up (at least one).

const (
	jobRecords  = 1000
	jobGenerate = 100_000 // the API's cap
	jobTimeout  = 170 * time.Second
)

type jobState struct {
	reg  *registry.Registry
	srv  *webapi.Server
	cl   *client
	done <-chan string
	csv  string
}

func (st *jobState) close() { st.cl.close() }

// jobSetup builds the input CSV, opens an empty registry and starts the
// server.
func jobSetup(e *env, i int) (*jobState, error) {
	csv, err := flowCSV(genFlows(e.seed, jobRecords, ugrShape))
	if err != nil {
		return nil, err
	}
	dir, err := e.dir(fmt.Sprintf("job-%d", i))
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
	st := &jobState{reg: reg, srv: srv, done: srv.Notifications(), cl: newClient(srv.Handler(), 2), csv: csv}
	c, err := st.cl.do("GET", "/healthz", nil, "health", nil)
	if err == nil && c.status != 200 {
		err = fmt.Errorf("healthz status %d", c.status)
	}
	if err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

// jobRun is one job's lifecycle as the user sees it.
type jobRun struct {
	req             int64
	submit          call
	status          webapi.JobStatus
	wait, cpu       time.Duration // submit to done
	download        time.Duration // csv plus ipfix
	csv, ipfix      call
	transportFailed error
}

// lifecycle submits one job, waits for it and downloads its trace.
func (st *jobState) lifecycle(cl *client, tr *tracer, req int64) jobRun {
	run := jobRun{req: req}
	root := tr.begin("op.job", 0, req)
	defer root.end()
	body, err := json.Marshal(webapi.JobRequest{Kind: "netflow", CSV: st.csv, Generate: jobGenerate})
	if err != nil {
		run.transportFailed = err
		return run
	}
	cpu0, t0 := cpuTime(), time.Now()
	if run.submit, err = cl.do("POST", "/api/v1/jobs", body, "submit", root); err != nil {
		run.transportFailed = err
		return run
	}
	var sub webapi.JobStatus
	if run.submit.status != 202 || json.Unmarshal(run.submit.body, &sub) != nil {
		return run
	}
	if err := st.waitFor(sub.ID); err != nil {
		run.transportFailed = err
		return run
	}
	run.wait, run.cpu = time.Since(t0), cpuTime()-cpu0
	c, err := cl.do("GET", "/api/v1/jobs/"+sub.ID, nil, "status", root)
	if err != nil || json.Unmarshal(c.body, &run.status) != nil {
		run.transportFailed = fmt.Errorf("job status: %v", err)
		return run
	}
	t1 := time.Now()
	if run.csv, err = cl.do("GET", "/api/v1/jobs/"+sub.ID+"/trace?format=csv", nil, "download", root); err == nil {
		run.ipfix, err = cl.do("GET", "/api/v1/jobs/"+sub.ID+"/trace?format=ipfix", nil, "download", root)
	}
	run.download = time.Since(t1)
	run.transportFailed = err
	return run
}

// waitFor blocks until the server reports job id finished.
func (st *jobState) waitFor(id string) error {
	timeout := time.NewTimer(jobTimeout)
	defer timeout.Stop()
	for {
		select {
		case got := <-st.done:
			if got == id {
				return nil
			}
		case <-timeout.C:
			return fmt.Errorf("job %s did not finish within %s", id, jobTimeout)
		}
	}
}

// verify checks one lifecycle: the job finished, the CSV download holds
// jobGenerate records, and the IPFIX download decodes to as many.
// Submit, csv download and ipfix download count as three operations.
func verifyJob(res *result, run jobRun) {
	res.attempted += 3
	if run.transportFailed != nil {
		res.fail("job %d: %v", run.req, run.transportFailed)
		res.failed += 2
		return
	}
	if !res.check(run.submit.status == 202 && run.status.State == webapi.StateDone,
		"job %d: submit status %d, state %q (%s)", run.req, run.submit.status, run.status.State, run.status.Error) {
		res.failed += 2
		return
	}
	if res.check(run.csv.status == 200, "job %d: csv download status %d", run.req, run.csv.status) {
		t, err := trace.ReadFlowCSV(bytes.NewReader(run.csv.body))
		if res.check(err == nil, "job %d: csv download does not parse: %v", run.req, err) {
			res.check(len(t.Records) == jobGenerate, "job %d: csv has %d records, want %d", run.req, len(t.Records), jobGenerate)
		}
	}
	if res.check(run.ipfix.status == 200, "job %d: ipfix download status %d", run.req, run.ipfix.status) {
		t, err := trace.ReadIPFIX(bytes.NewReader(run.ipfix.body))
		if res.check(err == nil, "job %d: ipfix download does not decode: %v", run.req, err) {
			res.check(len(t.Records) == jobGenerate, "job %d: ipfix has %d records, want %d", run.req, len(t.Records), jobGenerate)
		}
	}
}

// jobs runs lifecycles until e.seconds have passed (at least one).
func (st *jobState) jobs(e *env, res *result, cl *client, tr *tracer) []jobRun {
	var runs []jobRun
	deadline := time.Now().Add(e.seconds)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		run := st.lifecycle(cl, tr, int64(n+1))
		verifyJob(res, run)
		runs = append(runs, run)
	}
	return runs
}

func runJob(e *env) (*result, error) {
	st, setup, err := setupTimes(e, func(i int) (*jobState, error) { return jobSetup(e, i) }, (*jobState).close)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer st.close()
	res := newResult()
	cfg := core.DefaultConfig()
	res.config = &cfg

	runs := st.jobs(e, res, st.cl, nil)
	var wait, cpu, dl, items, srvCPU, srvGen []float64
	for _, r := range runs {
		wait = append(wait, ms(r.wait))
		cpu = append(cpu, ms(r.cpu))
		dl = append(dl, ms(r.download))
		items = append(items, jobGenerate/(r.wait+r.download).Seconds())
		srvCPU = append(srvCPU, float64(r.status.CPUMillis))
		srvGen = append(srvGen, float64(r.status.GenMillis))
	}
	n := len(runs)
	res.e2e["setup_s"] = setup
	res.e2e["main_p50_ms"] = metric{median(wait), n}
	res.e2e["main_p90_ms"] = metric{percentile(wait, 0.9), n}
	res.e2e["cpu_ms_per_op"] = metric{median(cpu), n}
	res.e2e["items_per_s"] = metric{median(items), n}
	res.addDetail("job_s", median(wait)/1000, "s", n)
	res.addDetail("job_cpu_s", median(cpu)/1000, "s", n)
	res.addDetail("download_s", median(dl)/1000, "s", n)
	res.addDetail("server_train_cpu_s", median(srvCPU)/1000, "s", n)
	res.addDetail("server_generate_s", median(srvGen)/1000, "s", n)

	if e.traced {
		if err := st.traced(e, res, median(wait)); err != nil {
			return nil, err
		}
	}
	rss := peakRSSMB()
	res.e2e["rss_peak_mb"] = metric{rss, 1}
	return res, nil
}

// traced runs the lifecycle again through the span middleware, then
// replays one job's work through trace, core, orchestrator, registry and
// store with spans around each call.
func (st *jobState) traced(e *env, res *result, untracedP50 float64) error {
	zeroLayers(res)
	tr := newTracer()
	cl := newClient(spanMiddleware(tr, st.srv.Handler()), 2)
	c0 := counters()
	runs := st.jobs(e, res, cl, tr)
	c1 := counters()
	cl.close()
	spans := tr.snapshot()
	var wait, dl []float64
	for _, r := range runs {
		wait = append(wait, ms(r.wait))
		var d time.Duration
		for _, s := range spans {
			if s.Req == r.req && s.Name == "webapi.download.handler" {
				d += s.dur()
			}
		}
		dl = append(dl, ms(d))
	}
	n := len(runs)
	res.layer["webapi.download_ms"] = metric{median(dl), n}
	res.layer["dgan.train.steps"] = metric{delta(c0, c1, "dgan.train.steps") / float64(n), n}
	res.layer["orchestrator.retries"] = metric{delta(c0, c1, "orchestrator.chunk.retries") / float64(n), n}
	cfg := core.DefaultConfig()
	decodeCounters(res, c0, c1, float64(n*jobGenerate), cfg.MaxLen)
	res.layer["trace_overhead_pct"] = metric{100 * (median(wait) - untracedP50) / untracedP50, n}

	if err := st.replay(e, res, tr, cfg); err != nil {
		return err
	}
	res.spans = tr.snapshot()
	rs := res.spans[len(spans):]
	for metricName, name := range map[string]string{
		"trace.csv_parse_ms": "trace.csv_parse", "registry.put_model_ms": "registry.put_model",
		"store.scan_ms": "store.scan", "trace.ipfix_encode_ms": "trace.ipfix_encode",
		"registry.open_store_ms": "registry.open_store", "core.generate_bulk_s": "core.generate_bulk",
		"store.write_s": "store.write", "orchestrator.seed_chunk_s": "orchestrator.seed_chunk",
	} {
		setLayer(res, metricName, rs, name)
	}
	res.layer["registry.commit_ms"] = selfMs(rs, "registry.commit")
	selfShares(res, rs)
	return nil
}

// replay trains, generates, persists and re-reads one job's result
// through the layers' public functions.
func (st *jobState) replay(e *env, res *result, tr *tracer, cfg core.Config) error {
	res.attempted++
	root := tr.begin("op.job", 0, 0)
	defer root.end()
	sp := tr.begin("trace.csv_parse", root.id(), 0)
	real, err := trace.ReadFlowCSV(strings.NewReader(st.csv))
	sp.end()
	if err != nil {
		return fmt.Errorf("replay: parse input: %w", err)
	}

	// Orchestrator events are points in time; chunk spans are built from
	// each chunk's start and done events.
	var mu sync.Mutex
	starts, ends := map[int]time.Time{}, map[int]time.Time{}
	opts := core.TrainOptions{Orchestration: &orchestrator.Options{OnEvent: func(ev orchestrator.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case orchestrator.EventChunkStart:
			if _, ok := starts[ev.Chunk]; !ok {
				starts[ev.Chunk] = time.Now()
			}
		case orchestrator.EventChunkDone, orchestrator.EventChunkDegraded:
			ends[ev.Chunk] = time.Now()
		}
	}}}
	t0 := time.Now()
	sp = tr.begin("core.train", root.id(), 0)
	syn, err := core.TrainFlowSynthesizerOpts(real, genPackets(e.seed+1, 1500, 10_000_000), cfg, opts)
	sp.end()
	if err != nil {
		return fmt.Errorf("replay: train: %w", err)
	}
	first, ftStart, ftEnd := time.Time{}, time.Time{}, time.Time{}
	for c, s := range starts {
		name := "orchestrator.finetune_chunk"
		if c == 0 {
			name = "orchestrator.seed_chunk"
		} else {
			if ftStart.IsZero() || s.Before(ftStart) {
				ftStart = s
			}
			if ends[c].After(ftEnd) {
				ftEnd = ends[c]
			}
		}
		if first.IsZero() || s.Before(first) {
			first = s
		}
		tr.record(name, sp.id(), s, ends[c])
	}
	res.layer["core.train_prep_ms"] = metric{ms(first.Sub(t0)), 1}
	res.layer["orchestrator.finetune_s"] = metric{ftEnd.Sub(ftStart).Seconds(), len(starts) - 1}

	sp = tr.begin("core.generate_bulk", root.id(), 0)
	gen := syn.Generate(jobGenerate)
	sp.end()
	if !res.check(len(gen.Records) == jobGenerate, "replay: generated %d records, want %d", len(gen.Records), jobGenerate) {
		return nil
	}
	var model bytes.Buffer
	sp = tr.begin("core.save", root.id(), 0)
	err = syn.Save(&model)
	sp.end()
	if err != nil {
		return fmt.Errorf("replay: save model: %w", err)
	}
	const id = "replay-1"
	sp = tr.begin("registry.put_model", root.id(), 0)
	_, err = st.reg.PutModel(id, model.Bytes())
	sp.end()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	commit := tr.begin("registry.commit", root.id(), 0)
	err = st.reg.PutJobStore(registry.JobRecord{ID: id, State: "done", Status: json.RawMessage(`{}`), Model: id, TraceKind: "netflow"},
		func(dir string) error {
			sp := tr.begin("store.write", commit.id(), 0)
			defer sp.end()
			return store.WriteFlowTrace(dir, gen, store.Options{})
		})
	commit.end()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	sp = tr.begin("registry.open_store", root.id(), 0)
	str, err := st.reg.OpenStore(id)
	sp.end()
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	var csv bytes.Buffer
	sp = tr.begin("store.scan", root.id(), 0)
	err = str.WriteCSV(&csv)
	sp.end()
	if err != nil {
		return fmt.Errorf("replay: scan store: %w", err)
	}
	res.check(bytes.Count(csv.Bytes(), []byte("\n")) == jobGenerate+1, "replay: store scan has %d lines, want %d",
		bytes.Count(csv.Bytes(), []byte("\n")), jobGenerate+1)
	var ipfix bytes.Buffer
	sp = tr.begin("trace.ipfix_encode", root.id(), 0)
	err = trace.WriteIPFIX(&ipfix, gen)
	sp.end()
	if err != nil {
		return fmt.Errorf("replay: ipfix: %w", err)
	}
	return nil
}
