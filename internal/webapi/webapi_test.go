package webapi

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/datasets"
	"repro/internal/orchestrator"
	"repro/internal/trace"
)

// tinyJob returns a request that trains in ~1s.
func tinyJob(kind string) JobRequest {
	return JobRequest{
		Kind:          kind,
		Dataset:       map[string]string{"netflow": "ugr16", "pcap": "caida"}[kind],
		Records:       200,
		Generate:      120,
		Chunks:        2,
		SeedSteps:     60,
		FineTuneSteps: 20,
		MaxLen:        3,
		Seed:          1,
		Parallelism:   2,
	}
}

func startServer(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	api := NewServer(1)
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, api
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) JobStatus {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("submit: %d %s", resp.StatusCode, b)
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func waitDone(t *testing.T, api *Server, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	notify := api.Notifications()
	deadline := time.After(120 * time.Second)
	for {
		st := getStatus(t, ts, id)
		switch st.State {
		case StateDone, StateFailed:
			return st
		}
		select {
		case <-notify:
		case <-time.After(200 * time.Millisecond):
		case <-deadline:
			t.Fatalf("job %s did not finish", id)
		}
	}
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

func TestIndexPage(t *testing.T) {
	ts, _ := startServer(t)
	resp, err := http.Get(ts.URL + "/")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("index: %d", resp.StatusCode)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out["service"] == "" {
		t.Fatal("index must describe the service")
	}
	// Unknown paths 404.
	resp2, err := http.Get(ts.URL + "/nope")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown path: %d", resp2.StatusCode)
	}

	// Every route the mux registers is listed, with and without the
	// profiling endpoints, and every listed endpoint routes to its handler.
	for _, debug := range []bool{false, true} {
		api := NewServer(1)
		api.Debug = debug
		mux := api.Handler().(*http.ServeMux)
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/", nil))
		var index struct{ Endpoints []string }
		if err := json.NewDecoder(rec.Body).Decode(&index); err != nil {
			t.Fatal(err)
		}
		listed := map[string]bool{}
		for _, e := range index.Endpoints {
			listed[e] = true
		}
		routes := api.routes()
		if len(index.Endpoints) != len(routes) {
			t.Errorf("debug=%v: index lists %d endpoints, the mux registers %d", debug, len(index.Endpoints), len(routes))
		}
		for _, rt := range routes {
			if !listed[rt.endpoint()] {
				t.Errorf("debug=%v: index omits registered route %q", debug, rt.endpoint())
			}
			method, path, ok := strings.Cut(strings.Replace(rt.pattern, "{$}", "", 1), " ")
			if !ok {
				method, path = http.MethodGet, method
			}
			path = strings.NewReplacer("{id}", "x", "{name}", "x").Replace(path)
			if _, pattern := mux.Handler(httptest.NewRequest(method, path, nil)); pattern != rt.pattern {
				t.Errorf("%s %s routes to %q, want %q", method, path, pattern, rt.pattern)
			}
		}
		// The endpoints a hand-kept list once omitted.
		for _, e := range []string{
			"GET /api/v1/ingest",
			"GET /api/v1/cluster",
			"POST /api/v1/cluster/workers/{id}",
			"GET /metrics?format=prom",
			"GET /api/v1/jobs/{id}/trace?format=csv|pcap|netflow5|netflow9|ipfix",
		} {
			if !listed[e] {
				t.Errorf("debug=%v: index omits %q", debug, e)
			}
		}
		if listed["/debug/pprof/"] != debug {
			t.Errorf("debug=%v: index lists /debug/pprof/ = %v", debug, listed["/debug/pprof/"])
		}
	}
}

func TestHealthz(t *testing.T) {
	ts, _ := startServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}
}

func TestDatasetsEndpoint(t *testing.T) {
	ts, _ := startServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/datasets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string][]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out["netflow"]) != 3 || len(out["pcap"]) != 4 {
		t.Fatalf("datasets = %v", out)
	}
}

func TestNetFlowJobLifecycle(t *testing.T) {
	ts, api := startServer(t)
	st := postJob(t, ts, tinyJob("netflow"))
	if st.State != StatePending && st.State != StateRunning {
		t.Fatalf("initial state %s", st.State)
	}
	final := waitDone(t, api, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	if final.Records != 120 {
		t.Fatalf("generated %d records", final.Records)
	}
	if final.CPUMillis <= 0 || final.WallMillis <= 0 {
		t.Fatalf("missing stats: %+v", final)
	}

	// CSV download parses back into a trace.
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace?format=csv")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("download: %d", resp.StatusCode)
	}
	got, err := trace.ReadFlowCSV(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 120 {
		t.Fatalf("downloaded %d records", len(got.Records))
	}

	// NetFlow v5 download starts with the version word.
	resp2, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace?format=netflow5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	if len(raw) < 2 || binary.BigEndian.Uint16(raw) != 5 {
		t.Fatal("netflow5 download is not a v5 stream")
	}

	// pcap format is invalid for a flow job.
	resp3, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace?format=pcap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	if resp3.StatusCode != http.StatusBadRequest {
		t.Fatalf("pcap on flow job: %d", resp3.StatusCode)
	}
}

func TestPCAPJobProducesValidPCAP(t *testing.T) {
	ts, api := startServer(t)
	st := postJob(t, ts, tinyJob("pcap"))
	final := waitDone(t, api, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace?format=pcap")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/vnd.tcpdump.pcap" {
		t.Fatalf("content type %q", ct)
	}
	got, err := trace.ReadPCAP(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Packets) != 120 {
		t.Fatalf("downloaded %d packets", len(got.Packets))
	}
}

func TestInlineCSVJob(t *testing.T) {
	ts, api := startServer(t)
	var buf bytes.Buffer
	if err := trace.WriteFlowCSV(&buf, datasets.UGR16(150, 3)); err != nil {
		t.Fatal(err)
	}
	req := tinyJob("netflow")
	req.Dataset = ""
	req.Records = 0
	req.CSV = buf.String()
	st := postJob(t, ts, req)
	final := waitDone(t, api, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("inline CSV job failed: %s", final.Error)
	}
}

func TestSubmitValidation(t *testing.T) {
	ts, _ := startServer(t)
	cases := []struct {
		name string
		body string
	}{
		{"bad json", "{"},
		{"bad kind", `{"kind":"ipfix","dataset":"ugr16"}`},
		{"both sources", `{"kind":"netflow","dataset":"ugr16","csv":"x"}`},
		{"no source", `{"kind":"netflow"}`},
		{"huge generate", `{"kind":"netflow","dataset":"ugr16","generate":1000000}`},
		{"bad dp", `{"kind":"netflow","dataset":"ugr16","dp":{"noiseMultiplier":-1}}`},
		{"bad parallelism", `{"kind":"netflow","dataset":"ugr16","parallelism":-1}`},
	}
	for _, c := range cases {
		resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: got %d, want 400", c.name, resp.StatusCode)
		}
	}
}

func TestUnknownDatasetFailsJob(t *testing.T) {
	ts, api := startServer(t)
	req := tinyJob("netflow")
	req.Dataset = "nonexistent"
	st := postJob(t, ts, req)
	final := waitDone(t, api, ts, st.ID)
	if final.State != StateFailed {
		t.Fatalf("expected failure, got %s", final.State)
	}
	if !strings.Contains(final.Error, "unknown") {
		t.Fatalf("error = %q", final.Error)
	}
}

func TestStatusAndDownloadErrors(t *testing.T) {
	ts, _ := startServer(t)
	resp, err := http.Get(ts.URL + "/api/v1/jobs/job-999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job: %d", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/api/v1/jobs/job-999/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing job trace: %d", resp.StatusCode)
	}
}

func TestDownloadBeforeDoneConflicts(t *testing.T) {
	ts, api := startServer(t)
	st := postJob(t, ts, tinyJob("netflow"))
	resp, err := http.Get(ts.URL + "/api/v1/jobs/" + st.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	// Either the job is already done (fast machine) or we get a conflict.
	if resp.StatusCode != http.StatusConflict && resp.StatusCode != http.StatusOK {
		t.Fatalf("early download: %d", resp.StatusCode)
	}
	waitDone(t, api, ts, st.ID)
}

func TestListJobs(t *testing.T) {
	ts, api := startServer(t)
	a := postJob(t, ts, tinyJob("netflow"))
	waitDone(t, api, ts, a.ID)

	resp, err := http.Get(ts.URL + "/api/v1/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list []JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if len(list) != 1 || list[0].ID != a.ID {
		t.Fatalf("list = %+v", list)
	}
}

func TestDPJobReportsEpsilon(t *testing.T) {
	ts, api := startServer(t)
	req := tinyJob("netflow")
	req.SeedSteps = 15
	req.DP = &DPRequest{NoiseMultiplier: 1.0, Pretrain: true}
	st := postJob(t, ts, req)
	final := waitDone(t, api, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("DP job failed: %s", final.Error)
	}
	if final.Epsilon <= 0 {
		t.Fatalf("epsilon = %v", final.Epsilon)
	}
}

func TestConcurrentJobsQueue(t *testing.T) {
	ts, api := startServer(t)
	var ids []string
	for i := 0; i < 3; i++ {
		req := tinyJob("netflow")
		req.Seed = int64(i + 1)
		ids = append(ids, postJob(t, ts, req).ID)
	}
	for _, id := range ids {
		if st := waitDone(t, api, ts, id); st.State != StateDone {
			t.Fatalf("job %s: %s (%s)", id, st.State, st.Error)
		}
	}
}

func TestRequestConfigDefaults(t *testing.T) {
	req := JobRequest{}
	cfg := req.config()
	if cfg.Chunks <= 0 || cfg.SeedSteps <= 0 {
		t.Fatal("defaults not applied")
	}
	req = JobRequest{DP: &DPRequest{NoiseMultiplier: 0.5}}
	cfg = req.config()
	if cfg.DP == nil || cfg.Chunks != 1 {
		t.Fatal("DP config not applied")
	}
	if cfg.DP.PretrainSteps != cfg.SeedSteps {
		t.Fatal("DP pretrain steps should default to seed steps")
	}
	req = JobRequest{Parallelism: 3}
	if cfg = req.config(); cfg.Parallelism != 3 {
		t.Fatal("parallelism not passed through")
	}
}

func ExampleServer() {
	// Programmatic use: mount the API under your own mux.
	api := NewServer(2)
	mux := http.NewServeMux()
	mux.Handle("/", api.Handler())
	fmt.Println("mounted")
	// Output: mounted
}

func TestJobReportsChunkStatus(t *testing.T) {
	ts, api := startServer(t)
	job := postJob(t, ts, tinyJob("netflow"))
	st := waitDone(t, api, ts, job.ID)
	if st.State != StateDone {
		t.Fatalf("job state = %s (%s)", st.State, st.Error)
	}
	if len(st.Chunks) != 2 {
		t.Fatalf("chunk status count = %d, want 2", len(st.Chunks))
	}
	for i, c := range st.Chunks {
		if c.State != ChunkDone || c.Attempts != 1 {
			t.Fatalf("chunk %d = %+v, want done after 1 attempt", i, c)
		}
	}
}

func TestMaxRetriesValidation(t *testing.T) {
	ts, _ := startServer(t)
	bad := tinyJob("netflow")
	bad.MaxRetries = 11
	body, _ := json.Marshal(bad)
	resp, err := http.Post(ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("maxRetries=11: status %d, want 400", resp.StatusCode)
	}
}

func TestChunkEventProgression(t *testing.T) {
	api := NewServer(1)
	api.jobs["job-x"] = &job{status: JobStatus{ID: "job-x"}}
	api.initChunks("job-x", 2)
	for _, c := range api.jobs["job-x"].status.Chunks {
		if c.State != ChunkPending {
			t.Fatalf("initial chunk state = %q", c.State)
		}
	}
	api.chunkEvent("job-x", orchestrator.Event{Kind: orchestrator.EventChunkStart, Chunk: 1})
	if got := api.jobs["job-x"].status.Chunks[1].State; got != ChunkTraining {
		t.Fatalf("after start: %q", got)
	}
	api.chunkEvent("job-x", orchestrator.Event{Kind: orchestrator.EventChunkRetry, Chunk: 1, Attempt: 1})
	if c := api.jobs["job-x"].status.Chunks[1]; c.State != ChunkRetrying || c.Attempts != 1 {
		t.Fatalf("after retry: %+v", c)
	}
	api.chunkEvent("job-x", orchestrator.Event{Kind: orchestrator.EventChunkDegraded, Chunk: 1, Attempt: 2})
	if c := api.jobs["job-x"].status.Chunks[1]; c.State != ChunkDegraded || c.Attempts != 2 {
		t.Fatalf("after degrade: %+v", c)
	}
	// Out-of-range and manifest-level events must be ignored, not panic.
	api.chunkEvent("job-x", orchestrator.Event{Kind: orchestrator.EventCheckpointError, Chunk: -1})
	api.chunkEvent("job-x", orchestrator.Event{Kind: orchestrator.EventChunkDone, Chunk: 9})
	api.chunkEvent("job-missing", orchestrator.Event{Kind: orchestrator.EventChunkDone, Chunk: 0})
}
