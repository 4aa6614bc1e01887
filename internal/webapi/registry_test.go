package webapi

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/registry"
)

// startServerWithRegistry builds a server attached to a registry rooted
// at dir, recovering whatever the directory already holds.
func startServerWithRegistry(t *testing.T, dir string) (*httptest.Server, *Server, RecoveryStats) {
	t.Helper()
	reg, err := registry.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	api := NewServer(1)
	stats, err := api.UseRegistry(reg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)
	return ts, api, stats
}

// waitPersisted blocks until the job's registry record exists: the job
// state flips to done slightly before the persistence calls in the run
// body complete, so tests that restart must wait for the disk, not the
// status.
func waitPersisted(t *testing.T, api *Server, id string) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if _, err := api.registry().Job(id); err == nil {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("job %s was never persisted", id)
}

// waitFinished blocks until notify (a Server.Notifications channel taken
// before the job was submitted) reports job id: that fires after the run
// body, persistence included, has returned.
func waitFinished(t *testing.T, notify <-chan string, id string) {
	t.Helper()
	deadline := time.After(120 * time.Second)
	for {
		select {
		case got := <-notify:
			if got == id {
				return
			}
		case <-deadline:
			t.Fatalf("job %s did not finish", id)
		}
	}
}

// fetch GETs a path and returns status code and body.
func fetch(t *testing.T, ts *httptest.Server, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// generate POSTs a model-generation request and returns status and body.
func generate(t *testing.T, ts *httptest.Server, model string, req GenerateRequest) (int, []byte) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/api/v1/models/"+model+"/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestRestartRecoversJobsAndServesIdenticalBytes is the crash-recovery
// acceptance test: train on server A, kill it, boot server B on the same
// registry directory, and require B to report the job, stream the same
// trace download, and generate bitwise-identical output from the
// recovered model.
func TestRestartRecoversJobsAndServesIdenticalBytes(t *testing.T) {
	dir := t.TempDir()
	tsA, apiA, _ := startServerWithRegistry(t, dir)

	st := postJob(t, tsA, tinyJob("netflow"))
	final := waitDone(t, apiA, tsA, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	waitPersisted(t, apiA, st.ID)

	codeA, csvA := fetch(t, tsA, "/api/v1/jobs/"+st.ID+"/trace?format=csv")
	if codeA != http.StatusOK || len(csvA) == 0 {
		t.Fatalf("download on A: %d", codeA)
	}
	codeA, nf5A := fetch(t, tsA, "/api/v1/jobs/"+st.ID+"/trace?format=netflow5")
	if codeA != http.StatusOK || len(nf5A) == 0 {
		t.Fatalf("netflow5 download on A: %d", codeA)
	}
	genReq := GenerateRequest{Count: 64, Format: "csv"}
	codeA, genA := generate(t, tsA, st.ID, genReq)
	if codeA != http.StatusOK || len(genA) == 0 {
		t.Fatalf("generate on A: %d %s", codeA, genA)
	}

	// Kill server A without any graceful persistence step: everything B
	// sees must already be durable.
	tsA.Close()

	tsB, _, stats := startServerWithRegistry(t, dir)
	if stats.Jobs != 1 || stats.Models != 1 {
		t.Fatalf("recovery stats = %+v, want 1 job and 1 model", stats)
	}

	codeB, body := fetch(t, tsB, "/api/v1/jobs/"+st.ID)
	if codeB != http.StatusOK {
		t.Fatalf("status on B: %d %s", codeB, body)
	}
	var recovered JobStatus
	if err := json.Unmarshal(body, &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.State != StateDone || recovered.Records != final.Records ||
		recovered.CPUMillis != final.CPUMillis || len(recovered.Chunks) != len(final.Chunks) {
		t.Fatalf("recovered status drifted:\n  got  %+v\n  want %+v", recovered, final)
	}

	// The streamed CSV download must be byte-identical to pre-restart.
	codeB, csvB := fetch(t, tsB, "/api/v1/jobs/"+st.ID+"/trace?format=csv")
	if codeB != http.StatusOK {
		t.Fatalf("download on B: %d", codeB)
	}
	if !bytes.Equal(csvA, csvB) {
		t.Fatal("CSV download differs across restart")
	}
	// Re-encoded formats rebuild the trace from the stored payload; the
	// integer-only CSV schema makes that lossless, so these match too.
	codeB, nf5B := fetch(t, tsB, "/api/v1/jobs/"+st.ID+"/trace?format=netflow5")
	if codeB != http.StatusOK {
		t.Fatalf("netflow5 download on B: %d", codeB)
	}
	if !bytes.Equal(nf5A, nf5B) {
		t.Fatal("netflow5 download differs across restart")
	}
	// Generation from the recovered model container must be bitwise
	// identical to the pre-restart model (same seed, same streams).
	codeB, genB := generate(t, tsB, st.ID, genReq)
	if codeB != http.StatusOK {
		t.Fatalf("generate on B: %d %s", codeB, genB)
	}
	if !bytes.Equal(genA, genB) {
		t.Fatal("model generation differs across restart")
	}
}

// TestRestartRecoversFailedJobs checks terminal failures survive too.
func TestRestartRecoversFailedJobs(t *testing.T) {
	dir := t.TempDir()
	tsA, apiA, _ := startServerWithRegistry(t, dir)

	req := tinyJob("netflow")
	req.Dataset = "no-such-dataset"
	st := postJob(t, tsA, req)
	final := waitDone(t, apiA, tsA, st.ID)
	if final.State != StateFailed || final.Error == "" {
		t.Fatalf("expected failure, got %+v", final)
	}
	waitPersisted(t, apiA, st.ID)
	tsA.Close()

	tsB, _, stats := startServerWithRegistry(t, dir)
	if stats.Jobs != 1 {
		t.Fatalf("recovery stats = %+v, want 1 job", stats)
	}
	code, body := fetch(t, tsB, "/api/v1/jobs/"+st.ID)
	if code != http.StatusOK {
		t.Fatalf("status on B: %d", code)
	}
	var recovered JobStatus
	if err := json.Unmarshal(body, &recovered); err != nil {
		t.Fatal(err)
	}
	if recovered.State != StateFailed || recovered.Error != final.Error {
		t.Fatalf("failure not recovered: %+v", recovered)
	}
	// A failed job has no trace; downloads must 404 cleanly, not panic.
	code, _ = fetch(t, tsB, "/api/v1/jobs/"+st.ID+"/trace")
	if code != http.StatusConflict {
		t.Fatalf("download of failed job: %d, want %d", code, http.StatusConflict)
	}
}

// TestNewJobIDsStayMonotonicAfterRecovery guards against a restarted
// server reusing a recovered job's ID for a new submission.
func TestNewJobIDsStayMonotonicAfterRecovery(t *testing.T) {
	dir := t.TempDir()
	tsA, apiA, _ := startServerWithRegistry(t, dir)
	st := postJob(t, tsA, tinyJob("netflow"))
	waitDone(t, apiA, tsA, st.ID)
	waitPersisted(t, apiA, st.ID)
	tsA.Close()

	tsB, apiB, _ := startServerWithRegistry(t, dir)
	st2 := postJob(t, tsB, tinyJob("netflow"))
	if st2.ID == st.ID {
		t.Fatalf("restarted server reused job ID %s", st.ID)
	}
	waitDone(t, apiB, tsB, st2.ID)
	// Persistence completes after the status flips to done; without this
	// wait, TempDir cleanup races the registry write still in flight.
	waitPersisted(t, apiB, st2.ID)
}

// TestModelsEndpoint covers the registry-backed model listing and its
// error paths.
func TestModelsEndpoint(t *testing.T) {
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)

	code, body := fetch(t, ts, "/api/v1/models")
	if code != http.StatusOK {
		t.Fatalf("empty list: %d", code)
	}
	var list struct {
		Models []registry.ModelInfo `json:"models"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 0 {
		t.Fatalf("fresh registry lists %d models", len(list.Models))
	}

	st := postJob(t, ts, tinyJob("pcap"))
	final := waitDone(t, api, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	waitPersisted(t, api, st.ID)

	code, body = fetch(t, ts, "/api/v1/models")
	if code != http.StatusOK {
		t.Fatalf("list: %d", code)
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Models) != 1 || list.Models[0].Name != st.ID || list.Models[0].Kind != "packet" {
		t.Fatalf("models = %+v", list.Models)
	}

	// Packet models serve pcap, reject netflow5, 404 on unknown names.
	if code, _ := generate(t, ts, st.ID, GenerateRequest{Count: 16, Format: "pcap"}); code != http.StatusOK {
		t.Fatalf("pcap generate: %d", code)
	}
	if code, _ := generate(t, ts, st.ID, GenerateRequest{Format: "netflow5"}); code != http.StatusBadRequest {
		t.Fatalf("wrong format: %d", code)
	}
	if code, _ := generate(t, ts, "nope", GenerateRequest{}); code != http.StatusNotFound {
		t.Fatalf("unknown model: %d", code)
	}
	if code, _ := generate(t, ts, st.ID, GenerateRequest{Count: 1_000_000}); code != http.StatusBadRequest {
		t.Fatalf("oversized count: %d", code)
	}
}

// TestModelEndpointsWithoutRegistry: a memory-only server must answer
// 503, not crash, on the registry-backed endpoints.
func TestModelEndpointsWithoutRegistry(t *testing.T) {
	ts, _ := startServer(t)
	if code, _ := fetch(t, ts, "/api/v1/models"); code != http.StatusServiceUnavailable {
		t.Fatalf("models without registry: %d", code)
	}
	if code, _ := generate(t, ts, "m", GenerateRequest{}); code != http.StatusServiceUnavailable {
		t.Fatalf("generate without registry: %d", code)
	}
}

// TestGenerateIsDeterministicPerRequest: two identical requests against
// the same stored model produce identical bytes (stateless serving).
func TestGenerateIsDeterministicPerRequest(t *testing.T) {
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)
	st := postJob(t, ts, tinyJob("netflow"))
	final := waitDone(t, api, ts, st.ID)
	if final.State != StateDone {
		t.Fatalf("job failed: %s", final.Error)
	}
	waitPersisted(t, api, st.ID)

	req := GenerateRequest{Count: 32, Format: "netflow5"}
	_, a := generate(t, ts, st.ID, req)
	_, b := generate(t, ts, st.ID, req)
	if !bytes.Equal(a, b) {
		t.Fatal("repeated generation from a stored model is not deterministic")
	}
}
