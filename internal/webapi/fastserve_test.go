package webapi

import (
	"bytes"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
)

// TestFastServing exercises the fast-path serving stack end to end
// against one trained model (training dominates runtime, so the scenarios
// share a server) plus the generate endpoint's error paths.
func TestFastServing(t *testing.T) {
	dir := t.TempDir()
	ts, api, _ := startServerWithRegistry(t, dir)
	st := postJob(t, ts, tinyJob("netflow"))
	if final := waitDone(t, api, ts, st.ID); final.State != StateDone {
		t.Fatalf("training job failed: %s", final.Error)
	}
	waitPersisted(t, api, st.ID)
	model := st.ID

	t.Run("FastGenerateServes", func(t *testing.T) {
		for i := 0; i < 2; i++ { // second hit serves from the LRU
			code, body := generate(t, ts, model, GenerateRequest{Count: 80, Format: "csv", Fast: true})
			if code != http.StatusOK {
				t.Fatalf("fast generate (call %d): %d %s", i, code, body)
			}
			if lines := bytes.Count(body, []byte("\n")); lines != 81 { // header + 80 records
				t.Fatalf("call %d: got %d CSV lines, want 81", i, lines)
			}
		}
	})

	t.Run("ConcurrentRequestsCoalesce", func(t *testing.T) {
		var mu sync.Mutex
		var batches []int
		release := make(chan struct{})
		first := make(chan struct{})
		var once sync.Once
		api.fastHook = func(name string, batchSize int) {
			mu.Lock()
			batches = append(batches, batchSize)
			mu.Unlock()
			once.Do(func() { close(first) })
			<-release
		}
		defer func() { api.fastHook = nil }()

		var wg sync.WaitGroup
		results := make([]int, 3)
		post := func(i int) {
			defer wg.Done()
			results[i], _ = generate(t, ts, model, GenerateRequest{Count: 40, Fast: true})
		}
		wg.Add(1)
		go post(0)
		<-first // request 0 is mid-batch; the scheduler slot is held
		wg.Add(2)
		go post(1)
		go post(2)
		// Wait until both stragglers are queued on the entry, then let every
		// batch through (the closed channel releases later hooks instantly).
		waitPending(t, api, model, 2)
		close(release)
		wg.Wait()

		for i, code := range results {
			if code != http.StatusOK {
				t.Fatalf("request %d: %d", i, code)
			}
		}
		mu.Lock()
		defer mu.Unlock()
		if len(batches) != 2 || batches[0] != 1 || batches[1] != 2 {
			t.Fatalf("batch sizes = %v, want [1 2] (requests 1+2 coalesced)", batches)
		}
	})

	t.Run("RunnerAnswersBeforeLaterBatches", func(t *testing.T) {
		// Regression: the first arriver runs the scheduler, and once its own
		// batch is done its response must not wait for the batches that
		// queued behind it.
		var mu sync.Mutex
		calls := 0
		firstIn, releaseFirst := make(chan struct{}), make(chan struct{})
		secondIn, releaseSecond := make(chan struct{}), make(chan struct{})
		api.fastHook = func(name string, batchSize int) {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			switch n {
			case 1:
				close(firstIn)
				<-releaseFirst
			case 2:
				close(secondIn)
				<-releaseSecond
			}
		}
		defer func() { api.fastHook = nil }()

		first, second := make(chan int, 1), make(chan int, 1)
		go func() {
			code, _ := generate(t, ts, model, GenerateRequest{Count: 20, Fast: true})
			first <- code
		}()
		<-firstIn // request 0 runs the scheduler and is mid-batch
		go func() {
			code, _ := generate(t, ts, model, GenerateRequest{Count: 20, Fast: true})
			second <- code
		}()
		waitPending(t, api, model, 1)
		close(releaseFirst)
		select {
		case <-secondIn: // the next batch is running and stays blocked
		case <-time.After(20 * time.Second):
			t.Fatal("the queued request's batch never started")
		}
		select {
		case code := <-first:
			if code != http.StatusOK {
				t.Fatalf("runner request: %d", code)
			}
		case <-time.After(20 * time.Second):
			close(releaseSecond)
			t.Fatal("the runner's response waited behind the next batch")
		}
		close(releaseSecond)
		if code := <-second; code != http.StatusOK {
			t.Fatalf("queued request: %d", code)
		}
	})

	t.Run("PanicFailsWaitersAndEvicts", func(t *testing.T) {
		var calls int
		var mu sync.Mutex
		entered := make(chan struct{})
		armed := make(chan struct{})
		api.fastHook = func(name string, batchSize int) {
			mu.Lock()
			calls++
			n := calls
			mu.Unlock()
			if n == 1 {
				close(entered)
				<-armed // hold the batch until a second request queues behind it
				panic("synthetic fast-path failure")
			}
		}
		defer func() { api.fastHook = nil }()

		var wg sync.WaitGroup
		codes := make([]int, 2)
		bodies := make([][]byte, 2)
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[0], bodies[0] = generate(t, ts, model, GenerateRequest{Count: 30, Fast: true})
		}()
		<-entered // request 0 is mid-batch and holds the scheduler slot
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[1], bodies[1] = generate(t, ts, model, GenerateRequest{Count: 30, Fast: true})
		}()
		waitPending(t, api, model, 1) // request 1 is queued behind the doomed batch
		close(armed)
		wg.Wait()

		for i := range codes {
			if codes[i] != http.StatusInternalServerError {
				t.Fatalf("request %d: %d %s, want 500", i, codes[i], bodies[i])
			}
			if !strings.Contains(string(bodies[i]), "panicked") {
				t.Fatalf("request %d body %s does not report the panic", i, bodies[i])
			}
		}
		// The poisoned snapshot was evicted: the next request decodes a
		// fresh one and succeeds (the hook no longer panics).
		code, body := generate(t, ts, model, GenerateRequest{Count: 30, Fast: true})
		if code != http.StatusOK {
			t.Fatalf("post-panic generate: %d %s", code, body)
		}
	})

	t.Run("FastContainerKindServesFast", func(t *testing.T) {
		// Snapshot the stored reference model as a fast container and store
		// it under its own name: it must list with a fast kind and serve via
		// the fast path even without the Fast flag (it has no float64 path).
		framed, _, err := api.registry().ModelBytes(model)
		if err != nil {
			t.Fatal(err)
		}
		syn, err := core.LoadFlowSynthesizer(bytes.NewReader(framed))
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := syn.Fast().Save(&buf); err != nil {
			t.Fatal(err)
		}
		info, err := api.registry().PutModel("snapshot", buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if info.Kind != "flow-fast" {
			t.Fatalf("stored kind %q, want flow-fast", info.Kind)
		}
		code, body := generate(t, ts, "snapshot", GenerateRequest{Count: 50})
		if code != http.StatusOK {
			t.Fatalf("generate from fast container: %d %s", code, body)
		}
		if lines := bytes.Count(body, []byte("\n")); lines != 51 {
			t.Fatalf("got %d CSV lines, want 51", lines)
		}
	})

	t.Run("UnknownModel404", func(t *testing.T) {
		for _, fast := range []bool{false, true} {
			code, body := generate(t, ts, "no-such-model", GenerateRequest{Count: 10, Fast: fast})
			if code != http.StatusNotFound {
				t.Fatalf("fast=%v: %d %s, want 404", fast, code, body)
			}
		}
	})

	t.Run("CountValidation", func(t *testing.T) {
		code, body := generate(t, ts, model, GenerateRequest{Count: 100_001})
		if code != http.StatusBadRequest {
			t.Fatalf("oversized count: %d %s, want 400", code, body)
		}
		// A count that overflows int64 fails JSON decoding, not generation.
		resp, err := http.Post(ts.URL+"/api/v1/models/"+model+"/generate",
			"application/json", strings.NewReader(`{"count": 1e300}`))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("overflow count: %d, want 400", resp.StatusCode)
		}
		// Non-positive counts fall back to the documented default of 1000.
		code, body = generate(t, ts, model, GenerateRequest{Count: -3, Fast: true})
		if code != http.StatusOK {
			t.Fatalf("negative count: %d %s", code, body)
		}
		if lines := bytes.Count(body, []byte("\n")); lines != 1001 {
			t.Fatalf("negative count produced %d CSV lines, want 1001 (default 1000)", lines)
		}
	})

	t.Run("OversizedBodyRejected", func(t *testing.T) {
		huge := `{"count": 10, "pad": "` + strings.Repeat("x", maxGenerateBody+1024) + `"}`
		resp, err := http.Post(ts.URL+"/api/v1/models/"+model+"/generate",
			"application/json", strings.NewReader(huge))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("oversized body: %d, want 400", resp.StatusCode)
		}
	})

	t.Run("GenerateRacesSweep", func(t *testing.T) {
		var wg sync.WaitGroup
		errs := make(chan string, 16)
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func(fast bool) {
				defer wg.Done()
				code, body := generate(t, ts, model, GenerateRequest{Count: 25, Fast: fast})
				if code != http.StatusOK {
					errs <- string(body)
				}
			}(i%2 == 0)
		}
		for i := 0; i < 3; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, err := api.registry().Sweep(); err != nil {
					errs <- err.Error()
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatalf("generate racing sweep failed: %s", e)
		}
	})
}

// waitPending polls until the model's fast entry has n queued waiters.
func waitPending(t *testing.T, api *Server, model string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if entry := api.lookupFast(model); entry != nil {
			entry.mu.Lock()
			queued := len(entry.pending)
			entry.mu.Unlock()
			if queued >= n {
				return
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("fast entry for %s never reached %d pending waiters", model, n)
}
