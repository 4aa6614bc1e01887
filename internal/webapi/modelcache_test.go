package webapi

import (
	"bytes"
	"fmt"
	"net/http"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/datasets"
	"repro/internal/trace"
)

// plainModels trains one unconditional flow and one packet synthesizer and
// shares their saved containers across the entry-cache tests. The tests
// compare bytes, not fidelity, so a few training steps suffice.
var plainModels struct {
	once      sync.Once
	flow, pkt []byte
	err       error
}

func plainModelBytes(t *testing.T) (flow, pkt []byte) {
	t.Helper()
	plainModels.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Chunks = 2
		cfg.MaxLen = 3
		cfg.SeedSteps = 20
		cfg.FineTuneSteps = 5
		cfg.EmbedEpochs = 2
		cfg.Hidden = 24
		public := datasets.CAIDAChicago(1200, 8)
		fsyn, err := core.TrainFlowSynthesizer(datasets.UGR16(300, 9), public, cfg)
		if err != nil {
			plainModels.err = err
			return
		}
		psyn, err := core.TrainPacketSynthesizer(datasets.CAIDA(600, 10), public, cfg)
		if err != nil {
			plainModels.err = err
			return
		}
		var fb, pb bytes.Buffer
		if plainModels.err = fsyn.Save(&fb); plainModels.err != nil {
			return
		}
		if plainModels.err = psyn.Save(&pb); plainModels.err != nil {
			return
		}
		plainModels.flow, plainModels.pkt = fb.Bytes(), pb.Bytes()
	})
	if plainModels.err != nil {
		t.Fatal(plainModels.err)
	}
	return plainModels.flow, plainModels.pkt
}

// refFlowCSV is the exact path's contract: the CSV of the first generate
// of a freshly loaded flow container (label -1 for the mixture).
func refFlowCSV(t *testing.T, model []byte, n, label int) []byte {
	t.Helper()
	syn, err := core.LoadFlowSynthesizer(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	var gen *trace.FlowTrace
	if label < 0 {
		gen = syn.Generate(n)
	} else if gen, err = syn.GenerateLabeled(n, trace.Label(label)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WriteFlowCSV(&buf, gen); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// refPacketCSV is refFlowCSV for packet containers.
func refPacketCSV(t *testing.T, model []byte, n int) []byte {
	t.Helper()
	syn, err := core.LoadPacketSynthesizer(bytes.NewReader(model))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := trace.WritePacketCSV(&buf, syn.Generate(n)); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestOverwrittenModelServesNewContainer is the stale-entry regression: a
// model overwritten under the same name (Registry.PutModel, as
// `netshare -registry` does) must serve the new container on both paths
// at once, not a cached decode of the old one.
func TestOverwrittenModelServesNewContainer(t *testing.T) {
	modelA, _, _ := conditionalModelBytes(t)
	modelB, _ := plainModelBytes(t)
	ts, api, _ := startServerWithRegistry(t, t.TempDir())

	const n = 60
	if _, err := api.registry().PutModel("m", modelA); err != nil {
		t.Fatal(err)
	}
	for _, fast := range []bool{false, true} {
		if code, body := generate(t, ts, "m", GenerateRequest{Count: n, Fast: fast}); code != http.StatusOK {
			t.Fatalf("generate from A (fast=%v): %d %s", fast, code, body)
		}
	}

	if _, err := api.registry().PutModel("m", modelB); err != nil {
		t.Fatal(err)
	}
	code, exact := generate(t, ts, "m", GenerateRequest{Count: n})
	if code != http.StatusOK {
		t.Fatalf("exact generate from B: %d %s", code, exact)
	}
	if want := refFlowCSV(t, modelB, n, -1); !bytes.Equal(exact, want) {
		t.Fatal("exact response after the overwrite is not a fresh load of B")
	}
	if bytes.Equal(exact, refFlowCSV(t, modelA, n, -1)) {
		t.Fatal("models A and B generate identical bytes; the test cannot tell them apart")
	}

	// The first fast request on B's entry runs B's snapshot from its
	// canonical fast stream, so it equals a fresh B snapshot's first batch.
	code, fast := generate(t, ts, "m", GenerateRequest{Count: n, Fast: true})
	if code != http.StatusOK {
		t.Fatalf("fast generate from B: %d %s", code, fast)
	}
	syn, err := core.LoadFlowSynthesizer(bytes.NewReader(modelB))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	if err := trace.WriteFlowCSV(&want, syn.Fast().Generate(n)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fast, want.Bytes()) {
		t.Fatal("fast response after the overwrite is not B's snapshot")
	}
}

// TestConcurrentExactGeneratesShareOneDecode pins the serving contract of
// the cached entry: concurrent exact-path generates over a flow and a
// packet model, mixing counts and labels and interleaved with fast
// requests on the same entries, each return exactly the bytes of a fresh
// load for their (count, label), and none of them decodes a container.
func TestConcurrentExactGeneratesShareOneDecode(t *testing.T) {
	cond, _, catalog := conditionalModelBytes(t)
	_, pkt := plainModelBytes(t)
	ts, api, _ := startServerWithRegistry(t, t.TempDir())
	for name, model := range map[string][]byte{"cond": cond, "pkt": pkt} {
		if _, err := api.registry().PutModel(name, model); err != nil {
			t.Fatal(err)
		}
		// Warm the entry: this request decodes the container.
		if code, body := generate(t, ts, name, GenerateRequest{Count: 10}); code != http.StatusOK {
			t.Fatalf("warm-up %s: %d %s", name, code, body)
		}
	}

	type call struct {
		model string
		req   GenerateRequest
		want  []byte // nil for fast requests, whose bytes depend on ordering
	}
	var calls []call
	for _, n := range []int{37, 400} {
		calls = append(calls, call{"cond", GenerateRequest{Count: n}, refFlowCSV(t, cond, n, -1)})
		for _, l := range catalog[:2] {
			calls = append(calls, call{"cond", GenerateRequest{Count: n, Label: l.String()}, refFlowCSV(t, cond, n, int(l))})
		}
		calls = append(calls, call{"pkt", GenerateRequest{Count: n}, refPacketCSV(t, pkt, n)})
		calls = append(calls,
			call{"cond", GenerateRequest{Count: n, Fast: true}, nil},
			call{"cond", GenerateRequest{Count: n, Fast: true, Label: catalog[0].String()}, nil},
			call{"pkt", GenerateRequest{Count: n, Fast: true}, nil})
	}
	calls = append(calls, calls...) // every request twice, concurrently

	hits0, misses0 := telModelCacheHits.Value(), telModelCacheMiss.Value()
	var wg sync.WaitGroup
	errs := make(chan string, len(calls))
	for _, c := range calls {
		wg.Add(1)
		go func(c call) {
			defer wg.Done()
			code, body := generate(t, ts, c.model, c.req)
			switch {
			case code != http.StatusOK:
				errs <- fmt.Sprintf("%s %+v: %d %s", c.model, c.req, code, body)
			case c.want != nil && !bytes.Equal(body, c.want):
				errs <- fmt.Sprintf("%s %+v: body differs from a fresh load", c.model, c.req)
			case c.want == nil && bytes.Count(body, []byte("\n")) != c.req.Count+1:
				errs <- fmt.Sprintf("%s %+v: %d CSV lines", c.model, c.req, bytes.Count(body, []byte("\n")))
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if d := telModelCacheMiss.Value() - misses0; d != 0 {
		t.Fatalf("%d container decodes after warm-up, want 0", d)
	}
	if d := telModelCacheHits.Value() - hits0; d != int64(len(calls)) {
		t.Fatalf("%d entry-cache hits for %d requests", d, len(calls))
	}
}

// TestIdenticalRetrainKeepsChecksumAndEntry: a saved model carries no run
// costs, so two identical training jobs store byte-identical containers
// under one registry checksum, and overwriting a served model with an
// identical retrain keeps its cached entry: the next generate is a cache
// hit with no second decode.
func TestIdenticalRetrainKeepsChecksumAndEntry(t *testing.T) {
	ts, api, _ := startServerWithRegistry(t, t.TempDir())
	var models [][]byte
	var sums []uint32
	for range 2 {
		st := postJob(t, ts, tinyJob("netflow"))
		if final := waitDone(t, api, ts, st.ID); final.State != StateDone {
			t.Fatalf("job %s failed: %s", st.ID, final.Error)
		}
		waitPersisted(t, api, st.ID)
		model, info, err := api.registry().ModelBytes(st.ID)
		if err != nil {
			t.Fatal(err)
		}
		models, sums = append(models, model), append(sums, info.Checksum)
	}
	if sums[0] != sums[1] || !bytes.Equal(models[0], models[1]) {
		t.Fatalf("identical jobs stored checksums %08x and %08x", sums[0], sums[1])
	}

	const n = 50
	if _, err := api.registry().PutModel("m", models[0]); err != nil {
		t.Fatal(err)
	}
	if code, body := generate(t, ts, "m", GenerateRequest{Count: n}); code != http.StatusOK {
		t.Fatalf("warm-up generate: %d %s", code, body)
	}
	if _, err := api.registry().PutModel("m", models[1]); err != nil {
		t.Fatal(err)
	}
	hits0, misses0 := telModelCacheHits.Value(), telModelCacheMiss.Value()
	code, body := generate(t, ts, "m", GenerateRequest{Count: n})
	if code != http.StatusOK {
		t.Fatalf("generate after the retrain: %d %s", code, body)
	}
	if !bytes.Equal(body, refFlowCSV(t, models[1], n, -1)) {
		t.Fatal("generate after the retrain is not a fresh load of the container")
	}
	if d := telModelCacheMiss.Value() - misses0; d != 0 {
		t.Fatalf("%d container decodes after an identical retrain, want 0", d)
	}
	if d := telModelCacheHits.Value() - hits0; d != 1 {
		t.Fatalf("%d entry-cache hits, want 1", d)
	}
}
