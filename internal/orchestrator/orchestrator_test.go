package orchestrator

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// fakeModel stands in for a trained dgan model: its payload is a
// deterministic function of (chunk, stream, provenance), so bitwise
// equality of payloads proves the orchestrator reproduced a run exactly.
type fakeModel struct{ payload string }

func (m *fakeModel) Encode() ([]byte, error) { return []byte(m.payload), nil }

// trainLog counts training invocations per chunk (guarded for the
// parallel fan-out).
type trainLog struct {
	mu     sync.Mutex
	trains map[int]int
}

func newTrainLog() *trainLog { return &trainLog{trains: make(map[int]int)} }

func (l *trainLog) inc(idx int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.trains[idx]++
}

func (l *trainLog) count(idx int) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.trains[idx]
}

// fakeSpec builds a deterministic spec over n chunks: the seed payload
// depends on its stream, fine-tunes on (idx, stream, seed payload), and
// the fallback marks itself as degraded seed weights.
func fakeSpec(n int, seed int64, log *trainLog) Spec {
	return Spec{
		NumChunks:  n,
		ConfigHash: 0xc0ffee,
		BaseSeed:   seed,
		TrainSeed: func(run ChunkRun) (Model, error) {
			log.inc(0)
			return &fakeModel{payload: fmt.Sprintf("seed|stream=%d", run.Stream)}, nil
		},
		FineTune: func(run ChunkRun, seedM Model) (Model, error) {
			log.inc(run.Idx)
			sp, _ := seedM.Encode()
			return &fakeModel{payload: fmt.Sprintf("chunk-%d|stream=%d|from=%s", run.Idx, run.Stream, sp)}, nil
		},
		Fallback: func(idx int, seedM Model) (Model, error) {
			sp, _ := seedM.Encode()
			return &fakeModel{payload: fmt.Sprintf("fallback-%d|from=%s", idx, sp)}, nil
		},
		Decode: func(data []byte) (Model, error) {
			return &fakeModel{payload: string(data)}, nil
		},
	}
}

func payloads(t *testing.T, res *Result) []string {
	t.Helper()
	out := make([]string, len(res.Models))
	for i, m := range res.Models {
		b, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = string(b)
	}
	return out
}

func equalPayloads(t *testing.T, got, want []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("chunk count %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("chunk %d payload %q, want %q", i, got[i], want[i])
		}
	}
}

// reference runs the spec with no faults and no checkpointing — the
// ground truth every fault-ridden or resumed run must reproduce.
func reference(t *testing.T, n int, seed int64) []string {
	t.Helper()
	res, err := Run(Options{}, fakeSpec(n, seed, newTrainLog()))
	if err != nil {
		t.Fatal(err)
	}
	return payloads(t, res)
}

func TestRunNoFaults(t *testing.T) {
	log := newTrainLog()
	res, err := Run(Options{}, fakeSpec(4, 7, log))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if res.Attempts[i] != 1 || res.Resumed[i] || res.Degraded[i] {
			t.Fatalf("chunk %d: attempts=%d resumed=%v degraded=%v",
				i, res.Attempts[i], res.Resumed[i], res.Degraded[i])
		}
		if log.count(i) != 1 {
			t.Fatalf("chunk %d trained %d times", i, log.count(i))
		}
	}
}

func TestRunParallelMatchesSerial(t *testing.T) {
	serial := reference(t, 5, 11)
	spec := fakeSpec(5, 11, newTrainLog())
	spec.Parallel = true
	res, err := Run(Options{}, spec)
	if err != nil {
		t.Fatal(err)
	}
	equalPayloads(t, payloads(t, res), serial)
}

// TestFaultRetrySucceeds is the fail-then-retry-succeeds row of the fault
// matrix: transient failures inside the retry budget must not change the
// final models.
func TestFaultRetrySucceeds(t *testing.T) {
	want := reference(t, 3, 5)
	var slept []time.Duration
	spec := fakeSpec(3, 5, newTrainLog())
	res, err := Run(Options{
		MaxRetries: 2,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
		FailChunk: func(idx, attempt int) error {
			if idx == 1 && attempt < 2 {
				return fmt.Errorf("injected fault idx=%d attempt=%d", idx, attempt)
			}
			return nil
		},
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	equalPayloads(t, payloads(t, res), want)
	if res.Attempts[1] != 3 {
		t.Fatalf("chunk 1 attempts = %d, want 3", res.Attempts[1])
	}
	if res.Degraded[1] {
		t.Fatal("chunk 1 must not degrade inside the retry budget")
	}
	wantSleep := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond}
	if len(slept) != len(wantSleep) || slept[0] != wantSleep[0] || slept[1] != wantSleep[1] {
		t.Fatalf("backoff sleeps = %v, want %v", slept, wantSleep)
	}
}

// TestBackoffCapped: retry delays start at 100ms, double per attempt
// and stop growing at 5s.
func TestBackoffCapped(t *testing.T) {
	var slept []time.Duration
	_, err := Run(Options{
		MaxRetries: 8,
		Sleep:      func(d time.Duration) { slept = append(slept, d) },
		FailChunk: func(idx, attempt int) error {
			if attempt < 8 {
				return fmt.Errorf("injected fault attempt=%d", attempt)
			}
			return nil
		},
	}, fakeSpec(1, 5, newTrainLog()))
	if err != nil {
		t.Fatal(err)
	}
	want := []time.Duration{100, 200, 400, 800, 1600, 3200, 5000, 5000}
	if len(slept) != len(want) {
		t.Fatalf("backoff sleeps = %v, want %d of them", slept, len(want))
	}
	for i, w := range want {
		if slept[i] != w*time.Millisecond {
			t.Fatalf("backoff before retry %d = %v, want %v", i+1, slept[i], w*time.Millisecond)
		}
	}
}

// TestFaultBudgetExhaustedDegrades is the retry-budget-exhausted row: the
// chunk falls back to the seed weights, the run completes, and the
// degradation is reported.
func TestFaultBudgetExhaustedDegrades(t *testing.T) {
	var events []Event
	spec := fakeSpec(3, 5, newTrainLog())
	res, err := Run(Options{
		MaxRetries: 1,
		Sleep:      func(time.Duration) {},
		OnEvent:    func(ev Event) { events = append(events, ev) },
		FailChunk: func(idx, attempt int) error {
			if idx == 2 {
				return fmt.Errorf("persistent fault")
			}
			return nil
		},
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Degraded[2] || res.Degraded[1] {
		t.Fatalf("degraded flags = %v", res.Degraded)
	}
	if got := payloads(t, res)[2]; !strings.HasPrefix(got, "fallback-2|") {
		t.Fatalf("degraded chunk payload = %q, want seed fallback", got)
	}
	if res.Attempts[2] != 2 {
		t.Fatalf("attempts = %d, want 2", res.Attempts[2])
	}
	var degradedSeen bool
	for _, ev := range events {
		if ev.Kind == EventChunkDegraded && ev.Chunk == 2 {
			degradedSeen = true
		}
	}
	if !degradedSeen {
		t.Fatal("no chunk-degraded event emitted")
	}
}

// TestSeedExhaustionFailsRun: the seed chunk has no fallback, so
// exhausting its budget fails the run.
func TestSeedExhaustionFailsRun(t *testing.T) {
	spec := fakeSpec(3, 5, newTrainLog())
	_, err := Run(Options{
		MaxRetries: 1,
		Sleep:      func(time.Duration) {},
		FailChunk: func(idx, attempt int) error {
			if idx == 0 {
				return fmt.Errorf("seed is cursed")
			}
			return nil
		},
	}, spec)
	if err == nil || !strings.Contains(err.Error(), "chunk 0 failed after 2 attempt(s)") {
		t.Fatalf("err = %v, want seed exhaustion", err)
	}
}

// crashAt returns a FailChunk hook simulating process death the moment
// chunk idx starts training.
func crashAt(idx int) func(int, int) error {
	return func(chunk, attempt int) error {
		if chunk == idx {
			return Abort(fmt.Errorf("simulated crash at chunk %d", chunk))
		}
		return nil
	}
}

// TestCrashMatrix kills a checkpointed run at each phase boundary —
// post-seed, mid-fine-tune, post-all — and verifies that a resumed run
// completes with models bitwise identical to an uninterrupted run,
// retraining only the chunks that had not finished.
func TestCrashMatrix(t *testing.T) {
	const n = 4
	want := reference(t, n, 9)
	cases := []struct {
		name       string
		crashChunk int // -1: no crash (post-all resume)
		doneBefore int // chunks checkpointed before the crash
	}{
		{name: "post-seed", crashChunk: 1, doneBefore: 1},
		{name: "mid-fine-tune", crashChunk: 2, doneBefore: 2},
		{name: "post-all", crashChunk: -1, doneBefore: n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			opts := Options{Dir: dir}
			if tc.crashChunk >= 0 {
				opts.FailChunk = crashAt(tc.crashChunk)
			}
			res1, err := Run(opts, fakeSpec(n, 9, newTrainLog()))
			if tc.crashChunk >= 0 {
				if err == nil || !IsAbort(err) {
					t.Fatalf("crash run: err = %v, want abort", err)
				}
			} else if err != nil {
				t.Fatal(err)
			} else {
				equalPayloads(t, payloads(t, res1), want)
			}

			// "Reboot" and resume: no fault hook this time.
			log := newTrainLog()
			res2, err := Run(Options{Dir: dir, Resume: true}, fakeSpec(n, 9, log))
			if err != nil {
				t.Fatal(err)
			}
			equalPayloads(t, payloads(t, res2), want)
			for i := 0; i < n; i++ {
				wantResumed := i < tc.doneBefore
				if res2.Resumed[i] != wantResumed {
					t.Fatalf("chunk %d resumed=%v, want %v", i, res2.Resumed[i], wantResumed)
				}
				wantTrains := 0
				if !wantResumed {
					wantTrains = 1
				}
				if log.count(i) != wantTrains {
					t.Fatalf("chunk %d trained %d times on resume, want %d", i, log.count(i), wantTrains)
				}
			}
		})
	}
}

// TestResumeAfterDegradationStaysDegraded: degradation is sticky across
// resume — the fallback checkpoint is restored, not retrained.
func TestResumeAfterDegradationStaysDegraded(t *testing.T) {
	dir := t.TempDir()
	spec := fakeSpec(3, 5, newTrainLog())
	res1, err := Run(Options{
		Dir:        dir,
		MaxRetries: 0,
		Sleep:      func(time.Duration) {},
		FailChunk: func(idx, attempt int) error {
			if idx == 1 {
				return fmt.Errorf("persistent fault")
			}
			return nil
		},
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	if !res1.Degraded[1] {
		t.Fatal("chunk 1 should degrade")
	}
	res2, err := Run(Options{Dir: dir, Resume: true}, fakeSpec(3, 5, newTrainLog()))
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Resumed[1] || !res2.Degraded[1] {
		t.Fatalf("resumed degraded chunk: resumed=%v degraded=%v", res2.Resumed[1], res2.Degraded[1])
	}
	equalPayloads(t, payloads(t, res2), payloads(t, res1))
}

func TestResumeRejectsConfigMismatch(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(Options{Dir: dir}, fakeSpec(3, 5, newTrainLog())); err != nil {
		t.Fatal(err)
	}
	for name, mutate := range map[string]func(*Spec){
		"config-hash": func(s *Spec) { s.ConfigHash++ },
		"base-seed":   func(s *Spec) { s.BaseSeed++ },
		"chunk-count": func(s *Spec) { s.NumChunks++ },
	} {
		spec := fakeSpec(3, 5, newTrainLog())
		mutate(&spec)
		if _, err := Run(Options{Dir: dir, Resume: true}, spec); err == nil {
			t.Fatalf("%s mismatch must be rejected", name)
		}
	}
}

// TestResumeWithCorruptCheckpointRetrains: a truncated checkpoint file
// (e.g. tail loss after an unsynced rename) demotes the chunk to pending
// and it is retrained, reproducing the reference result.
func TestResumeWithCorruptCheckpointRetrains(t *testing.T) {
	want := reference(t, 3, 5)
	dir := t.TempDir()
	if _, err := Run(Options{Dir: dir}, fakeSpec(3, 5, newTrainLog())); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, chunkFile(1))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}
	log := newTrainLog()
	res, err := Run(Options{Dir: dir, Resume: true}, fakeSpec(3, 5, log))
	if err != nil {
		t.Fatal(err)
	}
	equalPayloads(t, payloads(t, res), want)
	if res.Resumed[1] || log.count(1) != 1 {
		t.Fatalf("corrupt chunk must retrain: resumed=%v trains=%d", res.Resumed[1], log.count(1))
	}
	if !res.Resumed[0] || !res.Resumed[2] {
		t.Fatal("intact chunks must still resume")
	}
}

// faultFS injects write failures for paths containing a marker.
type faultFS struct {
	FS
	failSubstr string
}

func (f *faultFS) WriteFile(name string, data []byte) error {
	if f.failSubstr != "" && strings.Contains(name, f.failSubstr) {
		// Torn write: half the bytes land before the "crash".
		_ = f.FS.WriteFile(name, data[:len(data)/2])
		return fmt.Errorf("injected torn write: %s", name)
	}
	return f.FS.WriteFile(name, data)
}

// TestTornCheckpointWriteKeepsRunAlive: a failing checkpoint write must
// not fail training; the manifest keeps the chunk pending so a later
// resume retrains it instead of trusting a torn file.
func TestTornCheckpointWriteKeepsRunAlive(t *testing.T) {
	want := reference(t, 3, 5)
	dir := t.TempDir()
	var ckptErrs int
	res, err := Run(Options{
		Dir: dir,
		FS:  &faultFS{FS: OSFS{}, failSubstr: chunkFile(1)},
		OnEvent: func(ev Event) {
			if ev.Kind == EventCheckpointError {
				ckptErrs++
			}
		},
	}, fakeSpec(3, 5, newTrainLog()))
	if err != nil {
		t.Fatal(err)
	}
	equalPayloads(t, payloads(t, res), want)
	if ckptErrs == 0 {
		t.Fatal("torn write must surface as a checkpoint-error event")
	}
	man, err := ParseManifest(readFile(t, filepath.Join(dir, ManifestFile)))
	if err != nil {
		t.Fatal(err)
	}
	if man.Chunks[1].Status != ChunkPending {
		t.Fatalf("chunk 1 status %q, want pending after torn write", man.Chunks[1].Status)
	}
	if man.Chunks[0].Status != ChunkDone || man.Chunks[2].Status != ChunkDone {
		t.Fatal("other chunks must checkpoint normally")
	}

	// The resumed run heals: chunk 1 retrains, the rest restore.
	res2, err := Run(Options{Dir: dir, Resume: true}, fakeSpec(3, 5, newTrainLog()))
	if err != nil {
		t.Fatal(err)
	}
	equalPayloads(t, payloads(t, res2), want)
	if res2.Resumed[1] {
		t.Fatal("chunk 1 must retrain after its checkpoint was torn")
	}
}

func TestParallelFaultsUnderRace(t *testing.T) {
	want := reference(t, 6, 13)
	spec := fakeSpec(6, 13, newTrainLog())
	spec.Parallel = true
	var mu sync.Mutex
	failed := map[int]bool{}
	res, err := Run(Options{
		Dir:        t.TempDir(),
		MaxRetries: 1,
		Sleep:      func(time.Duration) {},
		OnEvent:    func(Event) {},
		FailChunk: func(idx, attempt int) error {
			mu.Lock()
			defer mu.Unlock()
			if idx%2 == 1 && !failed[idx] {
				failed[idx] = true
				return fmt.Errorf("transient fault on %d", idx)
			}
			return nil
		},
	}, spec)
	if err != nil {
		t.Fatal(err)
	}
	equalPayloads(t, payloads(t, res), want)
}

func TestSpecValidation(t *testing.T) {
	if _, err := Run(Options{}, Spec{}); err == nil {
		t.Fatal("empty spec must fail")
	}
	spec := fakeSpec(2, 1, newTrainLog())
	spec.Decode = nil
	if _, err := Run(Options{Dir: t.TempDir()}, spec); err == nil {
		t.Fatal("checkpointing without Decode must fail")
	}
	if _, err := Run(Options{Resume: true}, fakeSpec(2, 1, newTrainLog())); err == nil {
		t.Fatal("Resume without Dir must fail")
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
