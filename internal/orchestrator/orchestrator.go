// Package orchestrator runs NetShare's chunked training fan-out (Insight
// 3) with production-grade fault tolerance. The seed model and every
// fine-tuned chunk are checkpointed as they complete, a killed run can be
// resumed from its checkpoint directory while skipping finished chunks,
// failed chunks are retried with capped exponential backoff, and a chunk
// that exhausts its retry budget degrades gracefully to the warm-started
// seed weights instead of aborting the whole run.
//
// Determinism is preserved end to end: every chunk trains on an RNG
// stream derived only from (base seed, chunk index), and a retried
// attempt rebuilds the chunk model from scratch on the same stream, so a
// resumed or fault-ridden run produces bitwise-identical weights to an
// uninterrupted one (DESIGN.md §7). Fault injection (FailChunk, FS) makes
// all of this testable without real crashes.
package orchestrator

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/rng"
)

// Model is the unit the orchestrator trains and checkpoints. The byte
// encoding is the caller's wire format (dgan gob bytes for NetShare);
// Spec.Decode inverts it.
type Model interface {
	Encode() ([]byte, error)
}

// Options are the operational knobs of a run: checkpointing, retry
// policy, and the injectable hooks that make crash testing deterministic.
// The zero value trains in memory with no checkpoints and no retries.
type Options struct {
	// Dir is the checkpoint directory; empty disables checkpointing.
	Dir string
	// Resume loads the manifest in Dir and skips completed chunks. The
	// manifest's config hash, base seed, and per-chunk RNG streams must
	// match the current Spec.
	Resume bool
	// MaxRetries is the per-chunk retry budget. A fine-tune chunk that
	// fails MaxRetries+1 attempts degrades to the seed weights; a seed
	// chunk that does so fails the run. Retries back off exponentially
	// (backoff).
	MaxRetries int

	// FailChunk, when non-nil, is consulted before every training attempt
	// and makes that attempt fail with the returned error — the fault
	// injection hook for retry, degradation, and crash tests. Wrap the
	// error with Abort to simulate a hard crash (no retry, run stops).
	FailChunk func(idx, attempt int) error
	// FS overrides the checkpoint filesystem (default OSFS); tests inject
	// torn or failing writes through it.
	FS FS
	// Sleep overrides the backoff sleeper (default time.Sleep).
	Sleep func(time.Duration)
	// OnEvent, when non-nil, observes run progress (chunk start/done/
	// retry/resume/degradation and checkpoint I/O errors). Events are
	// delivered serially.
	OnEvent func(Event)
}

func (o *Options) applyDefaults() {
	if o.FS == nil {
		o.FS = OSFS{}
	}
	if o.Sleep == nil {
		o.Sleep = time.Sleep
	}
}

// Retry backoff: the first retry waits backoffBase, each further one
// twice as long, capped at backoffMax.
const (
	backoffBase = 100 * time.Millisecond
	backoffMax  = 5 * time.Second
)

// backoff returns the capped exponential delay before retry `attempt`
// (1-based): 100ms, 200ms, 400ms, ... ≤ 5s.
func backoff(attempt int) time.Duration {
	d := backoffBase
	for i := 1; i < attempt && d < backoffMax; i++ {
		d *= 2
	}
	return min(d, backoffMax)
}

// EventKind enumerates run progress notifications.
type EventKind string

// Event kinds.
const (
	EventChunkStart      EventKind = "chunk-start"
	EventChunkDone       EventKind = "chunk-done"
	EventChunkResumed    EventKind = "chunk-resumed"
	EventChunkRetry      EventKind = "chunk-retry"
	EventChunkDegraded   EventKind = "chunk-degraded"
	EventCheckpointError EventKind = "checkpoint-error"
)

// Event is one run progress notification.
type Event struct {
	Kind    EventKind
	Chunk   int
	Attempt int // attempts consumed so far (retry events carry the failing attempt's error)
	Err     error
}

// ChunkRun is the per-attempt context handed to the training callbacks.
type ChunkRun struct {
	Idx     int
	Attempt int
	// Stream is the chunk's derived RNG seed, rng.Derive(BaseSeed, Idx);
	// identical whether the chunk runs fresh, retried, resumed, serial, or
	// parallel.
	Stream int64
}

// Spec describes one chunked training run.
type Spec struct {
	// NumChunks is M; chunk 0 is the seed.
	NumChunks int
	// ConfigHash digests the training configuration (recorded in the
	// manifest and validated on resume).
	ConfigHash uint64
	// BaseSeed is the run's base RNG seed.
	BaseSeed int64
	// Parallel fine-tunes non-seed chunks concurrently.
	Parallel bool
	// TrainSeed trains the seed chunk (chunk 0) from scratch.
	TrainSeed func(run ChunkRun) (Model, error)
	// FineTune trains chunk run.Idx warm-started from the seed model.
	FineTune func(run ChunkRun, seed Model) (Model, error)
	// Fallback builds chunk idx's degraded stand-in (for NetShare: the
	// warm-started seed weights, untrained). Nil disables degradation, so
	// an exhausted retry budget fails the run.
	Fallback func(idx int, seed Model) (Model, error)
	// Decode revives a checkpointed model; required when checkpointing.
	Decode func(data []byte) (Model, error)
}

func (s *Spec) stream(idx int) int64 { return rng.Derive(s.BaseSeed, int64(idx)) }

func (s *Spec) validate(opts Options) error {
	if s.NumChunks < 1 {
		return fmt.Errorf("orchestrator: NumChunks must be >= 1, got %d", s.NumChunks)
	}
	if s.TrainSeed == nil {
		return fmt.Errorf("orchestrator: Spec.TrainSeed is required")
	}
	if s.NumChunks > 1 && s.FineTune == nil {
		return fmt.Errorf("orchestrator: Spec.FineTune is required for NumChunks > 1")
	}
	if opts.Dir != "" && s.Decode == nil {
		return fmt.Errorf("orchestrator: Spec.Decode is required when checkpointing")
	}
	if opts.Resume && opts.Dir == "" {
		return fmt.Errorf("orchestrator: Resume requires a checkpoint directory")
	}
	return nil
}

// Result reports a completed run.
type Result struct {
	// Models holds one trained (or restored, or degraded) model per chunk.
	Models []Model
	// Resumed marks chunks restored from a checkpoint instead of trained.
	Resumed []bool
	// Degraded marks chunks that exhausted the retry budget and fell back
	// to the seed weights.
	Degraded []bool
	// Attempts counts training attempts per chunk (0 for resumed chunks).
	Attempts []int
	// ChunkTime holds the per-chunk training durations, the seed chunk's
	// first (zero for resumed chunks).
	ChunkTime []time.Duration
}

// abortError marks an error as non-retryable.
type abortError struct{ err error }

func (e *abortError) Error() string { return "orchestrator: aborted: " + e.err.Error() }
func (e *abortError) Unwrap() error { return e.err }

// Abort wraps err so the orchestrator treats it as a hard crash: the
// failing chunk is not retried and does not degrade, and the run stops
// with the error. Checkpoints written so far stay on disk, so a
// subsequent Resume continues where the run died — which is how the
// crash-matrix tests simulate process death at phase boundaries.
func Abort(err error) error { return &abortError{err: err} }

// IsAbort reports whether err (or anything it wraps) came from Abort.
func IsAbort(err error) bool {
	var a *abortError
	return errors.As(err, &a)
}

// runner carries one run's mutable state.
type runner struct {
	opts Options
	spec Spec

	mu  sync.Mutex // guards man and manifest persistence
	man *Manifest

	evMu sync.Mutex // serializes OnEvent delivery
}

// Run executes the chunked training fan-out described by spec under the
// fault-tolerance policy in opts and returns the per-chunk models.
func Run(opts Options, spec Spec) (*Result, error) {
	if err := spec.validate(opts); err != nil {
		return nil, err
	}
	opts.applyDefaults()
	r := &runner{opts: opts, spec: spec}
	if err := r.initManifest(); err != nil {
		return nil, err
	}

	n := spec.NumChunks
	res := &Result{
		Models:    make([]Model, n),
		Resumed:   make([]bool, n),
		Degraded:  make([]bool, n),
		Attempts:  make([]int, n),
		ChunkTime: make([]time.Duration, n),
	}

	// Phase 1: the seed chunk. Unlike fine-tune chunks it has no fallback:
	// exhausting its retry budget fails the run.
	if m, status, ok := r.restoreChunk(0); ok {
		res.Models[0], res.Resumed[0] = m, true
		res.Degraded[0] = status == ChunkDegraded
		r.event(Event{Kind: EventChunkResumed, Chunk: 0})
	} else {
		m, attempts, dur, err := r.attemptChunk(0, func(run ChunkRun) (Model, error) {
			return spec.TrainSeed(run)
		})
		res.Attempts[0], res.ChunkTime[0] = attempts, dur
		if err != nil {
			return nil, err
		}
		res.Models[0] = m
		r.completeChunk(0, m, ChunkDone, attempts)
	}
	seed := res.Models[0]

	// Phase 2: fine-tune the remaining chunks, warm-started from the seed.
	work := func(idx int) error {
		if m, status, ok := r.restoreChunk(idx); ok {
			res.Models[idx], res.Resumed[idx] = m, true
			res.Degraded[idx] = status == ChunkDegraded
			r.event(Event{Kind: EventChunkResumed, Chunk: idx})
			return nil
		}
		m, attempts, dur, err := r.attemptChunk(idx, func(run ChunkRun) (Model, error) {
			return spec.FineTune(run, seed)
		})
		res.Attempts[idx], res.ChunkTime[idx] = attempts, dur
		if err != nil {
			if IsAbort(err) || spec.Fallback == nil {
				return err
			}
			fb, ferr := spec.Fallback(idx, seed)
			if ferr != nil {
				return fmt.Errorf("orchestrator: chunk %d fallback failed: %w (after %v)", idx, ferr, err)
			}
			res.Models[idx], res.Degraded[idx] = fb, true
			r.event(Event{Kind: EventChunkDegraded, Chunk: idx, Attempt: attempts, Err: err})
			r.completeChunk(idx, fb, ChunkDegraded, attempts)
			return nil
		}
		res.Models[idx] = m
		r.completeChunk(idx, m, ChunkDone, attempts)
		return nil
	}

	if spec.Parallel {
		errs := make([]error, n)
		var wg sync.WaitGroup
		for i := 1; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				errs[i] = work(i)
			}(i)
		}
		wg.Wait()
		for i := 1; i < n; i++ {
			if errs[i] != nil {
				return nil, errs[i]
			}
		}
	} else {
		for i := 1; i < n; i++ {
			if err := work(i); err != nil {
				return nil, err
			}
		}
	}
	return res, nil
}

// initManifest loads (Resume) or creates the run manifest.
func (r *runner) initManifest() error {
	if r.opts.Dir != "" {
		if err := r.opts.FS.MkdirAll(r.opts.Dir); err != nil {
			return fmt.Errorf("orchestrator: create checkpoint dir: %w", err)
		}
		if r.opts.Resume {
			data, err := r.opts.FS.ReadFile(filepath.Join(r.opts.Dir, ManifestFile))
			switch {
			case err == nil:
				man, err := ParseManifest(data)
				if err != nil {
					return err
				}
				if err := r.checkManifest(man); err != nil {
					return err
				}
				r.man = man
				return nil
			case !errors.Is(err, os.ErrNotExist):
				return fmt.Errorf("orchestrator: read manifest: %w", err)
			}
			// No manifest yet: fall through to a fresh run.
		}
	}
	man := &Manifest{
		Version:    ManifestVersion,
		ConfigHash: r.spec.ConfigHash,
		BaseSeed:   r.spec.BaseSeed,
		Chunks:     make([]ChunkManifest, r.spec.NumChunks),
	}
	for i := range man.Chunks {
		man.Chunks[i] = ChunkManifest{Status: ChunkPending, Stream: r.spec.stream(i)}
	}
	r.man = man
	r.mu.Lock()
	r.persistManifestLocked()
	r.mu.Unlock()
	return nil
}

// checkManifest validates a resumed manifest against the current spec: a
// checkpoint directory from a different configuration, seed, or chunk
// count must be rejected, not silently mixed in.
func (r *runner) checkManifest(man *Manifest) error {
	if man.ConfigHash != r.spec.ConfigHash {
		return fmt.Errorf("orchestrator: checkpoint config hash %016x does not match current %016x",
			man.ConfigHash, r.spec.ConfigHash)
	}
	if man.BaseSeed != r.spec.BaseSeed {
		return fmt.Errorf("orchestrator: checkpoint base seed %d does not match current %d",
			man.BaseSeed, r.spec.BaseSeed)
	}
	if len(man.Chunks) != r.spec.NumChunks {
		return fmt.Errorf("orchestrator: checkpoint has %d chunks, current run has %d",
			len(man.Chunks), r.spec.NumChunks)
	}
	for i, c := range man.Chunks {
		if c.Stream != r.spec.stream(i) {
			return fmt.Errorf("orchestrator: chunk %d RNG stream %d does not match derived %d",
				i, c.Stream, r.spec.stream(i))
		}
	}
	return nil
}

// attemptChunk runs the training callback under the retry policy. Every
// attempt is handed the same RNG stream and (for dgan) rebuilds the chunk
// model from scratch, so a retried success is bitwise identical to a
// first-attempt success.
func (r *runner) attemptChunk(idx int, train func(ChunkRun) (Model, error)) (Model, int, time.Duration, error) {
	stream := r.spec.stream(idx)
	var lastErr error
	var dur time.Duration
	r.event(Event{Kind: EventChunkStart, Chunk: idx})
	for attempt := 0; attempt <= r.opts.MaxRetries; attempt++ {
		if attempt > 0 {
			r.event(Event{Kind: EventChunkRetry, Chunk: idx, Attempt: attempt, Err: lastErr})
			r.opts.Sleep(backoff(attempt))
		}
		run := ChunkRun{Idx: idx, Attempt: attempt, Stream: stream}
		if r.opts.FailChunk != nil {
			if err := r.opts.FailChunk(idx, attempt); err != nil {
				if IsAbort(err) {
					return nil, attempt + 1, dur, err
				}
				lastErr = err
				continue
			}
		}
		t0 := time.Now()
		m, err := train(run)
		attemptDur := time.Since(t0)
		dur += attemptDur
		telChunkTrain.Observe(attemptDur)
		if err != nil {
			if IsAbort(err) {
				return nil, attempt + 1, dur, err
			}
			lastErr = err
			continue
		}
		r.event(Event{Kind: EventChunkDone, Chunk: idx, Attempt: attempt + 1})
		return m, attempt + 1, dur, nil
	}
	return nil, r.opts.MaxRetries + 1, dur, fmt.Errorf("orchestrator: chunk %d failed after %d attempt(s): %w",
		idx, r.opts.MaxRetries+1, lastErr)
}

// restoreChunk loads a completed chunk from its checkpoint. A missing or
// corrupt checkpoint demotes the chunk to pending (it will be retrained,
// reproducing identical weights) rather than failing the resume.
func (r *runner) restoreChunk(idx int) (Model, ChunkStatus, bool) {
	r.mu.Lock()
	c := r.man.Chunks[idx]
	r.mu.Unlock()
	if (c.Status != ChunkDone && c.Status != ChunkDegraded) || c.File == "" || r.opts.Dir == "" {
		return nil, ChunkPending, false
	}
	payload, err := r.readCheckpoint(c.File, c.Checksum)
	if err == nil {
		var m Model
		if m, err = r.spec.Decode(payload); err == nil {
			return m, c.Status, true
		}
	}
	r.event(Event{Kind: EventCheckpointError, Chunk: idx, Err: err})
	r.mu.Lock()
	r.man.Chunks[idx] = ChunkManifest{Status: ChunkPending, Stream: c.Stream}
	r.persistManifestLocked()
	r.mu.Unlock()
	return nil, ChunkPending, false
}

func (r *runner) readCheckpoint(file string, checksum uint32) ([]byte, error) {
	data, err := r.opts.FS.ReadFile(filepath.Join(r.opts.Dir, file))
	if err != nil {
		return nil, err
	}
	payload, err := DecodeCheckpoint(data)
	if err != nil {
		return nil, err
	}
	if checksum != 0 && crc32.ChecksumIEEE(payload) != checksum {
		return nil, fmt.Errorf("orchestrator: %s payload does not match manifest checksum", file)
	}
	return payload, nil
}

// completeChunk persists a finished chunk: checkpoint file first, then
// the manifest entry. If the checkpoint write fails the run continues in
// memory and the manifest keeps the chunk pending, so a later resume
// retrains it instead of trusting a torn file.
func (r *runner) completeChunk(idx int, m Model, status ChunkStatus, attempts int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := &r.man.Chunks[idx]
	c.Attempts = attempts
	if r.opts.Dir == "" {
		c.Status = status
		return
	}
	payload, err := m.Encode()
	if err == nil {
		name := chunkFile(idx)
		if err = atomicWrite(r.opts.FS, filepath.Join(r.opts.Dir, name), EncodeCheckpoint(payload)); err == nil {
			c.Status = status
			c.File, c.Checksum = name, crc32.ChecksumIEEE(payload)
		}
	}
	if err != nil {
		r.event(Event{Kind: EventCheckpointError, Chunk: idx, Err: err})
	}
	r.persistManifestLocked()
}

func (r *runner) persistManifestLocked() {
	if r.opts.Dir == "" {
		return
	}
	data, err := r.man.encode()
	if err == nil {
		err = atomicWrite(r.opts.FS, filepath.Join(r.opts.Dir, ManifestFile), data)
	}
	if err != nil {
		r.event(Event{Kind: EventCheckpointError, Chunk: -1, Err: err})
	}
}

func (r *runner) event(ev Event) {
	recordEvent(ev)
	if r.opts.OnEvent == nil {
		return
	}
	r.evMu.Lock()
	defer r.evMu.Unlock()
	r.opts.OnEvent(ev)
}
