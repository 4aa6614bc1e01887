package mat

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The package keeps a single shared worker pool that the matmul kernels (and
// callers such as the DP-SGD training loop) fan work out to. Parallel kernels
// partition their OUTPUT rows across workers: every output element is written
// by exactly one worker using the same accumulation order as the serial
// kernel, so results are bitwise identical at every parallelism level and for
// every work split. The register-blocked kernels, and on AVX2 CPUs the
// assembly kernels in kernels_amd64.s, go further: each element
// accumulates the same products, in the same ascending-k order and with the
// same rounding, as the plain ikj (or dot-product) loop, so they are bitwise
// equal to that loop, not only to their own serial runs. The determinism
// tests in this package and in internal/dgan assert the first invariant;
// the frozen-reference tests in kernel_ref_test.go assert the second.

var (
	// parallelism is the target worker count; 1 disables parallel dispatch.
	parallelism atomic.Int64
	// parallelThreshold is the minimum kernel cost (multiply-add count) at
	// which the matmul kernels dispatch to the pool; below it the fixed
	// fan-out overhead dominates.
	parallelThreshold atomic.Int64

	poolOnce  sync.Once
	poolTasks chan func()
)

// DefaultParallelThreshold is the dispatch cost cutoff (multiply-adds per
// kernel call) restored by SetParallelThreshold(0).
const DefaultParallelThreshold = 1 << 15

func init() {
	parallelism.Store(int64(runtime.NumCPU()))
	parallelThreshold.Store(DefaultParallelThreshold)
}

// SetParallelism sets the number of workers the parallel kernels target.
// n <= 1 forces serial execution; the default is runtime.NumCPU(). Results
// are bitwise independent of this setting.
func SetParallelism(n int) {
	if n < 1 {
		n = 1
	}
	parallelism.Store(int64(n))
}

// Parallelism returns the current target worker count.
func Parallelism() int { return int(parallelism.Load()) }

// SetParallelThreshold sets the minimum kernel cost (counted in multiply-add
// operations) at which matmuls dispatch to the worker pool; n <= 0 restores
// DefaultParallelThreshold. Tests lower it to force small kernels through the
// parallel path.
func SetParallelThreshold(n int) {
	if n <= 0 {
		n = DefaultParallelThreshold
	}
	parallelThreshold.Store(int64(n))
}

// startPool launches the long-lived workers. The task channel is
// deliberately unbuffered: a task is only ever accepted by an idle worker,
// never parked in a queue behind a worker that is itself blocked inside a
// nested ParallelFor — queued-task handoff is what would deadlock there.
// When every worker is busy, submission falls back to a fresh goroutine, so
// the pool amortizes goroutine startup in the common case without ever
// capping concurrency. It is sized to the machine, not to Parallelism(), so
// changing Parallelism() later needs no pool resize.
func startPool() {
	poolTasks = make(chan func())
	for i := 0; i < runtime.NumCPU(); i++ {
		go func() {
			for f := range poolTasks {
				f()
			}
		}()
	}
}

// ParallelFor splits [0, n) into at most Parallelism() contiguous spans and
// runs body on each concurrently, returning when all spans are done. Spans
// never overlap, so body may write disjoint output rows without locking.
// With parallelism 1 (or n < 2) it simply runs body(0, n) inline.
func ParallelFor(n int, body func(lo, hi int)) {
	w := Parallelism()
	if w > n {
		w = n
	}
	if w <= 1 {
		if n > 0 {
			body(0, n)
		}
		return
	}
	poolOnce.Do(startPool)
	span := (n + w - 1) / w
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += span {
		hi := lo + span
		if hi > n {
			hi = n
		}
		wg.Add(1)
		task := func(lo, hi int) func() {
			return func() {
				defer wg.Done()
				body(lo, hi)
			}
		}(lo, hi)
		select {
		case poolTasks <- task: // an idle worker picked it up
		default:
			// Every worker is busy (or blocked in a nested ParallelFor):
			// run on a fresh goroutine rather than risk blocking forever.
			go task()
		}
	}
	wg.Wait()
}

// parallelizable reports whether a kernel of the given multiply-add cost and
// output row count should dispatch to the pool.
func parallelizable(cost, rows int) bool {
	return rows >= 2 && Parallelism() > 1 && int64(cost) >= parallelThreshold.Load()
}
