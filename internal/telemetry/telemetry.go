// Package telemetry is the runtime observability layer of the pipeline:
// a dependency-free metrics registry holding counters, gauges, fixed-bucket
// histograms, monotonic phase timers, and append-only series (loss and
// privacy-ε curves). Handles are pre-registered once (package init or run
// setup) and recorded through afterwards, so the hot paths — a counter
// increment or histogram observation per generation lot or decoded row —
// are a single atomic op and allocate nothing (verified by
// BenchmarkCounterInc / TestHotPathZeroAllocs).
//
// Telemetry is strictly observational: recording never draws from any RNG
// and never feeds back into training or generation, so the golden
// determinism suites pass bitwise-identically with telemetry enabled or
// disabled (DESIGN.md §9). All metrics hang off a Registry (usually the
// package-level Default) that can be disabled globally; disabled handles
// short-circuit after one atomic load.
//
// Naming scheme: lowercase dotted paths `<package>.<subsystem>.<metric>`,
// with per-chunk series suffixed `.chunkN` (e.g. `core.train.chunk0.
// critic_loss`, `dgan.generate.lots`, `webapi.model.cache.hits`).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Registry owns a namespace of metrics. The zero value is not usable;
// create with NewRegistry. Registration (Counter, Gauge, ...) is
// get-or-create and safe for concurrent use; recording through the
// returned handles is lock-free.
type Registry struct {
	enabled atomic.Bool

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	timers   map[string]*Timer
	series   map[string]*Series
}

// Default is the process-wide registry every pipeline package records
// into. It starts enabled.
var Default = NewRegistry()

// NewRegistry returns an enabled, empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		timers:   make(map[string]*Timer),
		series:   make(map[string]*Series),
	}
	r.enabled.Store(true)
	return r
}

// SetEnabled toggles recording for every handle of the registry. Disabled
// handles cost one atomic load per call and record nothing.
func (r *Registry) SetEnabled(on bool) { r.enabled.Store(on) }

// Enabled reports whether the registry is recording.
func (r *Registry) Enabled() bool { return r.enabled.Load() }

// Reset zeroes every registered metric (counts, sums, buckets, series
// points). Handles stay valid; registration is preserved.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.counters {
		c.v.Store(0)
	}
	for _, g := range r.gauges {
		g.v.Store(0)
		g.set.Store(false)
	}
	for _, h := range r.hists {
		h.count.Store(0)
		h.sum.Store(0)
		for i := range h.counts {
			h.counts[i].Store(0)
		}
	}
	for _, t := range r.timers {
		t.count.Store(0)
		t.totalNs.Store(0)
		t.maxNs.Store(0)
	}
	for _, s := range r.series {
		s.mu.Lock()
		s.pts = s.pts[:0]
		s.mu.Unlock()
	}
}

// Counter is a monotonically increasing integer metric.
type Counter struct {
	on *atomic.Bool
	v  atomic.Int64
}

// Counter returns (registering on first use) the named counter.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok := r.counters[name]; ok {
		return c
	}
	c := &Counter{on: &r.enabled}
	r.counters[name] = c
	return c
}

// Inc adds one. Nil-safe and zero-allocation.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Nil-safe and zero-allocation.
func (c *Counter) Add(n int64) {
	if c == nil || !c.on.Load() {
		return
	}
	c.v.Add(n)
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a last-value metric (float64).
type Gauge struct {
	on  *atomic.Bool
	v   atomic.Uint64 // float64 bits
	set atomic.Bool
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok := r.gauges[name]; ok {
		return g
	}
	g := &Gauge{on: &r.enabled}
	r.gauges[name] = g
	return g
}

// Set records the current value. Nil-safe and zero-allocation.
func (g *Gauge) Set(x float64) {
	if g == nil || !g.on.Load() {
		return
	}
	g.v.Store(math.Float64bits(x))
	g.set.Store(true)
}

// Value returns the last recorded value (0 if never set).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.v.Load())
}

// Histogram counts observations into a fixed bucket layout chosen at
// registration. The layout is immutable, so observation is a binary
// search plus one atomic add and never allocates.
type Histogram struct {
	on     *atomic.Bool
	bounds []float64      // ascending upper bounds; implicit +Inf last bucket
	counts []atomic.Int64 // len(bounds)+1
	count  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-accumulated
}

// Histogram returns (registering on first use) the named histogram with
// the given ascending bucket upper bounds. A second registration of the
// same name returns the existing histogram; bounds must then match the
// first registration (enforced by length only, to keep the call cheap).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok := r.hists[name]; ok {
		return h
	}
	b := append([]float64(nil), bounds...)
	sort.Float64s(b)
	h := &Histogram{on: &r.enabled, bounds: b, counts: make([]atomic.Int64, len(b)+1)}
	r.hists[name] = h
	return h
}

// LinearBuckets returns n ascending bounds start, start+width, ...
func LinearBuckets(start, width float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = start + width*float64(i)
	}
	return out
}

// ExpBuckets returns n ascending bounds start, start·factor, ...
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	x := start
	for i := range out {
		out[i] = x
		x *= factor
	}
	return out
}

// Observe records one sample. Nil-safe and zero-allocation.
func (h *Histogram) Observe(x float64) {
	if h == nil || !h.on.Load() {
		return
	}
	i := sort.SearchFloat64s(h.bounds, x)
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + x)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// Count returns the total observation count.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observations.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}

// Timer accumulates monotonic phase durations: total time, call count,
// and the maximum single duration.
type Timer struct {
	on      *atomic.Bool
	count   atomic.Int64
	totalNs atomic.Int64
	maxNs   atomic.Int64
}

// Timer returns (registering on first use) the named phase timer.
func (r *Registry) Timer(name string) *Timer {
	r.mu.Lock()
	defer r.mu.Unlock()
	if t, ok := r.timers[name]; ok {
		return t
	}
	t := &Timer{on: &r.enabled}
	r.timers[name] = t
	return t
}

// Stopwatch is an in-flight phase measurement; obtain with Timer.Start
// and finish with Stop. It is a value type, so Start/Stop allocate
// nothing.
type Stopwatch struct {
	t  *Timer
	t0 time.Time
}

// Start begins a phase measurement on the monotonic clock. Nil-safe.
func (t *Timer) Start() Stopwatch { return Stopwatch{t: t, t0: time.Now()} }

// Stop ends the measurement, records it, and returns the duration.
func (s Stopwatch) Stop() time.Duration {
	d := time.Since(s.t0)
	s.t.Observe(d)
	return d
}

// Observe records one externally measured duration. Nil-safe.
func (t *Timer) Observe(d time.Duration) {
	if t == nil || !t.on.Load() {
		return
	}
	ns := d.Nanoseconds()
	t.count.Add(1)
	t.totalNs.Add(ns)
	for {
		old := t.maxNs.Load()
		if ns <= old || t.maxNs.CompareAndSwap(old, ns) {
			return
		}
	}
}

// Count returns the number of recorded phases.
func (t *Timer) Count() int64 {
	if t == nil {
		return 0
	}
	return t.count.Load()
}

// Total returns the accumulated phase time.
func (t *Timer) Total() time.Duration {
	if t == nil {
		return 0
	}
	return time.Duration(t.totalNs.Load())
}

// Point is one sample of a series: an ordinal (training step, chunk
// index, ...) and a value.
type Point struct {
	Step  int64   `json:"step"`
	Value float64 `json:"value"`
}

// Series is an append-only curve — per-step training losses, gradient
// norms, cumulative DP ε. Appends take a per-series mutex; series sit on
// the training path (hundreds of points per run), not the per-sample
// generation hot path.
type Series struct {
	on  *atomic.Bool
	mu  sync.Mutex
	pts []Point
}

// Series returns (registering on first use) the named series.
func (r *Registry) Series(name string) *Series {
	r.mu.Lock()
	defer r.mu.Unlock()
	if s, ok := r.series[name]; ok {
		return s
	}
	s := &Series{on: &r.enabled}
	r.series[name] = s
	return s
}

// Record appends one point. Nil-safe.
func (s *Series) Record(step int64, v float64) {
	if s == nil || !s.on.Load() {
		return
	}
	s.mu.Lock()
	s.pts = append(s.pts, Point{Step: step, Value: v})
	s.mu.Unlock()
}

// Len returns the number of recorded points.
func (s *Series) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.pts)
}

// Points returns a copy of the recorded points.
func (s *Series) Points() []Point {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Point(nil), s.pts...)
}
