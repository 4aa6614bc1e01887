package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls into the program's public functions (the program itself
// carries no spans). Times are nanoseconds since the tracer started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// layer is the span name's first dot-separated element ("core.load" →
// "core"); the benchmark's own operation spans use the "op" prefix.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so workloads run the same code
// either way.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// open is a started span; close it with end.
type open struct {
	tr *tracer
	s  span
}

// begin starts a span named name under parent (0 for a root) for
// request req.
func (t *tracer) begin(name string, parent, req int64) *open {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	return &open{tr: t, s: span{ID: id, Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.t0))}}
}

// id returns the span id, 0 for a nil span.
func (o *open) id() int64 {
	if o == nil {
		return 0
	}
	return o.s.ID
}

// end closes the span and keeps it.
func (o *open) end() {
	if o == nil {
		return
	}
	o.s.End = int64(time.Since(o.tr.t0))
	o.tr.mu.Lock()
	o.tr.spans = append(o.tr.spans, o.s)
	o.tr.mu.Unlock()
}

// record keeps a span whose times were taken elsewhere (orchestrator
// events arrive as points in time, not as calls).
func (t *tracer) record(name string, parent int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{ID: t.next, Parent: parent, Name: name,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))})
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// byName returns the durations, in milliseconds, of the spans called name.
func byName(spans []span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, ms(s.dur()))
		}
	}
	return out
}

// medianMs is the median duration, in milliseconds, of the spans called
// name; 0 when the workload never made that call.
func medianMs(spans []span, name string) float64 {
	ds := byName(spans, name)
	if len(ds) == 0 {
		return 0
	}
	return median(ds)
}

// selfOf returns each span's self time: its duration minus the part of
// its interval its child spans cover. Children may overlap (parallel
// fine-tune chunks), so coverage is the length of the union of the
// child intervals.
func selfOf(spans []span) []time.Duration {
	children := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		out[i] = s.dur() - time.Duration(covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// selfTimes sums the spans' self times by layer.
func selfTimes(spans []span) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i, d := range selfOf(spans) {
		out[spans[i].layer()] += d
	}
	return out
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(lo, hi int64, ivs [][2]int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	ivs = append([][2]int64(nil), ivs...)
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// writeSpans writes spans as JSON lines to path.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write spans: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write spans: %w", err)
	}
	return f.Close()
}
