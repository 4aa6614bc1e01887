package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.9, 4.6}, {1, 5}} {
		if got := percentile(xs, c.q); !near(got, c.want) {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median = %v, want 2.5", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of nothing should be NaN")
	}
	if !reflect.DeepEqual(xs, []float64{5, 1, 4, 2, 3}) {
		t.Error("percentile reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values of Python's
// statistics.quantiles(xs, n=4), the rule run-to-run spread is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 100}, 2.75, 8.25},
		{[]float64{10, 12.5, 11, 30, 9.5}, 9.75, 21.25},
	} {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op.x", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "core.a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "core.b", Start: 30, End: 60}, // overlaps core.a
		{ID: 4, Parent: 3, Name: "store.c", Start: 35, End: 45},
		{ID: 5, Parent: 1, Name: "trace.d", Start: 90, End: 120}, // runs past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{"op": 100 - 50 - 10, "core": 30 + 20, "store": 10, "trace": 30}
	for l, w := range want {
		if int64(got[l]) != w {
			t.Errorf("self(%s) = %d, want %d", l, got[l], w)
		}
	}
	if m := selfMs([]span{{ID: 1, Name: "registry.commit", Start: 0, End: 5e6}, {ID: 2, Parent: 1, Name: "store.write", Start: 1e6, End: 4e6}},
		"registry.commit"); !near(m.Value, 2) {
		t.Errorf("selfMs = %v, want 2", m.Value)
	}
}

func TestTracerOffIsNoop(t *testing.T) {
	var tr *tracer
	sp := tr.begin("core.load", 0, 1)
	sp.end()
	if sp.id() != 0 || tr.snapshot() != nil {
		t.Fatal("nil tracer recorded a span")
	}
	tr = newTracer()
	root := tr.begin("op.x", 0, 7)
	child := tr.begin("core.load", root.id(), 7)
	child.end()
	root.end()
	spans := tr.snapshot()
	if len(spans) != 2 || spans[0].Parent != spans[1].ID || spans[0].Req != 7 || spans[0].layer() != "core" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestSameSeedSameInputs(t *testing.T) {
	a, b := genFlows(5, 300, tonShape), genFlows(5, 300, tonShape)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("genFlows differs for the same seed")
	}
	if reflect.DeepEqual(a, genFlows(6, 300, tonShape)) {
		t.Fatal("genFlows ignores the seed")
	}
	ca, err := flowCSV(a)
	if err != nil {
		t.Fatal(err)
	}
	if cb, _ := flowCSV(b); ca != cb {
		t.Fatal("input CSV differs for the same seed")
	}
	pa, err := pcapBytes(genPackets(5, 5000, capSpanUS))
	if err != nil {
		t.Fatal(err)
	}
	pb, _ := pcapBytes(genPackets(5, 5000, capSpanUS))
	if !bytes.Equal(pa, pb) {
		t.Fatal("capture bytes differ for the same seed")
	}
	if n, err := parseCapture(pa); err != nil || n != 5000 {
		t.Fatalf("capture parses to %d packets (%v), want 5000", n, err)
	}

	for caller := 0; caller < serveCallers; caller++ {
		p, q := newServePlan(9, caller), newServePlan(9, caller)
		for i := 0; i < 200; i++ {
			if x, y := p.next(), q.next(); x != y {
				t.Fatalf("caller %d request %d: %+v vs %+v", caller, i, x, y)
			}
		}
	}
	p0, p1 := newServePlan(9, 0), newServePlan(9, 1)
	same := true
	for i := 0; i < 50; i++ {
		same = same && p0.next() == p1.next()
	}
	if same {
		t.Fatal("both callers send the same sequence")
	}
	qa, qb := newQueryPlan(9), newQueryPlan(9)
	for i := 0; i < 200; i++ {
		x, y := qa.next(), qb.next()
		if x.path("t") != y.path("t") {
			t.Fatalf("query %d: %s vs %s", i, x.path("t"), y.path("t"))
		}
		if !x.windowed() || x.To-x.From != capWindow || x.Filter == "" {
			t.Fatalf("query %d is not a filtered 5%% window: %+v", i, x)
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.Name) || seen[d.Name] {
			t.Errorf("metric name %q is malformed or repeated", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		if _, ok := e2eMeaning[d.Name]; !ok {
			t.Errorf("metric %s has no per-workload meaning", d.Name)
		}
	}
	for _, d := range perLayer {
		if d.Moves == "" {
			t.Errorf("per-layer metric %s names no end-to-end metric it should move", d.Name)
		}
	}
	for _, l := range selfLayers {
		if !seen[l+".self_pct"] {
			t.Errorf("layer %s has no self_pct metric", l)
		}
	}
}

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []benchMetric `json:"end_to_end"`
	PerLayer   []benchMetric `json:"per_layer"`
}

type benchMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	for _, k := range []string{"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"} {
		if _, ok := keys[k]; !ok {
			t.Errorf("BENCHMARK.json lacks %q", k)
		}
	}
	if len(keys) != 6 {
		t.Fatalf("BENCHMARK.json has %d keys, want 6", len(keys))
	}
	return bf
}

func TestBenchmarkFileMatchesCatalog(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	if !reflect.DeepEqual(names, workloadOrder) {
		t.Errorf("workloads %v, want %v", names, workloadOrder)
	}
	check := func(kind string, got []benchMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the catalog", kind, len(got), len(want))
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better || (g.Bound != nil) != bounded ||
				(bounded && *g.Bound != d.Bound) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", kind, i, g, d)
			}
		}
	}
	check("end_to_end", bf.EndToEnd, endToEnd, true)
	check("per_layer", bf.PerLayer, perLayer, false)
	if !reflect.DeepEqual(bf.Paths, []string{"perfbench"}) || bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("paths %v, run_seconds %d", bf.Paths, bf.RunSeconds)
	}
}

// TestWorkloadsEmitEveryMetric runs every workload briefly, untraced and
// traced, and requires a correct result carrying exactly the metrics
// BENCHMARK.json lists. It trains GANs, so -short skips it.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload (minutes)")
	}
	bf := readBenchmarkFile(t)
	for _, w := range workloadOrder {
		for _, traced := range []string{"0", "1"} {
			var out, errOut bytes.Buffer
			code := run([]string{"--workload", w, "--seed", "3", "--seconds", "1", "--trace", traced}, &out, &errOut)
			if code != 0 {
				t.Fatalf("%s trace=%s: exit %d: %s", w, traced, code, errOut.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res struct {
				Correct   bool
				Attempted int
				Failed    int
				Metrics   map[string]struct {
					Value float64
					Unit  string
				}
			}
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s trace=%s: last line: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%s: correct=%v attempted=%d failed=%d\n%s", w, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			want := bf.EndToEnd
			if traced == "1" {
				want = bf.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%s: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%s: metric %s missing or in the wrong unit", w, traced, m.Name)
				}
				if traced == "0" && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w, m.Name, got.Value)
				}
			}
		}
	}
}
