// Command perfbench is the repository benchmark: it drives the program
// through its public surfaces (the webapi HTTP handler in an in-process
// httptest server, and the public functions of core, registry, store,
// ingest and trace) on one of three seeded workloads, checks every
// output, and prints each metric by name with its unit and sample count.
// The last line of standard output is the JSON result.
//
//	perfbench --workload serve|job|capture|all --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it runs
// the workload untraced, then traced, then replays the same seeded
// operations through the layers' public functions with spans around each
// call, and reports the per-layer metrics. See README.md.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// env is what every workload receives.
type env struct {
	work    string // per-run scratch directory, removed at exit
	seed    int64
	seconds time.Duration
	traced  bool
	setups  int // set-ups per run, for the median setup_s
}

// dir returns a fresh subdirectory of the run's scratch directory.
func (e *env) dir(name string) (string, error) {
	d := filepath.Join(e.work, name)
	if err := os.RemoveAll(d); err != nil {
		return "", err
	}
	return d, os.MkdirAll(d, 0o755)
}

// metric is one reported value with its sample count.
type metric struct {
	Value float64
	N     int
}

// result is what a workload measured.
type result struct {
	attempted, failed int
	failures          []string
	e2e               map[string]metric
	layer             map[string]metric
	// detail holds the workload's own named figures (gen_exact_p50_ms,
	// job_s, ingest_pkts_per_s, ...) that the generic metrics map from.
	detail []detail
	config *core.Config
	spans  []span
}

type detail struct {
	Name   string
	Value  float64
	Unit   string
	N      int
	Q1, Q3 float64 // quartiles of a distribution's samples, else NaN
}

func newResult() *result {
	return &result{e2e: map[string]metric{}, layer: map[string]metric{}}
}

// fail counts one failed operation.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *result) addDetail(name string, v float64, unit string, n int) {
	r.detail = append(r.detail, detail{name, v, unit, n, math.NaN(), math.NaN()})
}

// addDist records the median of xs with its quartiles.
func (r *result) addDist(name string, xs []float64, unit string) {
	q1, q3 := quartiles(xs)
	r.detail = append(r.detail, detail{name, median(xs), unit, len(xs), q1, q3})
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(*env) (*result, error){
	"serve":   runServe,
	"job":     runJob,
	"capture": runCapture,
}

var workloadOrder = []string{"serve", "job", "capture"}

// setups is each workload's set-up count per run. A serve set-up trains
// a model (about 10 s), so it runs twice; the job workload's set-up
// takes milliseconds, so it takes more samples.
var setups = map[string]int{"serve": 2, "job": 9, "capture": 3}

// buildDir, relative to the working directory (the checkout root when
// run by run.sh), holds everything a run writes.
const buildDir = ".bench_build"

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	flags := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	flags.SetOutput(stderr)
	workload := flags.String("workload", "", "serve, job, capture, or all")
	seed := flags.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := flags.Int("seconds", 10, "measured seconds per phase")
	traceFlag := flags.Int("trace", 0, "1 adds the traced run and reports per-layer metrics")
	if err := flags.Parse(args); err != nil {
		return 2
	}
	names := []string{*workload}
	if *workload == "all" {
		names = workloadOrder
	} else if workloads[*workload] == nil {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want serve, job, capture or all)\n", *workload)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	work := filepath.Join(buildDir, fmt.Sprintf("work-%d", os.Getpid()))
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(work)

	for _, name := range names {
		e := &env{work: work, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
			traced: *traceFlag == 1, setups: setups[name]}
		res, err := workloads[name](e)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		if e.traced {
			path := filepath.Join(buildDir, "spans", fmt.Sprintf("%s-seed%d.jsonl", name, *seed))
			if err = os.MkdirAll(filepath.Dir(path), 0o755); err == nil {
				err = writeSpans(path, res.spans)
			}
			if err != nil {
				fmt.Fprintf(stderr, "perfbench: %v\n", err)
				return 1
			}
			fmt.Fprintf(stdout, "spans %s (%d spans)\n", path, len(res.spans))
		}
		out, err := report(stdout, name, e, res)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", name, err)
			return 1
		}
		fmt.Fprintf(stdout, "%s\n", out)
	}
	return 0
}

// report prints the run metadata, every metric with its unit and sample
// count, and the workload's own named figures; it returns the JSON
// result line.
func report(w io.Writer, name string, e *env, res *result) ([]byte, error) {
	meta := map[string]any{
		"workload": name, "seed": e.seed, "seconds": e.seconds.Seconds(), "trace": e.traced,
		"setups": e.setups, "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"go": runtime.Version(), "commit": commit(), "source_sha256": sourceDigest(), "config": res.config,
	}
	mb, err := json.Marshal(meta)
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(w, "meta %s\n", mb)
	for _, d := range res.detail {
		fmt.Fprintf(w, "detail %-28s %14.4f %-6s n=%d", d.Name, d.Value, d.Unit, d.N)
		if !math.IsNaN(d.Q1) {
			fmt.Fprintf(w, " q1=%.4f q3=%.4f", d.Q1, d.Q3)
		}
		fmt.Fprintln(w)
	}
	defs, got := endToEnd, res.e2e
	if e.traced {
		defs, got = perLayer, res.layer
	}
	metrics := map[string]any{}
	for _, d := range defs {
		m, ok := got[d.Name]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		note := "moves " + d.Moves
		if !e.traced {
			note = e2eMeaning[d.Name][slices.Index(workloadOrder, name)]
		}
		fmt.Fprintf(w, "metric %-28s %14.4f %-6s n=%-6d # %s\n", d.Name, m.Value, d.Unit, m.N, note)
		metrics[d.Name] = map[string]any{"value": m.Value, "unit": d.Unit}
	}
	for _, f := range res.failures {
		fmt.Fprintf(w, "failure %s\n", f)
	}
	return json.Marshal(map[string]any{
		"correct": res.failed == 0, "attempted": res.attempted, "failed": res.failed, "metrics": metrics,
	})
}

// commit identifies the code under test: the VCS revision stamped into
// the binary when built inside a git checkout, else "none".
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "none"
}

// sourceDigest hashes every Go source and go.mod file under the working
// directory (the checkout root), identifying the code under test where
// no VCS revision is stamped.
func sourceDigest() string {
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == buildDir || d.Name() == ".git") {
			return filepath.SkipDir
		}
		if d.IsDir() || !(strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", path, len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // kilobytes on Linux
}

// setupTimes runs setup e.setups times and returns the median duration
// and the last set-up's state; close releases every earlier state.
func setupTimes[T any](e *env, setup func(i int) (T, error), close func(T)) (T, metric, error) {
	var last T
	var ds []float64
	for i := 0; i < e.setups; i++ {
		if i > 0 {
			close(last)
		}
		t0 := time.Now()
		st, err := setup(i)
		if err != nil {
			return last, metric{}, err
		}
		ds = append(ds, time.Since(t0).Seconds())
		last = st
	}
	return last, metric{median(ds), len(ds)}, nil
}

// check records a failed operation when cond is false.
func (r *result) check(cond bool, format string, args ...any) bool {
	if !cond {
		r.fail(format, args...)
	}
	return cond
}

// trimBody shortens an error response body for failure messages.
func trimBody(b []byte) string {
	s := strings.TrimSpace(string(b))
	if len(s) > 160 {
		s = s[:160] + "..."
	}
	return s
}
