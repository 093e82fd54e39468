package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"
)

// options are the command-line settings shared by every workload.
type options struct {
	seed    int64
	seconds time.Duration
	trace   bool
	out     string
}

// metricDef names one reported metric and its unit.
type metricDef struct {
	name string
	unit string
}

// gateMetrics are BENCHMARK.json's end_to_end metrics. Every workload
// reports each of them; README.md gives the per-workload definitions and
// the named metric each one carries.
var gateMetrics = []metricDef{
	{"setup_s", "s"},
	{"time_s", "s"},
	{"peak_rss_mb", "MB"},
}

// layerMetrics are BENCHMARK.json's per_layer metrics, reported by every
// traced run. A layer a workload does not reach reads 0.
var layerMetrics = []metricDef{
	{"tsp.describe_ms", "ms"},
	{"neighbor.select_ms", "ms"},
	{"neighbor.cands_per_city", "count"},
	{"construct.build_ms", "ms"},
	{"construct.excess_pct", "%"},
	{"lk.init_pass_ms", "ms"},
	{"clk.engine_ms", "ms"},
	{"clk.kick_ms_p50", "ms"},
	{"clk.kick_ms_tail", "ms"},
	{"clk.kicks_per_s", "1/s"},
	{"clk.kicks_to_target", "count"},
	{"clk.accept_ratio", "ratio"},
	{"clk.improve_ratio", "ratio"},
	{"clk.allocs_per_kick", "count"},
	{"heldkarp.bound_s", "s"},
	{"serve.solve_ms_p50", "ms"},
	{"serve.overhead_ms_p50", "ms"},
	{"serve.overhead_ms_tail", "ms"},
	{"serve.hit_ms_p50", "ms"},
	{"serve.cache_hit_ratio", "ratio"},
	{"serve.scratch_reuse_ratio", "ratio"},
	{"serve.rejected_share", "ratio"},
	{"serve.budget_overrun_ms", "ms"},
	{"serve.gen_lag_ms", "ms"},
	{"core.iterations", "count"},
	{"core.perturbations", "count"},
	{"core.restarts", "count"},
	{"dist.delta_share", "ratio"},
	{"dist.wire_bytes", "bytes"},
	{"dist.adopt_ratio", "ratio"},
	{"dist.encode_us", "us"},
	{"dist.decode_us", "us"},
	{"simnet.events", "count"},
	{"go.gc_cpu_fraction", "ratio"},
	{"go.alloc_mb", "MB"},
	{"tsp.self_ms", "ms"},
	{"neighbor.self_ms", "ms"},
	{"construct.self_ms", "ms"},
	{"lk.self_ms", "ms"},
	{"clk.self_ms", "ms"},
	{"heldkarp.self_ms", "ms"},
	{"serve.self_ms", "ms"},
	{"dist.self_ms", "ms"},
	{"simnet.self_ms", "ms"},
	{"bench.self_ms", "ms"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_pct", "%"},
}

// layers are the span-name prefixes whose self time is reported.
var layers = []string{"tsp", "neighbor", "construct", "lk", "clk", "heldkarp", "serve", "dist", "simnet", "bench"}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// maxFailureNotes bounds the failure descriptions kept in the record;
// every failure is still counted.
const maxFailureNotes = 50

// run accumulates one workload run: operation counts, failures, and
// metrics at three levels — the workload's own named end-to-end metrics
// (the README's table), the gate metrics, and the per-layer metrics.
type run struct {
	workload string
	opt      options
	scale    scale
	tr       *tracer // nil in untraced runs
	started  time.Time
	probes   []float64 // hostProbe readings, ms

	attempted, failed int64
	failures          []string

	named map[string]metricValue
	gate  map[string]metricValue
	layer map[string]metricValue
	notes map[string]string
}

func newRun(name string, opt options, sc scale) *run {
	r := &run{
		workload: name,
		opt:      opt,
		scale:    sc,
		started:  time.Now(),
		named:    map[string]metricValue{},
		gate:     map[string]metricValue{},
		layer:    map[string]metricValue{},
		notes:    map[string]string{},
	}
	if opt.trace {
		r.tr = newTracer()
	}
	r.probes = append(r.probes, hostProbe())
	return r
}

// hostProbe times a fixed, benchmark-owned CPU loop — pseudo-random
// sub-array reversals, the access pattern of LK's flips — in ms. Read at
// the start and end of every run, it shows how fast the host was while
// the run measured, so a slow host is not mistaken for a slow commit.
func hostProbe() float64 {
	a := make([]int32, 1<<16)
	for i := range a {
		a[i] = int32(i)
	}
	x := uint32(1)
	start := time.Now()
	for k := 0; k < 20000; k++ {
		x = x*1664525 + 1013904223
		i := int(x>>16) % len(a)
		x = x*1664525 + 1013904223
		j := min(i+int(x>>21), len(a)-1)
		for l, r := i, j; l < r; l, r = l+1, r-1 {
			a[l], a[r] = a[r], a[l]
		}
	}
	return ms(time.Since(start))
}

// check counts one verified operation, and a failure when ok is false.
func (r *run) check(ok bool, format string, args ...any) {
	r.attempted++
	if ok {
		return
	}
	r.failed++
	if len(r.failures) < maxFailureNotes {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

func (r *run) setNamed(name, unit string, v float64) { r.named[name] = metricValue{v, unit} }
func (r *run) setLayer(name string, v float64) {
	r.layer[name] = metricValue{v, unitOf(layerMetrics, name)}
}
func (r *run) setGate(name string, v float64) {
	r.gate[name] = metricValue{v, unitOf(gateMetrics, name)}
}

func unitOf(defs []metricDef, name string) string {
	for _, d := range defs {
		if d.name == name {
			return d.unit
		}
	}
	return ""
}

// setupMedian runs build scale.setupReps times, keeps the last result,
// releases the others, and records the median duration as setup_s. build
// gets the tracer on the last repetition only, so a traced run records
// one set-up's spans.
func setupMedian[T any](r *run, build func(tr *tracer) (T, error), release func(T)) (T, error) {
	var (
		last  T
		times []float64
	)
	reps := max(r.scale.setupReps, 1)
	for i := 0; i < reps; i++ {
		var tr *tracer
		if i == reps-1 {
			tr = r.tr
		}
		start := time.Now()
		v, err := build(tr)
		if err != nil {
			return last, err
		}
		times = append(times, time.Since(start).Seconds())
		if i > 0 && release != nil {
			release(last)
		}
		last = v
	}
	s := median(times)
	r.setNamed("setup_s", "s", s)
	r.setGate("setup_s", s)
	return last, nil
}

// measureRepeats runs unit once, and then again while one more repeat
// of the mean length so far still ends within opt.seconds, and returns
// each repeat's measurement.
func measureRepeats[T any](r *run, unit func() (T, error)) ([]T, error) {
	var out []T
	start := time.Now()
	for len(out) == 0 || fitsAnother(start, len(out), r.opt.seconds) {
		v, err := unit()
		if err != nil {
			return out, err
		}
		out = append(out, v)
	}
	return out, nil
}

// fitsAnother reports whether a repeat as long as the mean of the done
// ones, started now, still ends within limit of start.
func fitsAnother(start time.Time, done int, limit time.Duration) bool {
	if done == 0 {
		return true
	}
	spent := time.Since(start)
	return spent+spent/time.Duration(done) <= limit
}

// runtimeWindow captures Go runtime counters around a measured phase.
type runtimeWindow struct {
	start runtime.MemStats
}

func startRuntimeWindow() *runtimeWindow {
	w := &runtimeWindow{}
	runtime.ReadMemStats(&w.start)
	return w
}

// finish records the GC share and allocation volume since the window
// opened.
func (w *runtimeWindow) finish(r *run) {
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	r.setLayer("go.gc_cpu_fraction", end.GCCPUFraction)
	r.setLayer("go.alloc_mb", float64(end.TotalAlloc-w.start.TotalAlloc)/1e6)
}

// finish fills the metrics every workload shares.
func (r *run) finish() {
	r.probes = append(r.probes, hostProbe())
	r.setNamed("host_probe_ms", "ms", median(r.probes))
	r.notes["host_probe_ms"] = "fixed CPU loop timed at the start and the end of the run: " + shortList(r.probes) + " ms"
	rss := peakRSSMB()
	r.setNamed("peak_rss_mb", "MB", rss)
	r.setGate("peak_rss_mb", rss)
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	r.setNamed("failed_share", "ratio", share)
	if r.tr != nil {
		self := selfTimes(r.tr.snapshot())
		for _, l := range layers {
			r.setLayer(l+".self_ms", ms(self[l]))
		}
	}
	for _, d := range layerMetrics {
		if _, ok := r.layer[d.name]; !ok {
			r.layer[d.name] = metricValue{0, d.unit}
		}
	}
}

// printNamed writes the workload's named metrics, one per line, with
// their units and notes, ahead of the result line.
func (r *run) printNamed(w io.Writer) {
	names := make([]string, 0, len(r.named))
	for n := range r.named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.named[n]
		fmt.Fprintf(w, "# %s %s = %.6g %s", r.workload, n, m.Value, m.Unit)
		if note, ok := r.notes[n]; ok {
			fmt.Fprintf(w, " (%s)", note)
		}
		fmt.Fprintln(w)
	}
	for _, f := range r.failures {
		fmt.Fprintf(w, "# %s FAILED: %s\n", r.workload, f)
	}
}

// line is the result line: gate metrics untraced, layer metrics traced.
func (r *run) line() resultLine {
	l := resultLine{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	src, defs := r.gate, gateMetrics
	if r.opt.trace {
		src, defs = r.layer, layerMetrics
	}
	for _, d := range defs {
		l.Metrics[d.name] = src[d.name]
	}
	return l
}

// record is the full result file one run writes.
type record struct {
	Workload   string                 `json:"workload"`
	Seed       int64                  `json:"seed"`
	Traced     bool                   `json:"traced"`
	Seconds    float64                `json:"seconds"`
	Provenance provenance             `json:"provenance"`
	Correct    bool                   `json:"correct"`
	Attempted  int64                  `json:"attempted"`
	Failed     int64                  `json:"failed"`
	Failures   []string               `json:"failures,omitempty"`
	Named      map[string]metricValue `json:"named"`
	Gate       map[string]metricValue `json:"gate"`
	Layer      map[string]metricValue `json:"layer"`
	Notes      map[string]string      `json:"notes,omitempty"`
	SpanFile   string                 `json:"span_file,omitempty"`
}

// provenance identifies where and on what a result was measured, so
// results from different hosts or commits are never compared silently.
type provenance struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	StartedUTC string `json:"started_utc"`
}

func (r *run) provenance() provenance {
	return provenance{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		Commit:     commit(),
		SourceHash: sourceHash("."),
		StartedUTC: r.started.UTC().Format(time.RFC3339),
	}
}

// commit names the measured revision: PERFBENCH_COMMIT when set, else the
// VCS stamp go build recorded, else "unknown" (an exported tree carries
// no VCS data; source_sha256 still identifies it).
func commit() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return c
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// sourceHash digests every .go file and go.mod under root (skipping
// hidden and build-output directories) in path order, identifying the
// measured source even outside a git checkout.
func sourceHash(root string) string {
	h := sha256.New()
	var paths []string
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			paths = append(paths, path)
		}
		return nil
	})
	sort.Strings(paths)
	for _, p := range paths {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// write stores the record (and spans, when traced) under opt.out.
func (r *run) write() error {
	if err := os.MkdirAll(r.opt.out, 0o755); err != nil {
		return err
	}
	stamp := fmt.Sprintf("%s-seed%d-trace%d-%d", r.workload, r.opt.seed, boolInt(r.opt.trace), r.started.UnixNano())
	rec := record{
		Workload:   r.workload,
		Seed:       r.opt.seed,
		Traced:     r.opt.trace,
		Seconds:    r.opt.seconds.Seconds(),
		Provenance: r.provenance(),
		Correct:    r.failed == 0 && r.attempted > 0,
		Attempted:  r.attempted,
		Failed:     r.failed,
		Failures:   r.failures,
		Named:      r.named,
		Gate:       r.gate,
		Layer:      r.layer,
		Notes:      r.notes,
	}
	if r.tr != nil {
		rec.SpanFile = filepath.Join(r.opt.out, "spans-"+stamp+".jsonl")
		if err := r.tr.writeJSONL(rec.SpanFile); err != nil {
			return err
		}
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(r.opt.out, stamp+".json"), append(b, '\n'), 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB; 0 where
// /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) >= 2 && fields[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(fields[1], 64)
			if err != nil {
				return 0
			}
			return kb * 1024 / 1e6
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
