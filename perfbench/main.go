// Command perfbench is the repository's end-to-end benchmark. Given a
// workload seed it generates the inputs, drives the solver only through
// its public entry points (the distclk facade, the solve service over
// loopback HTTP, simnet.Run, and the layer calls the facade composes),
// checks every output, and prints one JSON result line.
//
//	go run ./perfbench --workload quality-1k --seed 1 --seconds 30 --trace 0
//	go run ./perfbench --workload all --seed 1
//	go run ./perfbench --summary .bench_build/results/*.json
//
// With --trace 0 the last line carries the end-to-end metrics; with
// --trace 1 a separate traced pass records spans around every layer call
// and the last line carries the per-layer metrics instead. The full
// record (provenance, every named metric, failures) is written under
// --out; see README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// workload is one benchmark scenario. run fills r with metrics; a
// returned error aborts the run without a result line.
type workload struct {
	name string
	run  func(ctx context.Context, r *run) error
}

// workloads lists the scenarios in the order --workload all runs them;
// README.md and BENCHMARK.json say why each was chosen.
var workloads = []workload{
	{"quality-1k", runQuality},
	{"service-mix", runService},
	{"cluster-sim", runCluster},
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: quality-1k, service-mix, cluster-sim, or all")
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 30, "measured time per run, in seconds")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		out     = flag.String("out", filepath.Join(".bench_build", "results"), "directory for result records and span files")
		summary = flag.Bool("summary", false, "print the steadiness summary of the result files given as arguments")
		bounds  = flag.String("bounds", "BENCHMARK.json", "benchmark definition whose bounds the summary applies")
	)
	flag.Parse()
	if *summary {
		if err := printSummary(os.Stdout, flag.Args(), *bounds); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	var selected []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			selected = append(selected, w)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	opt := options{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, out: *out}
	var runs []*run
	for _, w := range selected {
		r, err := execute(context.Background(), w, opt, fullScale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		r.printNamed(os.Stdout)
		printLine(r.line())
		runs = append(runs, r)
	}
	if len(runs) > 1 {
		// --workload all: after one line per workload, the combined
		// verdict is the last line, its metrics keyed workload/metric.
		all := resultLine{Correct: true, Metrics: map[string]metricValue{}}
		for _, r := range runs {
			one := r.line()
			all.Correct = all.Correct && one.Correct
			all.Attempted += one.Attempted
			all.Failed += one.Failed
			for k, v := range one.Metrics {
				all.Metrics[r.workload+"/"+k] = v
			}
		}
		printLine(all)
	}
}

// execute runs one workload and writes its full record (and, when
// tracing, its spans) under opt.out.
func execute(ctx context.Context, w workload, opt options, sc scale) (*run, error) {
	r := newRun(w.name, opt, sc)
	if err := w.run(ctx, r); err != nil {
		return nil, err
	}
	r.finish()
	if err := r.write(); err != nil {
		return nil, err
	}
	return r, nil
}

func printLine(l resultLine) {
	b, err := json.Marshal(l)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}
