package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"distclk/internal/tsp"
)

// smokeScale runs every workload's full code path in seconds.
var smokeScale = scale{
	setupReps: 2,

	qualityN: 150,
	qualityFamilies: []qualityFamily{
		{family: tsp.FamilyUniform, count: 2, seeds: 2, kicks: 20, gapPct: 6},
		{family: tsp.FamilyClustered, count: 1, seeds: 1, kicks: 10},
		{family: tsp.FamilyDrill, count: 1, seeds: 1, kicks: 10},
	},
	qualityCap: 20 * time.Second,

	svcPhases: []svcPhase{
		{"light", 40, 8},
		{"reference", 60, 24},
		{"near-capacity", 80, 12},
	},
	svcRef:         1,
	svcTailLimitMS: 5000,
	svcMinN:        20,
	svcMaxN:        60,
	svcMinKicks:    5,
	svcMaxKicks:    10,
	svcBudgetMS:    20,
	svcRepeatShare: 0.25,
	svcBatchShare:  0.3,
	svcBudgetShare: 0.1,
	svcSplitSample: 4,

	clusterFamily: tsp.FamilyDrill,
	clusterN:      200,
	clusterNodes:  8,
	clusterIters:  2,
	clusterKPC:    3,
	clusterCV:     4,
	clusterCR:     16,
	codecChain:    8,
	codecMaxKicks: 200,
	codecReps:     2,
}

// TestWorkloadsSmoke runs each workload untraced and traced at smoke
// scale and checks the result line's contract.
func TestWorkloadsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			name := w.name
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				opt := options{seed: 7, trace: traced, out: t.TempDir()}
				r, err := execute(context.Background(), w, opt, smokeScale)
				if err != nil {
					t.Fatal(err)
				}
				l := r.line()
				if !l.Correct || l.Failed != 0 || l.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d: %v", l.Correct, l.Attempted, l.Failed, r.failures)
				}
				defs := gateMetrics
				if traced {
					defs = layerMetrics
				}
				if len(l.Metrics) != len(defs) {
					t.Fatalf("%d metrics, want %d", len(l.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := l.Metrics[d.name]
					if !ok || m.Unit != d.unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
						t.Errorf("metric %s = %+v (present %v), want unit %s and a finite value", d.name, m, ok, d.unit)
					}
					if !traced && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
				if traced && l.Metrics["clk.allocs_per_kick"].Value != 0 {
					t.Errorf("clk.allocs_per_kick = %v, want 0", l.Metrics["clk.allocs_per_kick"].Value)
				}
				files, err := os.ReadDir(opt.out)
				if err != nil {
					t.Fatal(err)
				}
				want := 1
				if traced {
					want = 2 // record + spans
				}
				if len(files) != want {
					t.Fatalf("%d files written, want %d", len(files), want)
				}
			})
		}
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// TestMetricNames checks every metric and workload name against the
// benchmark's naming rules, and BENCHMARK.json against the code.
func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, defs := range [][]metricDef{gateMetrics, layerMetrics} {
		for _, d := range defs {
			if !nameRE.MatchString(d.name) || !regexp.MustCompile(`^[A-Za-z0-9_.-]+$`).MatchString(d.name) {
				t.Errorf("metric name %q breaks the naming rule", d.name)
			}
			if !unitRE.MatchString(d.unit) {
				t.Errorf("metric %s: unit %q breaks the unit rule", d.name, d.unit)
			}
			if seen[d.name] {
				t.Errorf("metric name %q used twice", d.name)
			}
			seen[d.name] = true
		}
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) || seen[w.name] {
			t.Errorf("workload name %q breaks the naming rule or repeats", w.name)
		}
		seen[w.name] = true
	}

	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("BENCHMARK.json lists %d %s metrics, the code %d", len(got), what, len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("BENCHMARK.json %s[%d] = %s (%s), code %s (%s)", what, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, gateMetrics)
	same("per_layer", def.PerLayer, layerMetrics)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the code %d", len(def.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if def.Workloads[i].Name != w.name {
			t.Errorf("BENCHMARK.json workload %d = %s, code %s", i, def.Workloads[i].Name, w.name)
		}
	}
}

// TestSelfTimeArithmetic pins the span self-time and coverage rules:
// overlapping children count once, children are clipped to the parent,
// and grandchildren only reduce their own parent.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "bench.solve", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "lk.init_pass", Start: 10, End: 40},
		{ID: 3, Parent: 2, Name: "tsp.describe", Start: 15, End: 20},
		{ID: 4, Parent: 1, Name: "clk.kick", Start: 30, End: 60},
		{ID: 5, Parent: 1, Name: "clk.kick", Start: 90, End: 120},
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"bench": 100 - (50 + 10), // children cover [10,60] and [90,100]
		"lk":    30 - 5,
		"tsp":   5,
		"clk":   30 + 30, // each kick's own duration; no children
	}
	for layer, w := range want {
		if got[layer] != w {
			t.Errorf("self(%s) = %d, want %d", layer, got[layer], w)
		}
	}
	if c := coverage(spans, "bench.solve"); math.Abs(c-0.6) > 1e-12 {
		t.Errorf("coverage = %v, want 0.6", c)
	}

	tr := newTracer()
	root := tr.begin("bench.solve", 0, "x")
	child := tr.begin("clk.kick", root, "x")
	tr.end(child)
	tr.end(root)
	s := tr.snapshot()
	if len(s) != 2 || s[1].Parent != s[0].ID || s[0].End < s[1].End {
		t.Fatalf("tracer recorded %+v", s)
	}
	var nilTracer *tracer
	if id := nilTracer.begin("clk.kick", 0, ""); id != 0 {
		t.Fatalf("nil tracer returned span id %d", id)
	}
	nilTracer.end(0)
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	if v, label := tail(make([]float64, 150)); v != 0 || label != "p90 of 150 samples" {
		t.Errorf("tail over 150 samples = %v %q", v, label)
	}
}
