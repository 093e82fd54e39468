package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"sort"
	"strings"
	"text/tabwriter"
)

// median of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// mean of xs (0 for none).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns Q1, Q2, Q3 exactly as Python's
// statistics.quantiles(xs, n=4) (the default "exclusive" method) does,
// so the summary agrees with how the benchmark's steadiness is judged.
// It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	m := n + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), q(2), q(3)
}

// percentile returns the p-th percentile (nearest rank) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	rank = min(max(rank, 1), len(s))
	return s[rank-1]
}

// tailLevels are the percentiles a tail may be reported at.
var tailLevels = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile in tailLevels with at least ten
// samples beyond it, its value, and a label naming it and the sample
// count. With fewer than 40 samples no level qualifies; the maximum is
// reported and labelled as such.
func tail(xs []float64) (float64, string) {
	n := float64(len(xs))
	for _, p := range tailLevels {
		if n*(1-p/100) >= 10 {
			return percentile(xs, p), fmt.Sprintf("p%g of %d samples", p, len(xs))
		}
	}
	return percentile(xs, 100), fmt.Sprintf("max of %d samples (too few for a percentile with 10 beyond)", len(xs))
}

// benchDef is the part of BENCHMARK.json the summary needs.
type benchDef struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// printSummary reads result records and prints, per workload and metric
// (and per measured source when the files cover more than one), the
// median, the quartiles, the spread (Q3-Q1 over the median) against the
// metric's bound, and "unresolved" where the spread exceeds it. With two
// sources it also prints the change of the second median against the
// first, which counts only when it exceeds the first side's spread.
func printSummary(w io.Writer, files []string, boundsPath string) error {
	if len(files) == 0 {
		return fmt.Errorf("summary: no result files given")
	}
	bounds := map[string]float64{}
	better := map[string]string{}
	if b, err := os.ReadFile(boundsPath); err == nil {
		var def benchDef
		if err := json.Unmarshal(b, &def); err != nil {
			return fmt.Errorf("summary: %s: %w", boundsPath, err)
		}
		for _, m := range def.EndToEnd {
			bounds[m.Name], better[m.Name] = m.Bound, m.Better
		}
	}
	type key struct{ workload, metric string }
	values := map[key]map[string][]float64{} // key -> source -> values
	var sources []string
	hosts := map[string]bool{}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return fmt.Errorf("summary: %w", err)
		}
		var rec record
		if err := json.Unmarshal(b, &rec); err != nil {
			return fmt.Errorf("summary: %s: %w", f, err)
		}
		if rec.Traced {
			continue
		}
		p := rec.Provenance
		hosts[fmt.Sprintf("nproc=%d gomaxprocs=%d %s %s/%s", p.NProc, p.GOMAXPROCS, p.GoVersion, p.GOOS, p.GOARCH)] = true
		src := p.Commit
		if len(p.SourceHash) >= 12 {
			src += "/" + p.SourceHash[:12]
		}
		if !slices.Contains(sources, src) {
			sources = append(sources, src)
		}
		// Gate metrics that are also named metrics carry the same value;
		// count each once.
		metrics := map[string]metricValue{}
		for name, v := range rec.Gate {
			metrics[name] = v
		}
		for name, v := range rec.Named {
			metrics[name] = v
		}
		for name, v := range metrics {
			k := key{rec.Workload, name}
			if values[k] == nil {
				values[k] = map[string][]float64{}
			}
			values[k][src] = append(values[k][src], v.Value)
		}
	}
	if len(hosts) > 1 {
		fmt.Fprintf(w, "WARNING: results come from %d different host settings; do not compare them:\n", len(hosts))
		for h := range hosts {
			fmt.Fprintln(w, "  "+h)
		}
	}
	keys := make([]key, 0, len(values))
	for k := range values {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tsource\tn\tmedian\tq1\tq3\tspread\tbound\tstatus\tchange")
	for _, k := range keys {
		bound, gated := bounds[k.metric]
		var base float64
		var baseSpread float64
		for i, src := range sources {
			xs := values[k][src]
			if len(xs) == 0 {
				continue
			}
			q1, med, q3 := quartiles(xs)
			spread := 0.0
			if med != 0 {
				spread = (q3 - q1) / math.Abs(med)
			}
			status, boundText := "-", "-"
			if gated {
				boundText = fmt.Sprintf("%.3f", bound)
				status = "steady"
				if spread > bound {
					status = "unresolved"
				}
			}
			change := "-"
			if i == 0 {
				base, baseSpread = med, spread
			} else if base != 0 {
				rel := (med - base) / math.Abs(base)
				change = fmt.Sprintf("%+.1f%%", 100*rel)
				switch {
				case status == "unresolved":
					change += " unresolved"
				case math.Abs(rel) <= baseSpread:
					change += " within spread"
				case better[k.metric] == "lower" && rel > 0, better[k.metric] == "higher" && rel < 0:
					change += " worse"
				case better[k.metric] != "":
					change += " better"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%d\t%.6g\t%.6g\t%.6g\t%.3f\t%s\t%s\t%s\n",
				k.workload, k.metric, src, len(xs), med, q1, q3, spread, boundText, status, change)
		}
	}
	return tw.Flush()
}

// shortList renders a few values for notes.
func shortList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, ",")
}
