package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"distclk/internal/heldkarp"
	"distclk/internal/tsp"
)

// qualityFamily is one instance family of quality-1k. Every solve runs
// a fixed chain of kicks; a family with a target gap also notes when
// the chain first reaches bound × (1 + gapPct/100).
type qualityFamily struct {
	family tsp.Family
	count  int
	seeds  int64   // solver seeds 1..seeds per instance
	kicks  int64   // chain length
	gapPct float64 // 0 = no target
}

type qualityInstance struct {
	name  string
	in    *tsp.Instance
	fam   qualityFamily
	bound int64 // Held–Karp bound for a target, zero-potential 1-tree otherwise
}

// target is the tour length the chain is watched for, 0 for none.
func (q qualityInstance) target() int64 {
	if q.fam.gapPct == 0 {
		return 0
	}
	return int64(math.Floor(float64(q.bound) * (1 + q.fam.gapPct/100)))
}

// qualitySetup generates the instances and their lower bounds, the
// bounds on up to nproc goroutines.
func qualitySetup(r *run, tr *tracer) ([]qualityInstance, time.Duration, error) {
	sc := r.scale
	var insts []qualityInstance
	for _, f := range sc.qualityFamilies {
		for i := 0; i < f.count; i++ {
			seed := r.opt.seed*1000 + int64(len(insts))
			insts = append(insts, qualityInstance{
				name: fmt.Sprintf("%s-%d", f.family, i),
				in:   tsp.Generate(f.family, sc.qualityN, seed),
				fam:  f,
			})
		}
	}
	start := time.Now()
	root := tr.begin("bench.setup", 0, "")
	parallel(len(insts), func(i int) {
		id := tr.begin("heldkarp.bound", root, insts[i].name)
		if insts[i].fam.gapPct > 0 {
			insts[i].bound = heldkarp.LowerBound(insts[i].in, heldkarp.Options{}).Bound
		} else {
			// A chain needs its bound only for reporting its gap.
			insts[i].bound = int64(heldkarp.MinOneTree(insts[i].in, nil).Cost)
		}
		tr.end(id)
	})
	tr.end(root)
	for _, q := range insts {
		if q.bound <= 0 {
			return nil, 0, fmt.Errorf("quality-1k: %s has no positive lower bound", q.name)
		}
	}
	return insts, time.Since(start), nil
}

// qualitySolve is one solve of one instance under one solver seed.
type qualitySolve struct {
	inst int
	spec solveSpec
}

// qualitySolves lists every solve of a pass, in order.
func qualitySolves(r *run, insts []qualityInstance) []qualitySolve {
	var out []qualitySolve
	for i, q := range insts {
		for seed := int64(1); seed <= max(q.fam.seeds, 1); seed++ {
			sp := solveSpec{in: q.in, seed: seed, maxKicks: q.fam.kicks, watch: q.target(), budget: r.scale.qualityCap, req: fmt.Sprintf("%s/s%d", q.name, seed)}
			out = append(out, qualitySolve{i, sp})
		}
	}
	return out
}

// qualityPass is one pass over every solve.
type qualityPass struct {
	outs  []facadeOutcome
	total time.Duration // summed over the solves
	ttq   time.Duration // summed time to target; a miss counts its whole chain
}

// runQuality is the quality-1k workload: fixed kick chains through the
// facade on uniform, clustered and drill instances, timed end to end,
// with the time each uniform chain takes to reach its target gap.
func runQuality(ctx context.Context, r *run) error {
	var hkTime time.Duration
	insts, err := setupMedian(r, func(tr *tracer) ([]qualityInstance, error) {
		in, d, err := qualitySetup(r, tr)
		hkTime = d
		return in, err
	}, nil)
	if err != nil {
		return err
	}
	solves := qualitySolves(r, insts)
	pass := func() (qualityPass, error) {
		// Each solve is single-threaded; running them on nproc
		// goroutines keeps every CPU busy, so the summed solve times
		// average the speed of all of them, not of one.
		p := qualityPass{outs: make([]facadeOutcome, len(solves))}
		errs := make([]error, len(solves))
		parallel(len(solves), func(i int) { p.outs[i], errs[i] = facadeSolve(ctx, solves[i].spec) })
		for i, s := range solves {
			if errs[i] != nil {
				return p, errs[i]
			}
			o := p.outs[i]
			err := tourErr(insts[s.inst].in, o.tour, o.length)
			if err == nil && o.kicks != s.spec.maxKicks {
				err = fmt.Errorf("ran %d of %d kicks within %v", o.kicks, s.spec.maxKicks, s.spec.budget)
			}
			r.check(err == nil, "%s: %v", s.spec.req, err)
			p.total += o.elapsed
			switch {
			case s.spec.watch == 0:
			case o.reached:
				p.ttq += o.reachAt
			default:
				p.ttq += o.elapsed
			}
		}
		return p, nil
	}

	window := startRuntimeWindow()
	var passes []qualityPass
	if r.tr == nil {
		passes, err = measureRepeats(r, pass)
	} else {
		var p qualityPass
		p, err = pass()
		passes = []qualityPass{p}
	}
	if err != nil {
		return err
	}
	first := passes[0]
	for i, p := range passes[1:] {
		for j, o := range p.outs {
			r.check(o.length == first.outs[j].length, "%s: repeat %d ended at %d, first pass at %d (replay mismatch)", solves[j].spec.req, i+1, o.length, first.outs[j].length)
		}
	}
	var totals, ttqs []float64
	for _, p := range passes {
		totals = append(totals, p.total.Seconds())
		ttqs = append(ttqs, p.ttq.Seconds())
	}
	// The mean, not the median: the host's speed drifts within a run,
	// and every pass samples it.
	total := mean(totals)
	var kicks, toTarget int64
	var gap, chainGap float64
	var nTarget, nChain, misses int
	for i, s := range solves {
		o, bound := first.outs[i], insts[s.inst].bound
		kicks += o.kicks
		g := 100 * float64(o.length-bound) / float64(bound)
		if s.spec.watch == 0 {
			chainGap += g
			nChain++
			continue
		}
		gap += g
		nTarget++
		if o.reached {
			toTarget += o.reachK
		} else {
			toTarget += o.kicks
			misses++
		}
	}
	gap /= float64(max(nTarget, 1))
	chainGap /= float64(max(nChain, 1))
	r.setNamed("solve_s", "s", total)
	r.setNamed("ttq_s", "s", mean(ttqs))
	r.setNamed("kicks_to_target", "count", float64(toTarget))
	r.setNamed("target_misses", "count", float64(misses))
	r.setNamed("gap_pct", "%", gap)
	r.setNamed("chain_gap_pct", "%", chainGap)
	r.setNamed("kicks_per_s", "1/s", float64(kicks)/total)
	r.notes["solve_s"] = fmt.Sprintf("mean of %d passes: %s s", len(passes), shortList(totals))
	r.notes["ttq_s"] = fmt.Sprintf("mean of %d passes: %s s", len(passes), shortList(ttqs))
	for i, s := range solves {
		o := first.outs[i]
		r.notes["solve."+s.spec.req] = fmt.Sprintf("%d kicks in %.3f s (HK %d), final gap %.3f%%; target %d reached %v after %d kicks, %.3f s",
			o.kicks, o.elapsed.Seconds(), insts[s.inst].bound, 100*float64(o.length-insts[s.inst].bound)/float64(insts[s.inst].bound),
			s.spec.watch, o.reached, o.reachK, o.reachAt.Seconds())
	}
	r.setGate("time_s", total)
	r.setLayer("heldkarp.bound_s", hkTime.Seconds())

	if r.tr != nil {
		var outs []tracedOutcome
		var traced, replica time.Duration
		for i, s := range solves {
			q := insts[s.inst]
			o := tracedSolve(r, 0, s.spec)
			outs = append(outs, o)
			traced += o.total
			replica += o.replica
			checkTour(r, s.spec.req+" (traced)", q.in, o.tour, o.length)
			r.check(o.length == first.outs[i].length, "%s: traced chain ended at %d, facade at %d (replay mismatch)", s.spec.req, o.length, first.outs[i].length)
		}
		layerTotals(r, outs)
		r.setLayer("clk.kicks_to_target", float64(toTarget))
		r.setLayer("trace.overhead_pct", overheadPct(traced, replica, first.total))
	}
	window.finish(r)
	return nil
}
