package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"time"

	"distclk/internal/clk"
	"distclk/internal/core"
	"distclk/internal/dist"
	"distclk/internal/heldkarp"
	"distclk/internal/simnet"
	"distclk/internal/topology"
	"distclk/internal/tsp"
)

type clusterInstance struct {
	in    *tsp.Instance
	bound int64 // Held–Karp lower bound
}

func clusterSetup(r *run, tr *tracer) (clusterInstance, time.Duration, error) {
	// One fixed instance, as the paper's fl1577: its LK cost per kick
	// differs by half between drill instances, which would swamp what the
	// workload measures. The seed drives the cluster itself — every
	// node's search and the network.
	in := tsp.Generate(r.scale.clusterFamily, r.scale.clusterN, clusterInstanceSeed)
	start := time.Now()
	root := tr.begin("bench.setup", 0, "")
	id := tr.begin("heldkarp.bound", root, "cluster")
	bound := heldkarp.LowerBound(in, heldkarp.Options{}).Bound
	tr.end(id)
	tr.end(root)
	if bound <= 0 {
		return clusterInstance{}, 0, fmt.Errorf("cluster-sim: Held–Karp bound %d is not positive", bound)
	}
	return clusterInstance{in: in, bound: bound}, time.Since(start), nil
}

// clusterConfig is the virtual cluster: tree-of-rings with tour-diff
// broadcast and coalescing, short embedded CLK calls, a fixed EA budget.
func clusterConfig(r *run) simnet.Config {
	sc := r.scale
	ea := core.DefaultConfig()
	ea.CV, ea.CR = sc.clusterCV, sc.clusterCR
	ea.KicksPerCall = sc.clusterKPC
	return simnet.Config{
		Nodes:    sc.clusterNodes,
		Topo:     topology.TreeOfRings,
		EA:       ea,
		Budget:   core.Budget{MaxIterations: sc.clusterIters},
		Seed:     r.opt.seed,
		Exchange: dist.ExchangeConfig{Delta: true, KeyframeEvery: 16, Coalesce: true},
		Link:     simnet.Link{Latency: simnet.Latency{Kind: simnet.LatencyFixed, Base: 5 * time.Millisecond}},
	}
}

// clusterRun is one timed simnet.Run and its replay fingerprint.
type clusterRun struct {
	res  simnet.Result
	wall time.Duration
	hash uint64 // over the event stream, the fault ledger and the tour
}

func fingerprint(res simnet.Result) uint64 {
	h := fnv.New64a()
	for _, e := range res.Events {
		fmt.Fprintf(h, "%d %d %d %d %d\n", e.At, e.Node, e.Kind, e.Value, e.From)
	}
	fmt.Fprintf(h, "%+v %d %v\n", res.Faults, res.BestLength, res.BestTour)
	return h.Sum64()
}

// runCluster is the cluster-sim workload.
func runCluster(ctx context.Context, r *run) error {
	var hkTime time.Duration
	ci, err := setupMedian(r, func(tr *tracer) (clusterInstance, error) {
		v, d, err := clusterSetup(r, tr)
		hkTime = d
		return v, err
	}, nil)
	if err != nil {
		return err
	}
	cfg := clusterConfig(r)
	once := func(parent int) clusterRun {
		id := r.tr.begin("simnet.run", parent, "cluster")
		start := time.Now()
		res := simnet.Run(ctx, ci.in, cfg)
		wall := time.Since(start)
		r.tr.end(id)
		return clusterRun{res: res, wall: wall, hash: fingerprint(res)}
	}

	window := startRuntimeWindow()
	// Rounds of nproc concurrent runs: each run is one goroutine, so a
	// round samples the speed of every CPU, as quality-1k's chains do.
	// Two runs at least: the second is the replay check.
	var runs []clusterRun
	start := time.Now()
	for rounds := 0; len(runs) < 2 || (r.tr == nil && fitsAnother(start, rounds, r.opt.seconds)); rounds++ {
		round := make([]clusterRun, nproc())
		parallel(len(round), func(i int) { round[i] = once(0) })
		runs = append(runs, round...)
	}
	first := runs[0].res
	err = tourErr(ci.in, first.BestTour, first.BestLength)
	if err == nil && first.Faults.DeltaMismatches != 0 {
		err = fmt.Errorf("%d tour-diff reconstructions differed from the sender's tour", first.Faults.DeltaMismatches)
	}
	r.check(err == nil, "cluster: %v", err)
	for i, cr := range runs[1:] {
		r.check(cr.hash == runs[0].hash, "cluster: run %d did not replay run 0 (best %d vs %d, %d vs %d events)", i+1, cr.res.BestLength, first.BestLength, len(cr.res.Events), len(first.Events))
	}
	var walls []float64
	for _, cr := range runs {
		walls = append(walls, cr.wall.Seconds())
	}
	wall := mean(walls)
	gap := 100 * float64(first.BestLength-ci.bound) / float64(ci.bound)
	iters := first.Iterations()
	r.setNamed("cluster_wall_s", "s", wall)
	r.setNamed("gap_pct", "%", gap)
	r.setNamed("ea_iterations_per_s", "1/s", float64(iters)/wall)
	r.notes["cluster_wall_s"] = fmt.Sprintf("mean of %d runs: %s s", len(walls), shortList(walls))
	r.setGate("time_s", wall)
	r.setLayer("heldkarp.bound_s", hkTime.Seconds())

	var perturbs, received, accepted int64
	for _, c := range first.Counters {
		perturbs += c.Perturbations
	}
	var restarts int64
	for _, s := range first.Stats {
		restarts += s.Restarts
		received += s.Received
		accepted += s.Accepted
	}
	f := first.Faults
	r.setLayer("core.iterations", float64(iters))
	r.setLayer("core.perturbations", float64(perturbs))
	r.setLayer("core.restarts", float64(restarts))
	if tours := f.FullTours + f.DeltaTours; tours > 0 {
		r.setLayer("dist.delta_share", float64(f.DeltaTours)/float64(tours))
	}
	r.setLayer("dist.wire_bytes", float64(f.WireBytes))
	if received > 0 {
		r.setLayer("dist.adopt_ratio", float64(accepted)/float64(received))
	}
	r.setLayer("simnet.events", float64(len(first.Events)))

	if r.tr != nil {
		root := r.tr.begin("bench.cluster", 0, "cluster")
		traced := once(root)
		r.tr.end(root)
		r.check(traced.hash == runs[0].hash, "cluster: traced run did not replay run 0")
		r.setLayer("trace.coverage", coverage(r.tr.snapshot(), "bench.cluster"))
		r.setLayer("trace.overhead_pct", 100*(traced.wall.Seconds()-wall)/wall)
		codecReplay(r, ci.in)
	}
	window.finish(r)
	return nil
}

// codecReplay times DeltaEncoder.Encode and DeltaDecoder.Decode over a
// chain of successive CLK incumbents, the stream a node broadcasts, and
// checks every decoded tour against the sent one.
func codecReplay(r *run, in *tsp.Instance) {
	sc := r.scale
	engine := clk.New(in, clk.DefaultParams(), r.opt.seed)
	chain := []tsp.Tour{}
	t, l := engine.Best()
	chain = append(chain, t)
	lengths := []int64{l}
	for k := 0; k < sc.codecMaxKicks && len(chain) < sc.codecChain; k++ {
		if engine.KickOnce() {
			t, l = engine.Best()
			chain = append(chain, t)
			lengths = append(lengths, l)
		}
	}
	var enc, dec []float64
	for rep := 0; rep < sc.codecReps; rep++ {
		e, d := &dist.DeltaEncoder{}, &dist.DeltaDecoder{}
		root := r.tr.begin("bench.codec", 0, "codec")
		for i, tour := range chain {
			id := r.tr.begin("dist.encode", root, "codec")
			t0 := time.Now()
			w := e.Encode(0, tour, lengths[i], dist.DefaultKeyframe)
			enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e3)
			r.tr.end(id)
			id = r.tr.begin("dist.decode", root, "codec")
			t0 = time.Now()
			got, ok := d.Decode(w)
			dec = append(dec, float64(time.Since(t0).Nanoseconds())/1e3)
			r.tr.end(id)
			if rep == 0 {
				r.check(ok && got.SameCycle(tour), "codec: incumbent %d did not round-trip (ok=%v)", i, ok)
			}
		}
		r.tr.end(root)
	}
	r.setLayer("dist.encode_us", median(enc))
	r.setLayer("dist.decode_us", median(dec))
	r.notes["dist.encode_us"] = fmt.Sprintf("median over %d encodes of a %d-incumbent chain", len(enc), len(chain))
}
