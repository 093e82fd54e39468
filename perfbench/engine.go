package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"distclk"
	"distclk/internal/clk"
	"distclk/internal/construct"
	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/obs"
	"distclk/internal/tsp"
)

// solveSpec is one plain-CLK solve configured as the workloads use the
// facade: auto candidates, one worker, the default kick.
type solveSpec struct {
	in       *tsp.Instance
	seed     int64
	maxKicks int64 // 0 = none
	watch    int64 // facadeSolve notes when the tour first reaches this length; 0 = none
	budget   time.Duration
	req      string
}

func (sp solveSpec) options(extra ...distclk.Option) []distclk.Option {
	opts := []distclk.Option{
		distclk.WithCandidates("auto"),
		distclk.WithWorkers(1),
		distclk.WithSeed(sp.seed),
		distclk.WithBudget(sp.budget),
	}
	if sp.maxKicks > 0 {
		opts = append(opts, distclk.WithMaxKicks(sp.maxKicks))
	}
	return append(opts, extra...)
}

// facadeOutcome is one untraced solve through distclk.New/Solve.
type facadeOutcome struct {
	tour    tsp.Tour
	length  int64
	kicks   int64
	elapsed time.Duration // New to Solve returning
	reached bool          // the tour reached solveSpec.watch
	reachAt time.Duration // New to the kick that reached it
	reachK  int64         // kicks run until then
}

// watchSink counts kick events and notes the first accepted kick whose
// tour is at or under watch.
type watchSink struct {
	start   time.Time
	watch   int64
	mu      sync.Mutex
	kicks   int64
	reached bool
	at      time.Duration
	atKicks int64
}

func (s *watchSink) Emit(e distclk.Event) {
	if e.Kind != obs.KindKickAccepted && e.Kind != obs.KindKickReverted {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.kicks++
	if e.Kind == obs.KindKickAccepted && !s.reached && s.watch > 0 && e.Value <= s.watch {
		s.reached, s.at, s.atKicks = true, time.Since(s.start), s.kicks
	}
}

// facadeSolve runs sp through the public facade.
func facadeSolve(ctx context.Context, sp solveSpec) (facadeOutcome, error) {
	sink := &watchSink{start: time.Now(), watch: sp.watch}
	s, err := distclk.New(sp.in, sp.options(distclk.WithEventSink(sink))...)
	if err != nil {
		return facadeOutcome{}, err
	}
	res, err := s.Solve(ctx)
	elapsed := time.Since(sink.start)
	if err != nil {
		return facadeOutcome{}, err
	}
	sink.mu.Lock()
	out := facadeOutcome{tour: res.Tour, length: res.Length, elapsed: elapsed, reached: sink.reached, reachAt: sink.at, reachK: sink.atKicks}
	sink.mu.Unlock()
	for _, n := range res.PerNode {
		out.kicks += n.Kicks
	}
	return out, nil
}

// tracedOutcome is one solve split into the layer calls the facade
// composes, each wrapped in a span.
type tracedOutcome struct {
	tour          tsp.Tour
	length        int64
	kicks         int64
	accepts       int64
	improves      int64
	replica       time.Duration // tsp.describe + construct.build + lk.init_pass
	excessPct     float64       // construction length over the init-LK length
	candsPerCity  float64
	allocsPerKick float64
	total         time.Duration // the root span
}

// allocProbeKicks is how many extra kicks the allocation probe runs after
// a traced solve, outside every span.
const allocProbeKicks = 32

// tracedSolve runs sp as the facade does, but calls each layer itself in
// the facade's order so every call gets a span: tsp.Describe,
// neighbor.SelectWith, construct.Build, lk.NewOptimizer+OptimizeAll, then
// clk.New and the seeded kick chain. clk.New repeats the describe,
// construction and initial LK pass internally (it has no hook to accept
// them), so those three spans are a replica whose time the outcome
// reports separately; the kick chain itself is the facade's, kick for
// kick. A mismatch between the replica and the engine is a failure.
func tracedSolve(r *run, parent int, sp solveSpec) tracedOutcome {
	tr := r.tr
	var out tracedOutcome
	start := time.Now()
	root := tr.begin("bench.solve", parent, sp.req)

	id := tr.begin("tsp.describe", root, sp.req)
	t0 := time.Now()
	tsp.Describe(sp.in)
	out.replica += time.Since(t0)
	tr.end(id)

	id = tr.begin("neighbor.select", root, sp.req)
	nbr, choice, err := neighbor.SelectWith(nil, sp.in, "auto", clk.DefaultParams().NeighborK)
	tr.end(id)
	if err != nil {
		r.check(false, "%s: neighbor.SelectWith: %v", sp.req, err)
		return out
	}
	for c := 0; c < nbr.N(); c++ {
		out.candsPerCity += float64(nbr.Len(int32(c)))
	}
	out.candsPerCity /= float64(nbr.N())
	p := clk.DefaultParams()
	p.Neighbors = nbr
	p.LK.RelaxDepth = choice.RelaxDepth

	id = tr.begin("construct.build", root, sp.req)
	t0 = time.Now()
	initial := construct.Build(p.Construct, sp.in, nbr, rand.New(rand.NewSource(sp.seed)))
	out.replica += time.Since(t0)
	tr.end(id)
	buildLen := initial.Length(sp.in)

	id = tr.begin("lk.init_pass", root, sp.req)
	t0 = time.Now()
	opt := lk.NewOptimizer(sp.in, nbr, initial, p.LK)
	opt.OptimizeAll(nil)
	out.replica += time.Since(t0)
	tr.end(id)
	initLen := opt.Length()
	out.excessPct = 100 * float64(buildLen-initLen) / float64(initLen)

	id = tr.begin("clk.engine", root, sp.req)
	engine := clk.New(sp.in, p, sp.seed)
	observer := obs.NewObserver(1, nil)
	engine.Rec = observer.Recorder(0)
	engine.Rec.SetBest(engine.BestLength())
	tr.end(id)
	r.check(engine.BestLength() == initLen, "%s: engine's first tour %d differs from the replayed initial LK pass %d", sp.req, engine.BestLength(), initLen)

	deadline := start.Add(sp.budget)
	for (sp.maxKicks == 0 || out.kicks < sp.maxKicks) && time.Now().Before(deadline) {
		id = tr.begin("clk.kick", root, sp.req)
		if engine.KickOnce() {
			out.improves++
		}
		tr.end(id)
		out.kicks++
	}
	out.tour, out.length = engine.Best()
	tr.end(root)
	out.total = time.Since(start)
	out.accepts = observer.Counters()[0].KickAccepts

	// Allocation probe: the steady-state kick loop must not allocate.
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < allocProbeKicks; i++ {
		engine.KickOnce()
	}
	runtime.ReadMemStats(&after)
	out.allocsPerKick = float64(after.Mallocs-before.Mallocs) / allocProbeKicks
	return out
}

// tourErr reports why tour is not a permutation of the instance's cities
// whose recomputed length equals length, or nil.
func tourErr(in *tsp.Instance, tour tsp.Tour, length int64) error {
	if err := tour.Validate(in.N()); err != nil {
		return fmt.Errorf("invalid tour: %w", err)
	}
	if got := tour.Length(in); got != length {
		return fmt.Errorf("reported length %d, recomputed %d", length, got)
	}
	return nil
}

// checkTour counts one solve, failed unless tourErr passes.
func checkTour(r *run, what string, in *tsp.Instance, tour tsp.Tour, length int64) {
	err := tourErr(in, tour, length)
	r.check(err == nil, "%s: %v", what, err)
}

// layerTotals reports the engine-split metrics shared by the workloads
// that run traced solves: per-layer totals over their spans, kick
// latency, and the search ratios.
func layerTotals(r *run, outs []tracedOutcome) {
	tr := r.tr
	r.setLayer("tsp.describe_ms", ms(tr.total("tsp.describe")))
	r.setLayer("neighbor.select_ms", ms(tr.total("neighbor.select")))
	r.setLayer("construct.build_ms", ms(tr.total("construct.build")))
	r.setLayer("lk.init_pass_ms", ms(tr.total("lk.init_pass")))
	r.setLayer("clk.engine_ms", ms(tr.total("clk.engine")))
	kicks := tr.durations("clk.kick")
	if len(kicks) > 0 {
		r.setLayer("clk.kick_ms_p50", median(kicks))
		v, label := tail(kicks)
		r.setLayer("clk.kick_ms_tail", v)
		r.notes["clk.kick_ms_tail"] = label
		var sum float64
		for _, k := range kicks {
			sum += k
		}
		r.setLayer("clk.kicks_per_s", float64(len(kicks))/(sum/1000))
	}
	var n, accepts, improves int64
	var cands, excess, allocs float64
	for _, o := range outs {
		n += o.kicks
		accepts += o.accepts
		improves += o.improves
		cands += o.candsPerCity
		excess += o.excessPct
		allocs += o.allocsPerKick
	}
	if len(outs) > 0 {
		k := float64(len(outs))
		r.setLayer("neighbor.cands_per_city", cands/k)
		r.setLayer("construct.excess_pct", excess/k)
		r.setLayer("clk.allocs_per_kick", allocs/k)
	}
	if n > 0 {
		r.setLayer("clk.accept_ratio", float64(accepts)/float64(n))
		r.setLayer("clk.improve_ratio", float64(improves)/float64(n))
	}
	r.setLayer("trace.coverage", coverage(tr.snapshot(), "bench.solve"))
}

// overheadPct is tracing overhead as a share of the untraced time: the
// traced time less the replica calls, minus the untraced time.
func overheadPct(traced, replica, untraced time.Duration) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * float64(traced-replica-untraced) / float64(untraced)
}

func reqName(prefix string, i int) string { return fmt.Sprintf("%s-%d", prefix, i) }
