package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"

	"distclk/internal/heldkarp"
	"distclk/internal/serve"
	"distclk/internal/tsp"
)

// svcPhase is one open-loop arrival rate and how many requests it sends.
type svcPhase struct {
	name  string
	rate  float64 // requests per second, Poisson arrivals
	count int     // 0 = rate × --seconds, so the phase spans the run
}

// requests is how many requests the phase sends in a run of the given
// length.
func (ph svcPhase) requests(seconds time.Duration) int {
	if ph.count > 0 {
		return ph.count
	}
	return max(int(math.Round(ph.rate*seconds.Seconds())), 1)
}

// svcRequest is one scheduled request. A repeat resubmits an earlier
// fresh request byte for byte, so once that one is stored it is a cache
// hit.
type svcRequest struct {
	idx      int
	phase    int
	at       time.Duration // offset from its phase's start
	body     []byte
	in       *tsp.Instance
	bound    int64 // zero-potential 1-tree of in
	repeatOf int   // index of the resubmitted request, -1 when fresh
	maxKicks int64 // 0 when budget-bounded
	budgetMS int64 // set when budget-bounded
}

// svcFamilies are the families service requests draw from.
var svcFamilies = []tsp.Family{tsp.FamilyUniform, tsp.FamilyClustered, tsp.FamilyDrill, tsp.FamilyGrid, tsp.FamilyNational}

// svcPlan generates every phase's requests from the seed. Each phase's
// mix is stratified — sizes evenly spaced over the range, families in
// equal shares, exact repeat, batch and budget shares — so the seed
// changes the instances and their order, not the composition the
// latency depends on.
func svcPlan(r *run, tr *tracer) ([]svcRequest, error) {
	sc := r.scale
	rng := rand.New(rand.NewSource(r.opt.seed))
	var reqs []svcRequest
	for pi, ph := range sc.svcPhases {
		count := ph.requests(r.opt.seconds)
		// Poisson arrivals, rescaled so the phase spans exactly
		// count/rate: the offered rate is the same on every seed.
		at := make([]float64, count)
		var sum float64
		for i := range at {
			sum += rng.ExpFloat64()
			at[i] = sum
		}
		span := float64(count) / ph.rate * float64(time.Second)
		repeat := marks(rng, count, sc.svcRepeatShare)
		batch := marks(rng, count, sc.svcBatchShare)
		fresh := 0
		for i := 0; i < count; i++ {
			if !repeat[i] {
				fresh++
			}
		}
		budget := marks(rng, fresh, sc.svcBudgetShare)
		sizes, kicks, fams := rng.Perm(fresh), rng.Perm(fresh), rng.Perm(fresh)
		f := 0
		for i := 0; i < count; i++ {
			q := svcRequest{idx: len(reqs), phase: pi, at: time.Duration(at[i] / sum * span), repeatOf: -1}
			// A resubmission reaches at least svcRepeatLag requests back,
			// so the original has normally completed and the repeat is
			// served from the cache.
			var eligible []int
			for j := 0; j+svcRepeatLag <= len(reqs); j++ {
				if reqs[j].repeatOf < 0 && reqs[j].maxKicks > 0 {
					eligible = append(eligible, j)
				}
			}
			if repeat[i] && len(eligible) > 0 {
				orig := reqs[eligible[rng.Intn(len(eligible))]]
				q.body, q.in, q.bound, q.repeatOf, q.maxKicks = orig.body, orig.in, orig.bound, orig.idx, orig.maxKicks
				reqs = append(reqs, q)
				continue
			}
			k := f % fresh
			f++
			n := sc.svcMinN + spread(sizes[k], fresh, sc.svcMaxN-sc.svcMinN)
			fam := svcFamilies[fams[k]%len(svcFamilies)]
			q.in = tsp.Generate(fam, n, rng.Int63())
			req := serve.SolveRequest{
				Name:     fmt.Sprintf("r%d-%s-%d", q.idx, fam, n),
				Metric:   q.in.Metric.String(),
				Priority: "interactive",
				Params:   serve.SolveParams{Seed: 1 + rng.Int63n(1000)},
			}
			if batch[i] {
				req.Priority = "batch"
			}
			if budget[k] {
				q.budgetMS = sc.svcBudgetMS
				req.Params.BudgetMS = q.budgetMS
			} else {
				q.maxKicks = sc.svcMinKicks + int64(spread(kicks[k], fresh, int(sc.svcMaxKicks-sc.svcMinKicks)))
				req.Params.MaxKicks = q.maxKicks
			}
			req.Coords = make([][2]float64, n)
			for c, p := range q.in.Pts {
				req.Coords[c] = [2]float64{p.X, p.Y}
			}
			body, err := json.Marshal(req)
			if err != nil {
				return nil, err
			}
			q.body = body
			reqs = append(reqs, q)
		}
	}
	start := time.Now()
	root := tr.begin("bench.setup", 0, "")
	parallel(len(reqs), func(i int) {
		if reqs[i].repeatOf >= 0 {
			return
		}
		id := tr.begin("heldkarp.bound", root, reqName("req", i))
		reqs[i].bound = int64(heldkarp.MinOneTree(reqs[i].in, nil).Cost)
		tr.end(id)
	})
	tr.end(root)
	r.setLayer("heldkarp.bound_s", time.Since(start).Seconds())
	for i := range reqs {
		if reqs[i].repeatOf >= 0 {
			reqs[i].bound = reqs[reqs[i].repeatOf].bound
		}
	}
	return reqs, nil
}

// svcRepeatLag is how many requests back a resubmission reaches at least.
const svcRepeatLag = 8

// marks flags round(n × share) of n positions, chosen at random.
func marks(rng *rand.Rand, n int, share float64) []bool {
	out := make([]bool, n)
	for _, i := range rng.Perm(n)[:int(math.Round(float64(n)*share))] {
		out[i] = true
	}
	return out
}

// spread maps rank k of n onto 0..width, evenly spaced.
func spread(k, n, width int) int {
	if n <= 1 {
		return width / 2
	}
	return k * width / (n - 1)
}

// service is one solve service listening on loopback.
type service struct {
	srv    *serve.Server
	http   *http.Server
	url    string
	served chan error
}

func startService(opt serve.Options) (*service, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv := serve.New(context.Background(), opt)
	s := &service{srv: srv, http: &http.Server{Handler: srv.Handler()}, url: "http://" + ln.Addr().String(), served: make(chan error, 1)}
	go func() { s.served <- s.http.Serve(ln) }()
	return s, nil
}

// stop shuts the HTTP listener and the worker pool down and waits for
// both.
func (s *service) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errHTTP := s.http.Shutdown(ctx)
	errPool := s.srv.Shutdown(ctx)
	if err := <-s.served; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return errors.Join(errHTTP, errPool)
}

func (s *service) stats(client *http.Client) (serve.Stats, error) {
	var st serve.Stats
	resp, err := client.Get(s.url + "/v1/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// svcResult is one request's outcome as the client saw it.
type svcResult struct {
	status    int
	hit       bool
	body      []byte
	resp      serve.SolveResponse
	scheduled time.Time
	sent      time.Time
	done      time.Time
	err       error
}

func (s svcResult) latency() time.Duration { return s.done.Sub(s.scheduled) }
func (s svcResult) rtt() time.Duration     { return s.done.Sub(s.sent) }

// svcRun is one pass of every phase against one service.
type svcRun struct {
	results []svcResult
	lag     time.Duration // how late the generator ran, worst case
	stats   serve.Stats
}

// runLoad sends every request on its schedule, one phase after another,
// over at most nproc connections, and waits for every response.
func runLoad(ctx context.Context, r *run, s *service, reqs []svcRequest) (svcRun, error) {
	conns := nproc()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, DisableCompression: true}}
	defer client.CloseIdleConnections()
	out := svcRun{results: make([]svcResult, len(reqs))}
	for pi := range r.scale.svcPhases {
		var phase []int
		for i, q := range reqs {
			if q.phase == pi {
				phase = append(phase, i)
			}
		}
		// The queue holds the whole phase, so the generator never waits
		// for a sender: requests wait in it instead, and their latency,
		// timed from the scheduled send, includes that wait.
		queue := make(chan int, len(phase))
		var wg sync.WaitGroup
		for c := 0; c < conns; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := range queue {
					out.results[i] = send(ctx, r, client, s.url, reqs[i], out.results[i].scheduled)
				}
			}()
		}
		start := time.Now()
		for _, i := range phase {
			due := start.Add(reqs[i].at)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			out.lag = max(out.lag, time.Since(due))
			out.results[i].scheduled = due
			queue <- i
		}
		close(queue)
		wg.Wait()
	}
	st, err := s.stats(client)
	out.stats = st
	return out, err
}

// send posts one request and reads its response.
func send(ctx context.Context, r *run, client *http.Client, url string, q svcRequest, scheduled time.Time) svcResult {
	res := svcResult{scheduled: scheduled, sent: time.Now()}
	name := reqName("req", q.idx)
	root := r.tr.beginAt("bench.request", 0, name, scheduled)
	id := r.tr.begin("serve.request", root, name)
	defer func() {
		r.tr.end(id)
		if res.err == nil && res.status == http.StatusOK && !res.hit {
			// The service reports the solve's duration, not its start;
			// place it at the end of the round trip.
			solve := time.Duration(res.resp.ElapsedMS * float64(time.Millisecond))
			r.tr.add("clk.solve", id, name, res.done.Add(-solve), res.done)
		}
		r.tr.end(root)
	}()
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/solve", bytes.NewReader(q.body))
	if err != nil {
		res.err = err
		return res
	}
	hreq.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(hreq)
	if err != nil {
		res.err, res.done = err, time.Now()
		return res
	}
	defer resp.Body.Close()
	res.body, res.err = io.ReadAll(resp.Body)
	res.done = time.Now()
	res.status = resp.StatusCode
	res.hit = resp.Header.Get("X-Cache") == "hit"
	if res.err == nil && res.status == http.StatusOK {
		res.err = json.Unmarshal(res.body, &res.resp)
	}
	return res
}

// svcServeOptions sizes the service: nproc workers, a cache that holds
// every distinct request, and a default budget far above any max_kicks
// solve, so only budget-bounded requests end on time.
func svcServeOptions() serve.Options {
	return serve.Options{Workers: nproc(), CacheEntries: 4096, DefaultBudget: 20 * time.Second}
}

// runService is the service-mix workload.
func runService(ctx context.Context, r *run) error {
	type setup struct {
		reqs []svcRequest
		svc  *service
	}
	st, err := setupMedian(r, func(tr *tracer) (setup, error) {
		reqs, err := svcPlan(r, tr)
		if err != nil {
			return setup{}, err
		}
		svc, err := startService(svcServeOptions())
		return setup{reqs, svc}, err
	}, func(s setup) {
		err := s.svc.stop()
		r.check(err == nil, "service stop: %v", err)
	})
	if err != nil {
		return err
	}
	window := startRuntimeWindow()
	tr := r.tr
	r.tr = nil // the measured pass is untraced even in a traced run
	load, err := runLoad(ctx, r, st.svc, st.reqs)
	r.tr = tr
	if stopErr := st.svc.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return err
	}
	untracedP50 := svcReport(r, st.reqs, load)
	svcLayers(r, st.reqs, load)

	if r.tr != nil {
		// A fresh service, so the traced pass sees the same cache
		// behaviour as the untraced one.
		svc, err := startService(svcServeOptions())
		if err != nil {
			return err
		}
		traced, err := runLoad(ctx, r, svc, st.reqs)
		if stopErr := svc.stop(); err == nil {
			err = stopErr
		}
		if err != nil {
			return err
		}
		svcVerify(r, st.reqs, traced)
		tracedP50 := median(phaseLatencies(st.reqs, traced, r.scale.svcRef))
		r.setLayer("trace.coverage", coverage(r.tr.snapshot(), "bench.request"))
		if untracedP50 > 0 {
			r.setLayer("trace.overhead_pct", 100*(tracedP50-untracedP50)/untracedP50)
		}
		svcEngineSplit(r, st.reqs)
	}
	window.finish(r)
	return nil
}

// phaseLatencies returns the latencies (ms) of a phase's successful
// requests.
func phaseLatencies(reqs []svcRequest, load svcRun, phase int) []float64 {
	var out []float64
	for i, q := range reqs {
		res := load.results[i]
		if q.phase == phase && res.err == nil && res.status == http.StatusOK {
			out = append(out, ms(res.latency()))
		}
	}
	return out
}

// svcVerify counts every response of a load pass, failed unless svcErr
// passes, and returns the failures per phase and the gaps of the solved
// max_kicks tours over their 1-trees.
func svcVerify(r *run, reqs []svcRequest, load svcRun) (phaseFailed []int, gaps []float64) {
	phaseFailed = make([]int, len(r.scale.svcPhases))
	for i, q := range reqs {
		res := load.results[i]
		err := svcErr(q, res, load.results)
		r.check(err == nil, "request %d: %v", i, err)
		if err != nil {
			phaseFailed[q.phase]++
			continue
		}
		if q.maxKicks > 0 && !res.hit {
			gaps = append(gaps, 100*float64(res.resp.Length-q.bound)/float64(q.bound))
		}
	}
	return phaseFailed, gaps
}

// svcReport verifies the measured pass and records the end-to-end
// metrics; it returns the reference phase's median latency.
func svcReport(r *run, reqs []svcRequest, load svcRun) float64 {
	sc := r.scale
	phaseFailed, gaps := svcVerify(r, reqs, load)

	var maxRPS, topAchieved float64
	var refP50, refTail, refMean float64
	for pi, ph := range sc.svcPhases {
		lat := phaseLatencies(reqs, load, pi)
		p50 := median(lat)
		tl, label := tail(lat)
		var first, last time.Time
		var idx []int
		for i, q := range reqs {
			if q.phase != pi {
				continue
			}
			idx = append(idx, i)
			res := load.results[i]
			if first.IsZero() || res.scheduled.Before(first) {
				first = res.scheduled
			}
			if res.done.After(last) {
				last = res.done
			}
		}
		// A growing backlog shows as late starts in the phase's last
		// quarter.
		var lateStart time.Duration
		for _, i := range idx[len(idx)*3/4:] {
			lateStart = max(lateStart, load.results[i].sent.Sub(load.results[i].scheduled))
		}
		achieved := float64(len(lat)) / last.Sub(first).Seconds()
		ok := phaseFailed[pi] == 0 && tl <= sc.svcTailLimitMS && float64(lateStart.Milliseconds()) <= sc.svcTailLimitMS
		r.notes["phase."+ph.name] = fmt.Sprintf("offered %.1f req/s, achieved %.2f, p50 %.1f ms, tail %.1f ms (%s), late start %.1f ms, failed %d, meets limit %v",
			ph.rate, achieved, p50, tl, label, ms(lateStart), phaseFailed[pi], ok)
		if ok {
			maxRPS = achieved
		}
		if pi == len(sc.svcPhases)-1 {
			topAchieved = achieved
		}
		if pi == sc.svcRef {
			refP50, refTail = p50, tl
			for _, l := range lat {
				refMean += l / float64(len(lat))
			}
			r.notes["svc_tail_ms"] = label
		}
	}
	var gap float64
	for _, g := range gaps {
		gap += g
	}
	if len(gaps) > 0 {
		gap /= float64(len(gaps))
	}
	r.setNamed("svc_p50_ms", "ms", refP50)
	r.setNamed("svc_tail_ms", "ms", refTail)
	r.setNamed("svc_max_rps", "req/s", maxRPS)
	r.setNamed("gap_pct", "%", gap)
	r.notes["svc_max_rps"] = fmt.Sprintf("achieved rate of the highest offered rate whose tail stays within %.0f ms without a growing backlog", sc.svcTailLimitMS)
	// The gate takes the mean: on a host whose speed switches between
	// two levels, the median of a two-level latency mixture jumps when
	// the slow share crosses one half, while the mean moves in step.
	r.setNamed("svc_mean_ms", "ms", refMean)
	r.setGate("time_s", refMean/1000)
	// svc_max_rps jumps a whole rate level when capacity drops below
	// the highest offered rate; the throughput achieved there falls
	// smoothly instead.
	r.setNamed("svc_top_rps", "req/s", topAchieved)
	return refP50
}

// svcErr reports why a request's response is not correct, or nil.
func svcErr(q svcRequest, res svcResult, all []svcResult) error {
	switch {
	case res.err != nil:
		return res.err
	case res.status != http.StatusOK:
		return fmt.Errorf("HTTP %d: %s", res.status, bytes.TrimSpace(res.body))
	case res.resp.Status != "done":
		return fmt.Errorf("status %q", res.resp.Status)
	}
	if err := tourErr(q.in, tsp.Tour(res.resp.Tour), res.resp.Length); err != nil {
		return err
	}
	if q.maxKicks > 0 && res.resp.Kicks != q.maxKicks {
		return fmt.Errorf("ran %d of %d kicks", res.resp.Kicks, q.maxKicks)
	}
	if q.repeatOf < 0 {
		return nil
	}
	orig := all[q.repeatOf]
	if res.hit && !bytes.Equal(res.body, orig.body) {
		return fmt.Errorf("cache hit differs from the response of request %d", q.repeatOf)
	}
	if !res.hit && orig.err == nil && orig.resp.Length != res.resp.Length {
		return fmt.Errorf("resubmission solved to %d, request %d to %d", res.resp.Length, q.repeatOf, orig.resp.Length)
	}
	return nil
}

// svcLayers records the serve-layer metrics from the untraced pass.
func svcLayers(r *run, reqs []svcRequest, load svcRun) {
	var solve, overhead, hitRTT, overrun []float64
	var ok, hits, rejected int
	for i, q := range reqs {
		res := load.results[i]
		if res.status == http.StatusTooManyRequests || res.status == http.StatusServiceUnavailable {
			rejected++
		}
		if res.err != nil || res.status != http.StatusOK {
			continue
		}
		ok++
		if res.hit {
			hits++
			hitRTT = append(hitRTT, ms(res.rtt()))
			continue
		}
		if q.budgetMS > 0 {
			overrun = append(overrun, res.resp.ElapsedMS-float64(q.budgetMS))
		}
		if q.phase == r.scale.svcRef {
			solve = append(solve, res.resp.ElapsedMS)
			overhead = append(overhead, ms(res.rtt())-res.resp.ElapsedMS)
		}
	}
	r.setLayer("serve.solve_ms_p50", median(solve))
	r.setLayer("serve.overhead_ms_p50", median(overhead))
	v, label := tail(overhead)
	r.setLayer("serve.overhead_ms_tail", v)
	r.notes["serve.overhead_ms_tail"] = label
	r.setLayer("serve.hit_ms_p50", median(hitRTT))
	if ok > 0 {
		r.setLayer("serve.cache_hit_ratio", float64(hits)/float64(ok))
	}
	if g := load.stats.ScratchGets; g > 0 {
		r.setLayer("serve.scratch_reuse_ratio", float64(g-load.stats.ScratchMisses)/float64(g))
	}
	r.setLayer("serve.rejected_share", float64(rejected)/float64(len(reqs)))
	r.setLayer("serve.budget_overrun_ms", median(overrun))
	if len(overrun) > 0 {
		sort.Float64s(overrun)
		r.notes["serve.budget_overrun_ms"] = fmt.Sprintf("median of %d budget-bounded solves; max %.1f ms", len(overrun), overrun[len(overrun)-1])
	}
	r.setLayer("serve.gen_lag_ms", ms(load.lag))
}

// svcEngineSplit replays a sample of the fresh max_kicks requests as
// traced solves, splitting the engine build the service performs into
// its layer calls.
func svcEngineSplit(r *run, reqs []svcRequest) {
	var outs []tracedOutcome
	for _, q := range reqs {
		if len(outs) == r.scale.svcSplitSample {
			break
		}
		if q.repeatOf >= 0 || q.maxKicks == 0 {
			continue
		}
		var req serve.SolveRequest
		if err := json.Unmarshal(q.body, &req); err != nil {
			r.check(false, "request %d: %v", q.idx, err)
			continue
		}
		o := tracedSolve(r, 0, solveSpec{in: q.in, seed: req.Params.Seed, maxKicks: q.maxKicks, budget: time.Minute, req: reqName("split", q.idx)})
		checkTour(r, reqName("split", q.idx), q.in, o.tour, o.length)
		outs = append(outs, o)
	}
	// layerTotals's coverage is over solve roots; the service's coverage
	// (over requests) was set already and wins.
	cov := r.layer["trace.coverage"]
	layerTotals(r, outs)
	r.layer["trace.coverage"] = cov
}
