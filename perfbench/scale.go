package main

import (
	"runtime"
	"sync"
	"time"

	"distclk/internal/tsp"
)

// scale sizes every workload. fullScale is the benchmark; the tests run
// the same code at a scale that finishes in seconds.
type scale struct {
	setupReps int // set-ups per run; setup_s is their median

	qualityN        int
	qualityFamilies []qualityFamily
	qualityCap      time.Duration // per-instance budget; a miss is a failure

	svcPhases      []svcPhase
	svcRef         int // index of the reference phase
	svcTailLimitMS float64
	svcMinN        int
	svcMaxN        int
	svcMinKicks    int64
	svcMaxKicks    int64
	svcBudgetMS    int64
	svcRepeatShare float64
	svcBatchShare  float64
	svcBudgetShare float64
	svcSplitSample int

	clusterFamily tsp.Family
	clusterN      int
	clusterNodes  int
	clusterIters  int64
	clusterKPC    int64
	clusterCV     int
	clusterCR     int
	codecChain    int
	codecMaxKicks int
	codecReps     int
}

var fullScale = scale{
	setupReps: 3,

	qualityN: 1000,
	qualityFamilies: []qualityFamily{
		{family: tsp.FamilyUniform, count: 6, seeds: 2, kicks: 400, gapPct: 3},
		{family: tsp.FamilyClustered, count: 2, seeds: 1, kicks: 200},
		{family: tsp.FamilyDrill, count: 2, seeds: 1, kicks: 200},
	},
	qualityCap: 60 * time.Second,

	svcPhases: []svcPhase{
		{"light", 6, 18},
		{"reference", 10, 0},
		{"near-capacity", 22, 66},
	},
	svcRef:         1,
	svcTailLimitMS: 1000,
	svcMinN:        100,
	svcMaxN:        800,
	svcMinKicks:    20,
	svcMaxKicks:    60,
	svcBudgetMS:    40,
	svcRepeatShare: 0.25,
	svcBatchShare:  0.3,
	svcBudgetShare: 0.08,
	svcSplitSample: 24,

	clusterFamily: tsp.FamilyDrill, // the fl1577 stand-in
	clusterN:      1577,
	clusterNodes:  64,
	clusterIters:  6,
	clusterKPC:    15,
	clusterCV:     4,
	clusterCR:     16,
	codecChain:    48,
	codecMaxKicks: 4000,
	codecReps:     20,
}

// clusterInstanceSeed generates cluster-sim's one instance.
const clusterInstanceSeed = 1577

func nproc() int { return runtime.NumCPU() }

// parallel runs fn(0..n-1) on at most nproc goroutines and waits.
func parallel(n int, fn func(i int)) {
	workers := min(nproc(), n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
