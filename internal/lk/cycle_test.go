package lk

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// fullDive is Optimizer.dive as it was before greedy dives were cut at
// their first 2-cycle, kept verbatim (bar its name) as the reference: it
// follows a dive that undoes its parent step all the way to MaxDepth.
func (o *Optimizer) fullDive(loose int32, G int64, depth int) {
	if depth >= o.params.MaxDepth {
		return
	}
	t := o.Tour
	t1 := o.t1
	width := o.params.breadth(depth)
	tried := 0
	// Classic rule: the partial gain must stay strictly positive. Relaxed
	// rule (shallow depths only): it may dip to the per-chain limit, so
	// equal-length candidate edges do not dead-end the chain.
	limit := int64(0)
	if depth < o.relaxDepth {
		limit = o.relaxLimit
	}
	// Candidate distances come from the precomputed table: the gain test
	// costs one array read, never a metric evaluation (the break below
	// relies on the table's ascending order).
	cands, cdist := o.nbr.Cand(loose)
	for i, y := range cands {
		if y == t1 || y == loose {
			continue
		}
		g := G - cdist[i]
		if g <= limit {
			break // candidates sorted by distance: later ones fail too
		}
		if o.applied > depth {
			o.rewind(depth)
		}
		// v is y's path-neighbour on the loose side, derived from the
		// current orientation of the temporary edge (t1, loose).
		var v int32
		if t.Next(t1) == loose {
			v = t.Prev(y)
		} else {
			v = t.Next(y)
		}
		if v == loose {
			continue // degenerate: y is loose's path successor
		}
		newG := g + o.dist(y, v)
		closeGain := newG - o.dist(v, t1)

		s := step{loose: loose, v: v}
		o.path = append(o.path, s)
		if closeGain > o.bestGain {
			o.bestGain = closeGain
			o.bestLen = len(o.path)
			o.bestPath = append(o.bestPath[:0], o.path...)
		}
		if depth+1 < o.params.MaxDepth {
			// The 2-opt flip is only needed so the deeper dive sees the
			// updated cycle; at the last level it would be pure wasted
			// work, so it is skipped.
			o.applyStep(s)
			o.applied = depth + 1
			o.fullDive(v, newG, depth+1)
		}
		o.path = o.path[:len(o.path)-1]

		tried++
		if tried >= width {
			break
		}
	}
}

// fullChain is tryChain's search with the reference dive and no commit:
// it leaves the tour as it found it and returns the best gain, the best
// path prefix (as loose/v pairs; the reference does not record y) and
// the tour positions the search wrote.
func (o *Optimizer) fullChain(t1, loose int32) (int64, []step, int64) {
	w0 := o.Writes()
	o.t1 = t1
	o.path = o.path[:0]
	o.bestGain = 0
	o.bestLen = 0
	g0 := o.dist(t1, loose)
	if o.relaxDepth > 0 {
		o.relaxLimit = -(g0 * o.relaxPerMille / 1000)
	}
	o.fullDive(loose, g0, 0)
	o.restore()
	return o.bestGain, slices.Clone(o.bestPath[:o.bestLen]), o.Writes() - w0
}

// sameSteps compares chains on the fields the reference records.
func sameSteps(got, want []step) bool {
	return slices.EqualFunc(got, want, func(a, b step) bool { return a.loose == b.loose && a.v == b.v })
}

// doubleBridge returns t with a random double-bridge applied.
func doubleBridge(t tsp.Tour, rng *rand.Rand) tsp.Tour {
	n := len(t)
	cut := []int{1 + rng.Intn(n-3), 0, 0}
	cut[1] = cut[0] + 1 + rng.Intn(n-cut[0]-2)
	cut[2] = cut[1] + 1 + rng.Intn(n-cut[1]-1)
	out := slices.Clone(t[:cut[0]])
	out = append(out, t[cut[1]:cut[2]]...)
	out = append(out, t[cut[0]:cut[1]]...)
	return append(out, t[cut[2]:]...)
}

// TestCycleCutMatchesFullDive is the differential test for ending a
// greedy dive at its first 2-cycle. From every anchor, in both
// orientations, tryChain must find the same best gain and best path as a
// search with the reference dive run on the same tour, through whole LK
// passes from a random start and after double-bridge kicks. The cut must
// also have fired: the real searches write fewer tour positions.
func TestCycleCutMatchesFullDive(t *testing.T) {
	merge := Params{MaxDepth: 60, Breadth: []int{10, 6, 4, 2}}
	var paramSets []Params
	for _, base := range []Params{DefaultParams(), merge} {
		// relaxDepth 6 lies beyond both breadth schedules, so the relaxed
		// levels under it include greedy ones.
		for _, rd := range []int{0, 3, 6} {
			p := base
			p.RelaxDepth = rd
			paramSets = append(paramSets, p)
		}
	}
	for _, fam := range []tsp.Family{tsp.FamilyUniform, tsp.FamilyClustered, tsp.FamilyDrill} {
		in := tsp.Generate(fam, 250, 11)
		nbr := neighbor.Build(in, 8)
		for _, p := range paramSets {
			t.Run(fmt.Sprintf("%v/%v-relax%d", fam, p.Breadth, p.RelaxDepth), func(t *testing.T) {
				rng := rand.New(rand.NewSource(3))
				o := NewOptimizer(in, nbr, randomTourOf(in.N(), rng), p)
				var chains, refWrites, gotWrites int64
				for round := 0; round < 3; round++ {
					if round > 0 {
						o.SetTour(doubleBridge(o.Tour.Tour(), rng))
					}
					o.Optimize(nil) // empty queue: only syncs the snapshot
					for improved := true; improved; {
						improved = false
						for c := int32(0); c < int32(in.N()); c++ {
							for _, loose := range []int32{o.Tour.Next(c), o.Tour.Prev(c)} {
								wantGain, wantPath, w := o.fullChain(c, loose)
								refWrites += w
								w0 := o.Writes()
								gain := o.tryChain(c, loose)
								gotWrites += o.Writes() - w0
								chains++
								if o.bestGain != wantGain || !sameSteps(o.bestPath[:o.bestLen], wantPath) {
									t.Fatalf("anchor %d loose %d: gain %d path %v, full dive found %d %v",
										c, loose, o.bestGain, o.bestPath[:o.bestLen], wantGain, wantPath)
								}
								if gain > 0 {
									improved = true
									break
								}
							}
						}
					}
				}
				if err := o.Tour.Tour().Validate(in.N()); err != nil {
					t.Fatal(err)
				}
				if gotWrites >= refWrites {
					t.Fatalf("%d chains wrote %d positions, the full dive %d: the cut never fired", chains, gotWrites, refWrites)
				}
			})
		}
	}
}
