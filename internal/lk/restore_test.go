package lk

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// sameState reports whether two tours hold byte-identical order and pos
// arrays — stronger than describing the same cycle.
func sameState(a, b *ArrayTour) bool {
	return slices.Equal(a.order, b.order) && slices.Equal(a.pos, b.pos)
}

// consistent reports whether t is a permutation whose pos array is its
// inverse.
func consistent(t *ArrayTour) bool {
	if t.Tour().Validate(t.N()) != nil {
		return false
	}
	for c := int32(0); c < t.n; c++ {
		if t.At(t.Pos(c)) != c {
			return false
		}
	}
	return true
}

// applyRef is Optimizer.applyStep on a free-standing tour.
func applyRef(t *ArrayTour, t1 int32, s step) {
	if t.Next(t1) == s.loose {
		t.Flip(s.loose, s.v)
	} else {
		t.Flip(s.v, s.loose)
	}
}

// undoRef is the reference backtracking: it reverses applyRef by one
// reverse flip, re-deriving the direction from the edge (t1, s.v).
func undoRef(t *ArrayTour, t1 int32, s step) {
	if t.Next(t1) == s.v {
		t.Flip(s.v, s.loose)
	} else {
		t.Flip(s.loose, s.v)
	}
}

// stepWraps reports whether applying s reverses a position range that
// crosses the array end (the case that marks the whole array dirty).
func stepWraps(t *ArrayTour, t1 int32, s step) bool {
	probe := &ArrayTour{order: slices.Clone(t.order), pos: slices.Clone(t.pos), n: t.n}
	probe.clean()
	applyRef(probe, t1, s)
	return probe.dlo == 0 && probe.dhi == t.n-1
}

// rewindHarness drives an Optimizer through random dives shaped like
// Optimizer.dive — breadth schedule, lazy rewind, no flip at the last
// level — next to a reference tour that backtracks by undo flips.
type rewindHarness struct {
	t       *testing.T
	rng     *rand.Rand
	o       *Optimizer
	ref     *ArrayTour
	best    []step
	reads   int
	wrapped int
}

func (h *rewindHarness) walk(loose int32, depth int) {
	o, n := h.o, int(h.o.Tour.n)
	for k := 0; k < o.params.breadth(depth); k++ {
		if o.applied > depth {
			o.rewind(depth)
		}
		h.reads++
		if !sameState(o.Tour, h.ref) {
			h.t.Fatalf("depth %d: rewound tour differs from the flip/undo reference", depth)
		}
		y := int32(h.rng.Intn(n))
		if y == o.t1 || y == loose {
			continue
		}
		var v int32
		if o.Tour.Next(o.t1) == loose {
			v = o.Tour.Prev(y)
		} else {
			v = o.Tour.Next(y)
		}
		if v == loose {
			continue
		}
		s := step{loose: loose, v: v}
		o.path = append(o.path, s)
		if h.rng.Intn(4) == 0 {
			h.best = append(h.best[:0], o.path...)
		}
		if depth+1 < o.params.MaxDepth && h.rng.Intn(8) != 0 {
			if stepWraps(o.Tour, o.t1, s) {
				h.wrapped++
			}
			o.applyStep(s)
			o.applied = depth + 1
			applyRef(h.ref, o.t1, s)
			h.walk(v, depth+1)
			undoRef(h.ref, o.t1, s)
		}
		o.path = o.path[:len(o.path)-1]
	}
}

// TestRewindMatchesFlipUndo is the differential oracle for restore-based
// backtracking: at every point a dive reads the tour, restoring the dirty
// range and replaying the path prefix must give byte-identical order/pos
// arrays to undoing the deeper steps flip by flip; so must the end of each
// chain and each committed prefix folded into the snapshot. Small tours
// make wrap-around flips common, and the test requires that some occur.
func TestRewindMatchesFlipUndo(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	h := &rewindHarness{t: t, rng: rng}
	for trial := 0; trial < 200; trial++ {
		n := 5 + rng.Intn(60)
		in := randomInstance(n, int64(trial))
		perm := randomTourOf(n, rng)
		params := Params{MaxDepth: 2 + rng.Intn(12), Breadth: []int{5, 3, 2}}
		h.o = NewOptimizer(in, neighbor.Build(in, min(8, n-1)), perm, params)
		h.ref = NewArrayTour(perm)
		o := h.o
		o.Optimize(nil) // empty queue: only syncs the snapshot
		for chain := 0; chain < 6; chain++ {
			o.t1 = int32(rng.Intn(n))
			loose := o.Tour.Next(o.t1)
			if rng.Intn(2) == 0 {
				loose = o.Tour.Prev(o.t1)
			}
			o.path = o.path[:0]
			h.best = h.best[:0]
			h.walk(loose, 0)
			o.restore()
			if !sameState(o.Tour, h.ref) || !slices.Equal(o.base, h.ref.order) {
				t.Fatalf("trial %d chain %d: restored tour differs from the reference", trial, chain)
			}
			// Commit the recorded prefix the way tryChain does.
			for _, s := range h.best {
				o.applyStep(s)
				applyRef(h.ref, o.t1, s)
			}
			o.Tour.saveRange(o.base, o.Tour.dlo, o.Tour.dhi)
			o.Tour.clean()
			if !sameState(o.Tour, h.ref) || !slices.Equal(o.base, h.ref.order) {
				t.Fatalf("trial %d chain %d: committed snapshot differs from the reference", trial, chain)
			}
		}
	}
	if h.wrapped == 0 || h.reads < 10000 {
		t.Fatalf("coverage too thin: %d wrap-around flips, %d rewound reads", h.wrapped, h.reads)
	}
}

// TestRestoreAndSaveKeepPermutation is the property test for the range
// copies: after any flip sequence, saving the dirty range makes the
// snapshot equal to the tour's order array, and restoring the dirty range
// from it undoes any further flips, leaving the permutation and its
// inverse byte-identical to the saved state.
func TestRestoreAndSaveKeepPermutation(t *testing.T) {
	f := func(seed int64, opsRaw []uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 3 + rng.Intn(40)
		perm := randomTourOf(n, rng)
		work, snap := NewArrayTour(perm), slices.Clone(perm)
		for _, op := range opsRaw {
			work.Flip(int32(int(op)%n), int32(int(op>>8)%n))
		}
		work.saveRange(snap, work.dlo, work.dhi)
		work.clean()
		saved := NewArrayTour(snap)
		if !sameState(work, saved) || !consistent(work) {
			return false
		}
		for _, op := range opsRaw {
			work.Flip(int32(int(op>>8)%n), int32(int(op)%n))
		}
		work.restoreRange(snap, work.dlo, work.dhi)
		work.clean()
		return sameState(work, saved) && consistent(work)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestOptimizeCountsWrites pins the work counter: a full pass writes tour
// positions, and repeated identical runs count identically.
func TestOptimizeCountsWrites(t *testing.T) {
	in := randomInstance(300, 4)
	nbr := neighbor.Build(in, 8)
	start := randomTourOf(in.N(), rand.New(rand.NewSource(4)))
	run := func() (tsp.Tour, int64) {
		o := NewOptimizer(in, nbr, start, DefaultParams())
		w0 := o.Writes()
		o.OptimizeAll(nil)
		return o.Tour.Tour(), o.Writes() - w0
	}
	t1, w1 := run()
	t2, w2 := run()
	if w1 <= 0 || w1 != w2 || !slices.Equal(t1, t2) {
		t.Fatalf("writes %d vs %d (tours equal: %v), want equal positive counts", w1, w2, slices.Equal(t1, t2))
	}
}
