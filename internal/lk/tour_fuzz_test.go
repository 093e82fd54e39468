package lk

import (
	"math/rand"
	"slices"
	"testing"
)

// cycleRef is the naive oracle for ArrayTour: the cycle as a plain slice,
// plus whether the tour under test currently stores it in the opposite
// direction (shorter-side flips may mirror the stored orientation).
type cycleRef struct {
	order []int32
	rev   bool
}

// flip reverses the path a..b that the tour under test calls forward,
// walking the slice index by index.
func (r *cycleRef) flip(a, b int32) {
	if r.rev {
		a, b = b, a
	}
	n := len(r.order)
	i, j := slices.Index(r.order, a), slices.Index(r.order, b)
	for k := ((j-i+n)%n + 1) / 2; k > 0; k-- {
		r.order[i], r.order[j] = r.order[j], r.order[i]
		i, j = (i+1)%n, (j-1+n)%n
	}
}

// match reports whether t stores r's cycle, in either direction, and
// records which.
func (r *cycleRef) match(t *ArrayTour) bool {
	n := len(r.order)
	k := slices.Index(r.order, t.At(0))
	fwd, bwd := true, true
	for i := 0; i < n; i++ {
		c := t.At(int32(i))
		fwd = fwd && c == r.order[(k+i)%n]
		bwd = bwd && c == r.order[(k-i+n)%n]
	}
	if fwd || bwd {
		r.rev = !fwd
	}
	return fwd || bwd
}

// FuzzArrayTourFlip drives an ArrayTour through flips and the snapshot
// range copies LK backtracking uses, against cycleRef. Op bytes select:
// a flip of two cities; a commit (saveRange of the dirty range into the
// snapshot); a backtrack (restoreRange of the dirty range); or either
// copy over a range widened past the dirty one, which is just as valid
// since positions outside the dirty range agree with the snapshot. After
// every op the tour must be a permutation with a consistent inverse index
// storing the oracle's cycle, and every position that differs from the
// snapshot must lie in the dirty range.
func FuzzArrayTourFlip(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, size uint8, ops []byte) {
		n := 1 + int(size)%64
		start := randomTourOf(n, rand.New(rand.NewSource(seed)))
		at := NewArrayTour(start)
		snap := slices.Clone(start)
		ref := &cycleRef{order: slices.Clone(start)}
		saved := cycleRef{order: slices.Clone(start)}
		for len(ops) >= 3 {
			op, x, y := ops[0], int32(ops[1])%int32(n), int32(ops[2])%int32(n)
			ops = ops[3:]
			lo, hi := at.dlo, at.dhi
			if op&4 != 0 && lo <= hi {
				lo, hi = max(lo-x, 0), min(hi+y, at.n-1)
			}
			switch op % 4 {
			case 0, 1:
				at.Flip(x, y)
				ref.flip(x, y)
			case 2:
				at.saveRange(snap, lo, hi)
				at.clean()
				saved.order, saved.rev = slices.Clone(ref.order), ref.rev
			case 3:
				at.restoreRange(snap, lo, hi)
				at.clean()
				ref.order, ref.rev = slices.Clone(saved.order), saved.rev
				if !slices.Equal(at.order, snap) {
					t.Fatalf("restore left order %v, snapshot %v", at.order, snap)
				}
			}
			if !consistent(at) {
				t.Fatalf("op %d: order %v / pos %v is not a permutation and its inverse", op, at.order, at.pos)
			}
			if !ref.match(at) {
				t.Fatalf("op %d: tour %v, oracle cycle %v", op, at.order, ref.order)
			}
			for i, c := range at.order {
				if c != snap[i] && (int32(i) < at.dlo || int32(i) > at.dhi) {
					t.Fatalf("op %d: position %d changed but dirty range is %d..%d", op, i, at.dlo, at.dhi)
				}
			}
		}
	})
}
