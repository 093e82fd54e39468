package clk

import (
	"context"

	"distclk/internal/lk"
	"distclk/internal/neighbor"
	"distclk/internal/tsp"
)

// Scratch bundles the per-solve scratch a Solver needs — CSR candidate
// tables, LK optimizer buffers, and kick buffers — so a long-lived
// service can recycle them across jobs (the sync.Pool in internal/serve)
// instead of re-allocating per solve. The zero-alloc steady-state
// contract is untouched: buffers are still fixed for the lifetime of one
// Solver, they just come from recycled memory instead of fresh heap.
//
// A Scratch backs AT MOST ONE live Solver at a time: building another
// solver from the same Scratch re-slices the same arrays. The zero value
// is ready to use; a nil *Scratch means "allocate fresh" (what New does).
type Scratch struct {
	csr    neighbor.Storage
	opt    lk.Scratch
	segBuf []int32
	subset []int32
}

// ints returns a length-0, capacity-≥n int32 slice backed by recycled
// memory from buf, growing it when needed.
func (sc *Scratch) ints(buf *[]int32, n int) []int32 {
	if cap(*buf) < n {
		*buf = make([]int32, 0, n)
	}
	return (*buf)[:0]
}

// CSR exposes the scratch's CSR storage so callers that build candidate
// lists themselves (the root facade) can draw them from the same pool
// before passing them in via Params.Neighbors. Nil-safe.
func (sc *Scratch) CSR() *neighbor.Storage {
	if sc == nil {
		return nil
	}
	return &sc.csr
}

// Owns reports whether s's candidate table is backed by sc's recycled
// CSR arrays — the pool-hit assertion used by scratch-reuse tests. False
// when the solver was handed explicit Params.Neighbors (nothing pooled).
func (sc *Scratch) Owns(s *Solver) bool {
	if sc == nil || s == nil {
		return false
	}
	return sc.csr.Owns(s.Nbr)
}

// NewWith is New drawing the per-solve scratch from sc (nil = allocate
// fresh) and polling ctx during the construction LK pass, so a budget or
// cancellation interrupts construction as it does a Group's; an aborted
// pass still leaves a valid initial incumbent. The returned solver
// aliases sc until the next NewWith on it.
func NewWith(ctx context.Context, sc *Scratch, inst *tsp.Instance, p Params, seed int64) *Solver {
	return newSolver(sc, inst, p, seed, cancelPoll(ctx))
}
