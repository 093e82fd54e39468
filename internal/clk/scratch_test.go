package clk

import (
	"context"
	"testing"

	"distclk/internal/tsp"
)

// A Solver rebuilt from the same Scratch must draw its CSR candidate
// table from recycled memory (pool hit) and still solve correctly.
func TestScratchReuseAcrossSolvers(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 300, 1)
	sc := &Scratch{}

	s1 := NewWith(context.Background(), sc, in, DefaultParams(), 1)
	if !sc.Owns(s1) {
		t.Fatalf("first solver not backed by scratch")
	}
	first := &s1.Nbr.Of(0)[0]
	l1 := s1.BestLength()

	s2 := NewWith(context.Background(), sc, in, DefaultParams(), 1)
	if !sc.Owns(s2) {
		t.Fatalf("rebuilt solver not backed by scratch")
	}
	if &s2.Nbr.Of(0)[0] != first {
		t.Fatalf("rebuild allocated fresh CSR arrays instead of recycling")
	}
	if got := s2.BestLength(); got != l1 {
		t.Fatalf("scratch reuse changed the deterministic result: %d vs %d", got, l1)
	}

	// Kicking still works on the recycled buffers.
	for i := 0; i < 20; i++ {
		s2.KickOnce()
	}
	tour, _ := s2.Best()
	if err := tour.Validate(in.N()); err != nil {
		t.Fatalf("invalid tour after kicks on recycled scratch: %v", err)
	}
}

// A Scratch warmed on one instance must produce correct results on a
// different (smaller and larger) instance — stale contents may never
// leak into a later solve.
func TestScratchReuseAcrossInstances(t *testing.T) {
	sc := &Scratch{}
	sizes := []int{400, 100, 250}
	for i, n := range sizes {
		in := tsp.Generate(tsp.FamilyClustered, n, int64(i+1))
		fresh := New(in, DefaultParams(), 7)
		pooled := NewWith(context.Background(), sc, in, DefaultParams(), 7)
		if !sc.Owns(pooled) {
			t.Fatalf("n=%d: pooled solver not backed by scratch", n)
		}
		if f, p := fresh.BestLength(), pooled.BestLength(); f != p {
			t.Fatalf("n=%d: pooled result %d differs from fresh %d", n, p, f)
		}
	}
}

// nil Scratch must be exactly New.
func TestNewWithNilScratch(t *testing.T) {
	in := tsp.Generate(tsp.FamilyUniform, 150, 3)
	a := New(in, DefaultParams(), 5)
	b := NewWith(context.Background(), nil, in, DefaultParams(), 5)
	if a.BestLength() != b.BestLength() {
		t.Fatalf("NewWith(nil) diverges from New: %d vs %d", b.BestLength(), a.BestLength())
	}
	var sc *Scratch
	if sc.Owns(b) {
		t.Fatalf("nil scratch claims ownership")
	}
}
