package tsp

import (
	"strings"
	"testing"
)

// FuzzReadTSPLIB feeds arbitrary uploads to the TSPLIB reader. No input
// may panic it; ReadTSPLIBLimit must never return more cities than its
// limit, and whatever it accepts the unlimited reader accepts as the
// same number of cities with the same distances.
func FuzzReadTSPLIB(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, limit uint16) {
		maxN := int(limit)
		in, err := ReadTSPLIBLimit(strings.NewReader(src), maxN)
		full, fullErr := ReadTSPLIB(strings.NewReader(src))
		if err != nil {
			return
		}
		if maxN > 0 && in.N() > maxN {
			t.Fatalf("limit %d: read %d cities", maxN, in.N())
		}
		if fullErr != nil || full.N() != in.N() {
			t.Fatalf("limit %d accepted %d cities; without a limit: %v", maxN, in.N(), fullErr)
		}
		for i := 0; i < in.N(); i++ {
			j := in.N() - 1 - i
			if in.Dist(i, j) != full.Dist(i, j) {
				t.Fatalf("d(%d,%d) = %d with a limit, %d without", i, j, in.Dist(i, j), full.Dist(i, j))
			}
		}
	})
}
