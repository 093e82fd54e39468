// Package lk implements the Lin-Kernighan local search (paper §2.1's
// inner engine): an array-based tour with O(1) neighbour queries and
// segment-reversal flips, plus the variable-depth sequential edge exchange
// with candidate lists, don't-look bits, and a backtracking breadth
// schedule.
//
// Backtracking restores rather than undoes. The optimizer keeps a snapshot
// of the tour as it was when the current chain started, and the tour
// records the range of positions its flips have written. A dive never
// reverses its own flips: when a shallower level reads the tour again, it
// copies that dirty range back from the snapshot and replays the path
// prefix (at most two flips under the default breadth {5,3,2}). A deep
// greedy dive makes thousands of swaps going down but writes only a few
// hundred distinct positions, so the climb back up costs a range copy
// instead of as many swaps again.
//
// Invariants:
//   - Optimize never worsens the tour: every accepted chain has positive
//     total gain.
//   - The tour array and its position index stay mutually consistent
//     across flips and range restores (At(Pos(c)) == c).
//   - Restoring and replaying leaves the tour byte-identical to undoing
//     the deeper flips one by one (flips are exact involutions under the
//     shorter-side rule), so search results match flip/undo backtracking.
//   - Search order is deterministic for a fixed (instance, candidates,
//     Params, seed).
//
//distlint:deterministic
package lk
