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
// Greedy dives stop at their first 2-cycle. Below the branching levels,
// a step whose candidate re-adds the edge the step before it removed, and
// removes the edge that step added, restores the parent's cycle, loose
// end and gain; the greedy continuation would repeat the parent until
// MaxDepth, scoring only closing gains the chain has already seen. The
// dive returns there instead, so most greedy tails end a few levels below
// the branching ones rather than at MaxDepth. The cut applies only when
// the step and its parent are both greedy (and outside the relaxed-gain
// depths): at a branching level it would also skip untried siblings.
//
// Invariants:
//   - Optimize never worsens the tour: every accepted chain has positive
//     total gain.
//   - The tour array and its position index stay mutually consistent
//     across flips and range restores (At(Pos(c)) == c).
//   - Restoring and replaying leaves the tour byte-identical to undoing
//     the deeper flips one by one (flips are exact involutions under the
//     shorter-side rule), so search results match flip/undo backtracking.
//   - The 2-cycle cut leaves every chain's best gain and best path equal
//     to those of a dive run to MaxDepth.
//   - Search order is deterministic for a fixed (instance, candidates,
//     Params, seed).
//
//distlint:deterministic
package lk
