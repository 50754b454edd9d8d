// Algorithm 9 (Appendix B): Part-Wise Aggregation without known leaders.
//
// The known-leader assumption of Section 4 is dropped by coarsening: every
// node starts as its own singleton pseudo-part P'_v (leader: itself), and
// O(log n) star-joining rounds merge pseudo-parts within input parts until
// the pseudo-partition equals the input partition — at which point every
// part has an elected leader and one ordinary PA call answers the query.
//
// Each coarsening round costs O(1) PA calls on the current pseudo-partition
// (whose leaders are known, maintaining the invariant), so the total
// overhead is the logarithmic factor of Lemma B.1.
//
// Star joinings here use the random-coin variant the paper sketches in
// Section 3.2 ("enforcing this behavior is easily accomplished with random
// coin flips"): each pseudo-part flips a coin; tails pointing at heads
// join. The deterministic alternative is Algorithm 5's Cole-Vishkin
// machinery (implemented for sub-part divisions in
// src/shortcut/subpart_det.cpp); see DESIGN.md §2.
#pragma once

#include "src/core/solver.hpp"

namespace pw::core {

struct NoLeaderResult {
  std::vector<std::uint64_t> part_value;  // per input part
  std::vector<std::uint64_t> node_value;
  std::vector<int> elected_leader;        // per input part
  int coarsening_rounds = 0;
  sim::PhaseStats stats;
};

// Runs on the caller's solver (its engine, config, leader and T); p's leader
// entries are ignored. On return the solver has p installed with the elected
// leaders (same grouping, part indices may differ), so the caller can
// aggregate() on p again without another set_partition.
NoLeaderResult pa_noleader(PaSolver& solver, const graph::Partition& p,
                           const Agg& agg,
                           const std::vector<std::uint64_t>& values);

}  // namespace pw::core
