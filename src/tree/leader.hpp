// Leader election.
//
// The paper charges Õ(D) rounds and Õ(m) messages for electing a leader and
// building the BFS tree T (via Kutten et al. [27], cited not described). We
// implement priority flooding: every node floods the best (priority, id)
// pair it has seen and forwards only strict improvements.
//
//   * Randomized mode draws uniform 64-bit priorities: each node forwards
//     O(log n) improvements w.h.p. (record values of a random permutation),
//     giving O(D) rounds and O(m log n) messages — matching [27]'s budget.
//   * Deterministic mode uses the node id as priority. This is
//     deterministic and O(D) rounds; its message complexity is O(m log n)
//     for random id layouts but Θ(mn) against an adversarial id assignment,
//     such as gen::path(n), whose increasing ids cost exactly n² − 1
//     messages — the full Kutten et al. machinery is the cited substitute
//     (see DESIGN.md §2).
//
// The elected leader is the node with the minimum (priority, id) pair.
#pragma once

#include "src/sim/engine.hpp"
#include "src/util/rng.hpp"

namespace pw::tree {

struct LeaderResult {
  int leader = -1;
  // What each node believes; all entries equal `leader` on termination.
  std::vector<int> believed_leader;
};

LeaderResult elect_leader_random(sim::Engine& eng, Rng& rng);
LeaderResult elect_leader_det(sim::Engine& eng);

}  // namespace pw::tree
