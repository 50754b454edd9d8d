// Distributed MST via Borůvka over Part-Wise Aggregation (Corollary 1.3).
//
// Every node starts as its own fragment. Each of the O(log n) Borůvka phases
// runs two PA instances on the fragment partition:
//   1. min-outgoing-edge: f = min over packed (weight, edge) keys, where
//      each node contributes its lightest edge leaving the fragment — the
//      textbook PA instance the paper names in the corollary's proof;
//   2. relabel: after fragments merge along the selected edges, f = min over
//      fragment ids tells every node its merged fragment's new id (and
//      leader), restoring the "known leader" invariant for the next phase.
// Each node knows its neighbors' fragments from the KT0 labels the solver
// announces once per installed fragment partition (O(m) messages a phase).
//
// MST is "solved" in the paper's sense: every node knows which of its
// incident edges are MST edges. The returned edge set is global bookkeeping
// of exactly that distributed knowledge.
#pragma once

#include "src/core/solver.hpp"

namespace pw::apps {

struct MstResult {
  std::vector<char> in_mst;  // indexed by edge id
  std::int64_t total_weight = 0;
  int phases = 0;
  sim::PhaseStats stats;        // everything, including PA structure builds
  sim::PhaseStats select_stats; // the min-outgoing-edge PA calls only
};

// Runs Borůvka-over-PA on the engine's (connected, weighted) graph.
// Weights must fit in 31 bits (they are packed with edge ids into one
// O(log n)-bit aggregate).
MstResult boruvka_mst(sim::Engine& eng, const core::PaSolverConfig& cfg = {});

// GHS-style baseline (Gallager–Humblet–Spira [12] as refined by the
// pre-[35] message-optimal literature): fragments coordinate exclusively
// over their own fragment-tree edges — convergecast the minimum outgoing
// edge up the fragment tree, broadcast the decision back down. Message
// complexity stays Õ(m), but each phase costs the largest fragment-tree
// DIAMETER in rounds, i.e. Θ(n) on low-diameter graphs with long fragments:
// the round-suboptimal side of the trade-off the paper closes.
MstResult ghs_style_mst(sim::Engine& eng, std::uint64_t seed = 1);

// Centralized references.
std::int64_t kruskal_mst_weight(const graph::Graph& g);
// Kruskal with the same (weight, edge id) tie-breaking as the distributed
// algorithm; with it the MST is unique, so edge sets are comparable.
std::vector<char> kruskal_mst_edges(const graph::Graph& g);

// Checks that `in_mst` forms a spanning tree of g.
void validate_spanning_tree(const graph::Graph& g, const std::vector<char>& in_mst);

}  // namespace pw::apps
