// Deterministic shortcut construction (Section 6.3, Algorithms 7 and 8).
//
// Algorithm 7 moves "claim sets" up a heavy path by distance doubling:
// iteration i ships the set at every position v ≡ 2^i (mod 2^{i+1}) to
// v + 2^i, breaking the edge above any position whose set reaches 2c (such
// claims die there, ending the part's block). Lemma 6.6: O(c log D + D)
// rounds, every edge ends up with O(c log D) parts. The schedule is fully
// determined, so the library executes it centrally and charges the engine
// the exact pipelined round/message cost (DESIGN.md §4, analytic charge i).
//
// Algorithm 8 composes path runs bottom-up over the heavy-path decomposition
// (at most floor(log2 n) levels on any leaf-root walk): sub-part
// representatives of active parts seed claims at their positions, each
// level's paths run Algorithm 7, and each sink pushes its surviving set
// across its light edge into the parent path. det_claim is that claim pass
// (lines 4-13). Line 14 — verify the candidate with Algorithm 2 for the
// still unsettled parts and freeze those within 3x the block target,
// halving the active set per repetition (Lemma 6.7) — is the one freeze
// loop PaSolver::build_shortcut runs for Algorithm 4's candidates too.
#pragma once

#include "src/core/pa_given.hpp"
#include "src/tree/heavypath.hpp"

namespace pw::core {

// Algorithm 7 on one path, exported for unit tests. Positions are 1-indexed
// from the bottom of the path; initial_sets[k] holds the part ids wanting
// the parent edge of position k+1.
struct PathDoubleResult {
  // claimed[k]: parts that crossed the edge above position k+1 (these edges
  // enter those parts' Hi).
  std::vector<std::vector<int>> claimed;
  // Surviving set that reached the sink (to cross the light edge).
  std::vector<int> sink_set;
  // broken[k]: the edge above position k+1 broke.
  std::vector<char> broken;
  // Exact pipelined schedule cost (Lemma 6.6).
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

PathDoubleResult path_shortcut_double(
    const std::vector<std::vector<int>>& initial_sets, int congestion_cap);

// Algorithm 8 lines 4-13: one claim pass for the participating parts. Every
// representative of a participating part seeds a claim; levels run
// bottom-up, each charged its exact Lemma 6.6 schedule. Returns the
// candidate shortcut with its block roots annotated (Algorithm 2 reads
// them).
shortcut::Shortcut det_claim(sim::Engine& eng, const graph::Partition& p,
                             const shortcut::SubPartDivision& d,
                             const tree::SpanningForest& t,
                             const tree::HeavyPaths& hp,
                             const std::vector<char>& participating,
                             int congestion_cap);

}  // namespace pw::core
