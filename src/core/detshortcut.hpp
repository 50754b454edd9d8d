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
// across its light edge into the parent path. After every level has run the
// candidate shortcut is verified with Algorithm 2 (real traffic, sent by
// the still unsettled parts only: settled parts' verdicts are not read) and
// parts within 3x the block target freeze, halving the active set per
// repetition (Lemma 6.7). Line 14's freeze keeps the frozen parts'
// candidate edges through shortcut::adopt_parts, one O(n + claims) pass per
// repetition shared with Algorithm 4 and PaSolver's doubling trick.
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

struct DetShortcutConfig {
  int congestion_cap = 1;  // c: sets of size >= 2c break their edge
  int block_target = 1;    // freeze parts with <= 3 * block_target blocks
  int max_repetitions = 0; // 0: ceil(log2 n) + 4
  std::vector<char> skip_parts;
  PaMode mode = PaMode::Deterministic;  // verification PA mode
};

struct DetShortcutResult {
  shortcut::Shortcut sc;
  std::vector<char> part_frozen;
  std::vector<int> frozen_at;
  sim::PhaseStats stats;

  bool all_frozen() const {
    for (char c : part_frozen)
      if (!c) return false;
    return true;
  }
};

// Algorithm 8. `labels` are the partition's KT0 labels (announce_labels on
// p and d); every verification reads them.
DetShortcutResult build_shortcut_det(sim::Engine& eng,
                                     const graph::Partition& p,
                                     const shortcut::SubPartDivision& d,
                                     const NeighborLabels& labels,
                                     const tree::SpanningForest& t,
                                     const tree::HeavyPaths& hp,
                                     const DetShortcutConfig& cfg);

}  // namespace pw::core
