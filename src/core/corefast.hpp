// Randomized message-efficient shortcut construction (Section 5.2,
// Algorithm 4), built on the CoreFast claiming procedure of Haeupler, Izumi
// and Zuzic [19] as the paper describes it: sub-part representatives send
// claims up the BFS tree T; a tree edge accepts at most `congestion_cap`
// distinct parts and breaks for everyone else, fragmenting each part's
// claimed edge set into blocks.
//
// Message efficiency comes precisely from the sub-part division: only the
// Õ(n/D) representatives inject claims (each travelling <= depth(T) hops),
// so claiming costs Õ(n) messages instead of the Ω(n · D) a node-level
// CoreFast would pay — the same observation that drives Algorithm 1.
//
// Algorithm 4's loop: every active part participates in an iteration with
// probability 1/2 (the contention-halving that [19, Lemma 4] supplies);
// claimed candidates are verified with Algorithm 2 — for the participating
// parts only, the one verdict an iteration reads, so parts sitting the
// iteration out send no verification traffic — and parts whose block count
// lands within 3·b_target freeze their edges and go inactive (line 6:
// shortcut::adopt_parts copies every part frozen in an iteration into the
// result in one O(n + claims) pass, the same helper the doubling trick in
// PaSolver and Algorithm 8 use). After O(log n) iterations all parts are
// frozen w.h.p.; per-edge congestion grows by at most `congestion_cap` per
// iteration, i.e. Õ(c) overall.
#pragma once

#include "src/core/pa_given.hpp"

namespace pw::core {

struct CoreFastConfig {
  int congestion_cap = 1;   // per-iteration cap (the paper's 8c)
  int block_target = 1;     // freeze parts with <= 3 * block_target blocks
  int max_iterations = 0;   // 0: 2*ceil(log2 n) + 4
  std::uint64_t seed = 1;
  PaMode mode = PaMode::Randomized;  // mode used by the verification PA runs
  // Parts to leave out entirely (already served at a smaller guess by the
  // doubling trick). Empty means: build for every part.
  std::vector<char> skip_parts;
};

struct CoreFastResult {
  shortcut::Shortcut sc;
  std::vector<char> part_frozen;   // parts that met the block target
  std::vector<int> frozen_at;      // iteration index, -1 if never
  sim::PhaseStats stats;

  bool all_frozen() const {
    for (char c : part_frozen)
      if (!c) return false;
    return true;
  }
};

// One claiming pass (CoreFast proper) for the given set of participating
// parts. Returns the candidate shortcut (claims of participating parts
// only). All traffic is real engine traffic, including the downward
// root-depth backflow that tells every claimed edge its block root's depth
// (the annotation Algorithm 1's scheduler consumes).
shortcut::Shortcut corefast_claim(sim::Engine& eng, const graph::Partition& p,
                                  const shortcut::SubPartDivision& d,
                                  const tree::SpanningForest& t,
                                  const std::vector<char>& participating,
                                  int congestion_cap);

// Algorithm 4: the claim/verify/freeze loop. `labels` are the partition's
// KT0 labels (announce_labels on p and d); every verification reads them.
CoreFastResult build_shortcut_random(sim::Engine& eng,
                                     const graph::Partition& p,
                                     const shortcut::SubPartDivision& d,
                                     const NeighborLabels& labels,
                                     const tree::SpanningForest& t,
                                     const CoreFastConfig& cfg);

}  // namespace pw::core
