// Algorithm 1: Part-Wise Aggregation given a sub-part division and a
// T-restricted shortcut (Section 4.2 of the paper).
//
// The implementation realizes the paper's three symmetric stages:
//
//   Wave    — the leader li floods a token mi through its part: up its
//             sub-part tree to r(li), through shortcut blocks (BlockRoute,
//             Lemma 4.2 — representatives alone inject into blocks, which is
//             what keeps messages at Õ(m), Observation 4.3), down sub-part
//             trees, and across edges exiting sub-parts (Algorithm 1 lines
//             1-20). Every participant (part members and the Steiner nodes
//             of T that block routes traverse) records the channel it first
//             heard the token on, which assembles a "wave tree" per part.
//   Gather  — f(Pi) is computed at li by convergecast over the wave tree
//             (Algorithm 1 line 21, "symmetrically to lines 1-20": the wave
//             tree's reversal IS that symmetric schedule; it retraces
//             exactly the channels of the wave, so rounds, messages and
//             per-edge congestion match the forward run).
//   Scatter — f(Pi) is broadcast back down the wave tree (line 22).
//
// Contention is resolved per directed edge with the scheduling rule of
// Lemma 4.2: block packets are prioritized by the depth of their block root
// (ties by part id); a queued edge sends one message per round. In
// randomized mode each part additionally delays its start uniformly in [c]
// (Section 4.2), which w.h.p. spreads distinct parts' traffic so only
// O(log n) parts contend per edge.
//
// All traffic is real engine traffic; no analytic charges in this module.
#pragma once

#include "src/graph/partition.hpp"
#include "src/shortcut/shortcut.hpp"
#include "src/shortcut/subpart.hpp"
#include "src/sim/engine.hpp"
#include "src/util/agg.hpp"
#include "src/util/rng.hpp"

namespace pw::core {

enum class PaMode { Deterministic, Randomized };

struct PaGivenConfig {
  PaMode mode = PaMode::Deterministic;
  // Randomized mode draws each part's start delay uniformly from
  // [0, max(1, delay_range)); the paper uses delay_range = c.
  int delay_range = 0;
  std::uint64_t seed = 1;
};

struct PaGivenResult {
  // f(Pi) as computed at each part leader.
  std::vector<std::uint64_t> part_value;
  // Value delivered to each node by the scatter stage (the PA output:
  // node_value[v] == f(P_{part_of[v]}) whenever its part was covered).
  std::vector<std::uint64_t> node_value;
  // Whether the wave reached every member of the part. Coverage can only
  // fail when the provided shortcut's block parameter exceeds the iteration
  // budget implied by its structure — the condition Algorithm 2 tests for.
  std::vector<char> part_covered;
  // Per-part count of shortcut blocks the wave touched (equals the number
  // of blocks of Pi whenever covered; used by Algorithm 2 / Lemma 4.5).
  std::vector<std::uint64_t> blocks_touched;

  bool all_covered() const {
    for (char c : part_covered)
      if (!c) return false;
    return true;
  }

  sim::PhaseStats wave_stats, gather_stats, scatter_stats;
  sim::PhaseStats total() const {
    sim::PhaseStats t = wave_stats;
    t += gather_stats;
    t += scatter_stats;
    return t;
  }
};

// Runs Algorithm 1. Requirements: p has leaders; d is a sub-part division of
// p; s is a T-restricted shortcut for p on tree t (possibly empty).
PaGivenResult pa_given(sim::Engine& eng, const graph::Partition& p,
                       const shortcut::SubPartDivision& d,
                       const shortcut::Shortcut& s,
                       const tree::SpanningForest& t, const Agg& agg,
                       const std::vector<std::uint64_t>& values,
                       const PaGivenConfig& cfg = {});

// Algorithm 2: block-parameter verification. Runs the wave, lets uninformed
// nodes object to their in-part neighbors (one round, their port count in
// messages), and re-runs PA to tell every covered node whether its part
// failed coverage or has more than `b_target` blocks. Returns, per part,
// whether the part is "good": fully covered with at most b_target blocks.
//
// `active` (one entry per part; empty means every part) restricts the run to
// the parts whose verdict the caller will read. Only active parts' nodes
// announce and object, only their leaders start waves, and so only they
// gather and scatter; every part still draws its randomized start delay, so
// an active part starts exactly when it would with every part active. An
// inactive part sends nothing and gets part_good = 0, blocks_counted = 0.
// An active part's verdict depends on its own coverage, objections and block
// roots alone (other parts only delay its tokens, and the wave drains to
// quiescence), so it equals its verdict under the all-parts mask; only the
// rounds and messages shrink.
struct VerifyResult {
  std::vector<char> part_good;
  std::vector<std::uint64_t> blocks_counted;
  sim::PhaseStats stats;
};

VerifyResult verify_block_parameter(sim::Engine& eng,
                                    const graph::Partition& p,
                                    const shortcut::SubPartDivision& d,
                                    const shortcut::Shortcut& s,
                                    const tree::SpanningForest& t,
                                    int b_target, const PaGivenConfig& cfg = {},
                                    const std::vector<char>& active = {});

}  // namespace pw::core
