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

#include <span>

#include "src/graph/partition.hpp"
#include "src/shortcut/shortcut.hpp"
#include "src/shortcut/subpart.hpp"
#include "src/sim/engine.hpp"
#include "src/util/agg.hpp"
#include "src/util/rng.hpp"

namespace pw::core {

enum class PaMode { Deterministic, Randomized };

// What a node knows about its neighbours under KT0 once it has heard them
// announce themselves: per arc, the part and sub-part of the node at the far
// end. Part and sub-part ids are fixed for as long as a partition is
// installed, so the labels are a per-partition structure like the division
// and the shortcut: announced once (announce_labels) and read by every wave
// and verification on that partition.
struct NeighborLabels {
  // Graph size and part count the labels were announced for (checked by
  // check_matches, so labels of another graph or partition are rejected).
  int n = 0;
  int num_parts = 0;
  std::vector<int> part;     // per arc g.arc_id(v, port): part of the far end
  std::vector<int> subpart;  // per arc: sub-part of the far end
  // Cross ports of v (same part, other sub-part), ascending: the entries
  // cross_port[cross_offset[v] .. cross_offset[v + 1]).
  std::vector<int> cross_offset;
  std::vector<int> cross_port;

  std::span<const int> cross_ports(int v) const {
    const auto b = static_cast<std::size_t>(cross_offset[v]);
    const auto e = static_cast<std::size_t>(cross_offset[v + 1]);
    return {cross_port.data() + b, e - b};
  }

  // Aborts unless the labels were announced on a graph with g's node and arc
  // counts for a partition with p's part count.
  void check_matches(const graph::Graph& g, const graph::Partition& p) const;
};

// The KT0 bootstrap: every node sends its (part, sub-part) on every port
// once — 2m messages; the engine counts two rounds, the sends and the reads
// — and the cross ports are derived from what arrived.
NeighborLabels announce_labels(sim::Engine& eng, const graph::Partition& p,
                               const shortcut::SubPartDivision& d);

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
// p; labels were announced for (p, d); s is a T-restricted shortcut for p on
// tree t (possibly empty). The announce is not repeated here: the result's
// stats count the wave, gather and scatter only.
PaGivenResult pa_given(sim::Engine& eng, const graph::Partition& p,
                       const shortcut::SubPartDivision& d,
                       const NeighborLabels& labels,
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
// The objection round and the wave's cross edges read the labels announced
// for (p, d); the call sends no announce of its own.
//
// `active` (one entry per part; empty means every part) restricts the run to
// the parts whose verdict the caller will read. Only active parts' nodes
// object, only their leaders start waves, and so only they gather and
// scatter; every part still draws its randomized start delay, so
// an active part starts exactly when it would with every part active. An
// inactive part sends nothing and gets part_good = 0, blocks_counted = 0.
// An active part's verdict depends on its own coverage, objections and block
// roots alone (other parts only delay its tokens, and the wave drains to
// quiescence), so it equals its verdict under the all-parts mask; only the
// rounds and messages shrink. An active part reads only the labels of its
// own members, so its verdict is also the one it would reach if only active
// parts' nodes had announced.
struct VerifyResult {
  std::vector<char> part_good;
  std::vector<std::uint64_t> blocks_counted;
  sim::PhaseStats stats;
};

VerifyResult verify_block_parameter(sim::Engine& eng,
                                    const graph::Partition& p,
                                    const shortcut::SubPartDivision& d,
                                    const NeighborLabels& labels,
                                    const shortcut::Shortcut& s,
                                    const tree::SpanningForest& t,
                                    int b_target, const PaGivenConfig& cfg = {},
                                    const std::vector<char>& active = {});

}  // namespace pw::core
