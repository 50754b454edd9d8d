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
//             The trees are kept (WaveTrees): recording sends nothing, and a
//             part whose tree is already recorded is not waved again.
//   Gather  — f(Pi) is computed at li by convergecast over the wave tree
//             (Algorithm 1 line 21, "symmetrically to lines 1-20": the wave
//             tree's reversal IS that symmetric schedule, one message per
//             tree edge).
//   Scatter — f(Pi) is broadcast back down the wave tree (line 22).
//
// Gather and scatter send one message per tree edge each, whichever wave
// recorded the tree. PaSolver records every part's tree from the Algorithm 2
// verification that freezes the part (the wave of verify_block_parameter
// runs on exactly the part's final Hi), so its queries are gather plus
// scatter alone (DESIGN.md §4).
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

// The wave trees of one partition's parts, kept so that later queries on the
// same structures gather and scatter without waving again. Each participant
// of part i's tree (every member, and every Steiner node of T that i's
// blocks route through) holds one entry: the part, the port toward its wave
// parent (-1 at the part's leader) and the ports toward its wave children.
// A node holds its own part's entry and one per part whose Hi contains a T
// edge at the node: at most 1 + c·deg_T(v), since the top of several blocks
// holds one entry per block.
//
// Flat per-node arrays: node v's entries are [offset[v], offset[v + 1]),
// and entry k's child ports are child_port[child_begin(k), child_end[k]).
// That is 12 bytes per entry plus 4 per child port; every entry but a
// leader's is the lower end of one tree edge.
struct WaveTrees {
  std::vector<char> recorded;    // per part: its tree is stored
  std::vector<int> offset;       // per node, plus one
  std::vector<int> part;         // per entry
  std::vector<int> parent_port;  // per entry; -1 at the part's leader
  std::vector<int> child_end;    // per entry
  std::vector<int> child_port;   // per tree edge, at its upper end

  // Sized for n nodes and num_parts parts, no tree recorded.
  static WaveTrees none(int n, int num_parts);

  int num_nodes() const { return static_cast<int>(offset.size()) - 1; }
  int num_parts() const { return static_cast<int>(recorded.size()); }
  // Tree edges over all recorded parts: one gather and one scatter message
  // each.
  std::size_t edges() const { return child_port.size(); }
  int child_begin(int k) const { return k == 0 ? 0 : child_end[k - 1]; }
  std::span<const int> children(int k) const {
    const auto b = static_cast<std::size_t>(child_begin(k));
    const auto e = static_cast<std::size_t>(child_end[k]);
    return {child_port.data() + b, e - b};
  }
  // Index of v's entry for `p`, or -1 when v is not in p's tree.
  int find(int v, int p) const {
    for (int k = offset[v]; k < offset[v + 1]; ++k)
      if (part[k] == p) return k;
    return -1;
  }

  // Takes over the trees of `from` whose parts have keep[i] != 0. Each kept
  // part must be recorded in `from` and not yet here. One pass over both.
  void adopt(WaveTrees&& from, const std::vector<char>& keep);

  // Aborts unless the trees are sized for g's nodes and p's parts.
  void check_matches(const graph::Graph& g, const graph::Partition& p) const;
};

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
//
// `trees` (optional, in/out) holds wave trees recorded on these structures;
// an empty WaveTrees counts as none recorded. Only the parts without a tree
// are waved (under the delays they would draw with every part waved), their
// trees are recorded into `trees`, covered or not, and gather and scatter
// run on every part's tree. A reused part reports blocks_touched = 0 and
// part_covered from its recorded tree. Without `trees` every part is waved
// and nothing is kept.
PaGivenResult pa_given(sim::Engine& eng, const graph::Partition& p,
                       const shortcut::SubPartDivision& d,
                       const NeighborLabels& labels,
                       const shortcut::Shortcut& s,
                       const tree::SpanningForest& t, const Agg& agg,
                       const std::vector<std::uint64_t>& values,
                       const PaGivenConfig& cfg = {},
                       WaveTrees* trees = nullptr);

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
//
// `trees` holds the wave tree of every active part, so a caller that freezes
// a good part keeps the tree its verification already built on the part's
// shortcut (PaSolver::build_shortcut); keeping it sends nothing.
struct VerifyResult {
  std::vector<char> part_good;
  std::vector<std::uint64_t> blocks_counted;
  WaveTrees trees;
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
