// PaSolver — the library's main entry point, realizing Theorem 1.2.
//
// A PaSolver owns the per-graph preprocessing (leader election + BFS tree T,
// Section 2.2) and the per-partition structures (sub-part division +
// T-restricted shortcut). Since the optimal block parameter b and congestion
// c are unknown, the shortcut is built with the doubling trick the paper
// describes in Section 1.3: guesses κ, 2κ, 4κ, ... are tried, parts whose
// shortcut verifies (Algorithm 2) freeze at their guess, and the rest
// continue. A solver's first partition starts at κ = 1; every later one
// resumes at κ = max(1, final_guess / 2) of the partition before it. The
// final guess is ≤ 2·max(b, c) w.h.p. for the (b, c) the graph admits, so
// half of it keeps Theorem 1.2's Õ(bD + c) rounds, while the guesses below
// it, which on a coarsened partition mostly freeze nothing, are skipped.
//
// Strategies select between the paper's algorithm and the baselines the
// paper argues against (Section 3.1):
//   Ours        — sub-part division + constructed shortcut (Theorem 1.2)
//   NoShortcut  — sub-part trees and cross edges only: round complexity
//                 degrades to the part diameter (the "message-optimal but
//                 round-suboptimal" world)
//   NoSubparts  — every node is its own sub-part, i.e. every node injects
//                 into shortcut blocks: the prior round-optimal shortcut
//                 algorithms whose messages blow up to Ω(nD) on Figure 2a
#pragma once

#include "src/core/corefast.hpp"
#include "src/core/detshortcut.hpp"
#include "src/core/pa_given.hpp"

namespace pw::core {

enum class PaStrategy { Ours, NoShortcut, NoSubparts };

struct PaSolverConfig {
  PaMode mode = PaMode::Randomized;
  PaStrategy strategy = PaStrategy::Ours;
  std::uint64_t seed = 1;
  int corefast_iters_per_guess = 4;
};

struct PaStructures {
  tree::SpanningForest t;
  tree::HeavyPaths hp;  // deterministic mode only (Algorithm 8 substrate)
  shortcut::SubPartDivision div;
  shortcut::Shortcut sc;
  int diameter_bound = 1;   // height of T (a 2-approximation of D)
  int final_guess = 0;      // κ at which the last part froze (0: no shortcut)
  std::vector<int> frozen_at_guess;  // per part
  // KT0 neighbour labels of the installed partition and division, announced
  // once per set_partition and read by every verification and aggregate.
  NeighborLabels labels;
  // labels_stats is the announce alone (2m messages, two engine rounds);
  // tree_stats and division_stats never include it.
  sim::PhaseStats tree_stats, division_stats, labels_stats, shortcut_stats;
};

struct PaRunResult {
  std::vector<std::uint64_t> part_value;
  std::vector<std::uint64_t> node_value;
  sim::PhaseStats stats;
};

// Parallelism note: a PaSolver runs on whatever engine it is given — every
// callback in the pipeline honors the shard-safety contract of DESIGN.md §7,
// so constructing the engine with ExecutionPolicy{k > 1} runs the whole
// solve shard-parallel with bit-identical results and accounting
// (tests/apps_parallel_test.cpp). Algorithms that spawn inner engines
// (approx_min_cut's per-trial MSTs) propagate the policy via
// Engine::policy().
class PaSolver {
 public:
  explicit PaSolver(sim::Engine& eng, PaSolverConfig cfg = {});

  // Installs the partition PA queries will run against and builds the
  // per-partition structures: the sub-part division, then the KT0 neighbour
  // labels (one announce, 2m messages, the only one this partition pays),
  // then the shortcut, whose verifications read the labels. The shortcut's
  // doubling resumes at half the final guess of the partition installed
  // before (at 1 on the first call), so no part freezes below it. Leaders
  // must be known (Section 4's assumption; see pa_noleader.hpp / Algorithm 9
  // for dropping it). The partition is copied; repeated aggregate() calls
  // reuse the structures and announce nothing. Every call rebuilds the
  // division, the labels and the shortcut, even for a partition equal to the
  // installed one, so a caller that already installed it skips the call
  // (boruvka_mst reuses the merged partition as the next phase's, and reads
  // its fragment boundaries from structures().labels).
  void set_partition(graph::Partition p);

  // Solves one PA instance (Definition 1.1) on the installed partition.
  PaRunResult aggregate(const Agg& agg, const std::vector<std::uint64_t>& values);

  const graph::Partition& partition() const { return part_; }
  const PaStructures& structures() const { return st_; }
  sim::Engine& engine() { return *eng_; }
  const PaSolverConfig& config() const { return cfg_; }

 private:
  void ensure_global();
  void build_division();
  void build_shortcut();

  sim::Engine* eng_;
  PaSolverConfig cfg_;
  Rng rng_;
  graph::Partition part_;
  PaStructures st_;
  bool global_ready_ = false;
  bool partition_ready_ = false;
};

}  // namespace pw::core
