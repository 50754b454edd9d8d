// Cluster health monitoring: per-zone aggregates over a datacenter fabric.
//
// The scenario the paper's introduction motivates: a large network whose
// nodes are grouped into administrative zones (connected parts), and every
// zone must agree on summary statistics — without any central coordinator,
// with messages bounded by the fabric size. Zones here have NO designated
// coordinator: the example uses Algorithm 9 (PA without known leaders),
// which elects one per zone as a side effect.
//
//   $ ./cluster_health
#include <cstdio>

#include "src/core/noleader.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"

int main() {
  using namespace pw;
  Rng rng(2026);

  // A 1500-node fabric with average degree 6, split into 40 zones.
  graph::Graph fabric = graph::gen::random_connected(1500, 4500, rng);
  graph::Partition zones = graph::random_bfs_partition(fabric, 40, rng);
  zones.leader.clear();  // nobody is in charge

  // Per-node load percentage and free memory (GiB).
  std::vector<std::uint64_t> load(fabric.n()), free_mem(fabric.n());
  for (int v = 0; v < fabric.n(); ++v) {
    load[v] = rng.next_below(101);
    free_mem[v] = 4 + rng.next_below(60);
  }

  // Multi-threaded by default (DESIGN.md §7: policy never moves results).
  sim::Engine engine(fabric, sim::ExecutionPolicy::hardware());
  // The first sweep elects the zone leaders and leaves the zones installed in
  // the solver, so the second sweep is one ordinary PA call on them.
  core::PaSolver solver(engine);
  const auto max_load = core::pa_noleader(solver, zones, agg::max(), load);
  const auto min_free = solver.aggregate(agg::min(), free_mem);
  auto free_of = [&](int z) {
    return min_free.node_value[max_load.elected_leader[z]];
  };

  std::printf("zone health summary (%d zones, %d nodes, %d links):\n",
              zones.num_parts, fabric.n(), fabric.m());
  int alerts = 0;
  for (int z = 0; z < zones.num_parts; ++z) {
    const bool hot = max_load.part_value[z] > 99;
    const bool tight = free_of(z) < 5;
    if (hot || tight) {
      ++alerts;
      if (alerts <= 8)
        std::printf("  zone %2d  max-load=%3llu%%  min-free=%2lluGiB  %s%s\n", z,
                    static_cast<unsigned long long>(max_load.part_value[z]),
                    static_cast<unsigned long long>(free_of(z)),
                    hot ? "[HOT]" : "", tight ? "[LOW-MEM]" : "");
    }
  }
  if (alerts > 8) std::printf("  ... and %d more alerting zones\n", alerts - 8);
  std::printf("  %d zones healthy, %d alerting\n", zones.num_parts - alerts,
              alerts);
  std::printf(
      "cost: %llu rounds / %llu messages for both sweeps, leaderless "
      "(%d coarsening rounds to elect zone leaders)\n",
      static_cast<unsigned long long>(max_load.stats.rounds +
                                      min_free.stats.rounds),
      static_cast<unsigned long long>(max_load.stats.messages +
                                      min_free.stats.messages),
      max_load.coarsening_rounds);
  return 0;
}
