#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/baselines.hpp"
#include "src/core/noleader.hpp"
#include "src/graph/generators.hpp"
#include "src/tree/bfs.hpp"

namespace pw::core {
namespace {

using graph::Graph;
using graph::Partition;

std::vector<std::uint64_t> reference_pa(const Partition& p, const Agg& agg,
                                        const std::vector<std::uint64_t>& values) {
  std::vector<std::uint64_t> out(p.num_parts, agg.identity);
  for (std::size_t v = 0; v < values.size(); ++v)
    out[p.part_of[v]] = agg(out[p.part_of[v]], values[v]);
  return out;
}

TEST(NoLeader, MatchesReferenceOnRandomInstances) {
  Rng rng(91);
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = graph::gen::random_connected(120, 300, rng);
    Partition p = graph::random_bfs_partition(g, 7, rng);  // leaders unused
    std::vector<std::uint64_t> values(g.n());
    for (auto& x : values) x = rng.next_below(1000);

    sim::Engine eng(g);
    PaSolverConfig cfg;
    cfg.seed = 910 + trial;
    PaSolver solver(eng, cfg);
    const auto res = pa_noleader(solver, p, agg::sum(), values);
    const auto ref = reference_pa(p, agg::sum(), values);
    for (int i = 0; i < p.num_parts; ++i) EXPECT_EQ(res.part_value[i], ref[i]);
    for (int v = 0; v < g.n(); ++v)
      EXPECT_EQ(res.node_value[v], ref[p.part_of[v]]);
    // Elected leaders live inside their parts.
    for (int i = 0; i < p.num_parts; ++i) {
      ASSERT_GE(res.elected_leader[i], 0);
      EXPECT_EQ(p.part_of[res.elected_leader[i]], i);
    }
  }
}

TEST(NoLeader, LogarithmicCoarsening) {
  Rng rng(92);
  Graph g = graph::gen::grid(8, 32);
  Partition p = graph::grid_row_partition(8, 32);
  sim::Engine eng(g);
  PaSolver solver(eng);
  std::vector<std::uint64_t> values(g.n(), 1);
  const auto res = pa_noleader(solver, p, agg::sum(), values);
  for (int i = 0; i < p.num_parts; ++i) EXPECT_EQ(res.part_value[i], 32u);
  EXPECT_LE(res.coarsening_rounds, 40);
  EXPECT_GE(res.coarsening_rounds, 1);
}

TEST(NoLeader, SingletonPartsNeedNoCoarsening) {
  Graph g = graph::gen::cycle(16);
  Partition p = graph::singleton_partition(g);
  p.leader.clear();
  sim::Engine eng(g);
  std::vector<std::uint64_t> values(g.n());
  for (int v = 0; v < g.n(); ++v) values[v] = v * 10;
  PaSolver solver(eng);
  const auto res = pa_noleader(solver, p, agg::max(), values);
  EXPECT_EQ(res.coarsening_rounds, 0);
  for (int v = 0; v < g.n(); ++v)
    EXPECT_EQ(res.node_value[v], static_cast<std::uint64_t>(v * 10));
}

// The apps aggregate on solver.partition() straight after pa_noleader, so it
// must leave the input partition installed with the elected leaders.
TEST(NoLeader, LeavesInputPartitionInstalledWithElectedLeaders) {
  Rng rng(94);
  Graph g = graph::gen::random_connected(150, 400, rng);
  Partition p = graph::random_bfs_partition(g, 9, rng);
  p.leader.clear();
  std::vector<std::uint64_t> values(g.n());
  for (auto& x : values) x = rng.next_below(1000);

  sim::Engine eng(g);
  PaSolver solver(eng);
  const auto res = pa_noleader(solver, p, agg::sum(), values);
  const auto& q = solver.partition();
  ASSERT_EQ(q.num_parts, p.num_parts);
  // Same grouping: the part index maps are one bijection.
  std::vector<int> q_of_p(p.num_parts, -1);
  for (int v = 0; v < g.n(); ++v) {
    int& mapped = q_of_p[p.part_of[v]];
    if (mapped < 0) mapped = q.part_of[v];
    EXPECT_EQ(q.part_of[v], mapped) << "node " << v;
  }
  std::vector<int> sorted = q_of_p;
  std::sort(sorted.begin(), sorted.end());
  for (int i = 0; i < p.num_parts; ++i) ASSERT_EQ(sorted[i], i);
  // Its leaders are the elected ones.
  for (int i = 0; i < p.num_parts; ++i)
    EXPECT_EQ(q.leader[q_of_p[i]], res.elected_leader[i]) << "part " << i;
  // And a further aggregate on it needs no set_partition.
  const auto again = solver.aggregate(agg::sum(), values);
  for (int v = 0; v < g.n(); ++v)
    EXPECT_EQ(again.node_value[v], res.node_value[v]);
}

TEST(GlobalTreeBaseline, CorrectButMessageHungry) {
  Rng rng(93);
  Graph g = graph::gen::grid(10, 20);
  Partition p = graph::grid_row_partition(10, 20);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  const auto t = tree::build_bfs_tree(eng, 0);

  std::vector<std::uint64_t> values(g.n());
  for (auto& x : values) x = rng.next_below(100);
  const auto res = global_tree_pa(eng, p, t, agg::min(), values);
  const auto ref = reference_pa(p, agg::min(), values);
  for (int i = 0; i < p.num_parts; ++i) EXPECT_EQ(res.part_value[i], ref[i]);
  for (int v = 0; v < g.n(); ++v)
    EXPECT_EQ(res.node_value[v], ref[p.part_of[v]]);
  // The down-flood alone costs ~ n * num_parts messages.
  EXPECT_GE(res.stats.messages,
            static_cast<std::uint64_t>(g.n() - 1) * (p.num_parts - 1));
}

TEST(GlobalTreeBaseline, PipelinedRounds) {
  // Rounds stay O(D + N), far below N * D.
  Graph g = graph::gen::grid(16, 16);
  Partition p = graph::grid_row_partition(16, 16);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  const auto t = tree::build_bfs_tree(eng, 0);
  std::vector<std::uint64_t> values(g.n(), 3);
  const auto res = global_tree_pa(eng, p, t, agg::sum(), values);
  for (int i = 0; i < p.num_parts; ++i) EXPECT_EQ(res.part_value[i], 48u);
  EXPECT_LE(res.stats.rounds,
            static_cast<std::uint64_t>(4 * (t.height() + p.num_parts) + 16));
}

}  // namespace
}  // namespace pw::core
