// Edge cases and robustness: degenerate graphs, extreme partitions, and
// seed sweeps through the full pipeline.
#include <gtest/gtest.h>

#include "src/apps/mst.hpp"
#include "src/core/noleader.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"
#include "src/tree/bfs.hpp"
#include "src/tree/leader.hpp"

namespace pw {
namespace {

using graph::Graph;
using graph::Partition;

TEST(EdgeCases, SingleNodeGraph) {
  Graph g = Graph::from_edges(1, {});
  sim::Engine eng(g);
  const auto r = tree::elect_leader_det(eng);
  EXPECT_EQ(r.leader, 0);
  const auto t = tree::build_bfs_tree(eng, 0);
  EXPECT_EQ(t.height(), 0);

  Partition p = graph::whole_partition(g);
  p.elect_min_id_leaders();
  core::PaSolver solver(eng, {});
  solver.set_partition(p);
  const auto res = solver.aggregate(agg::sum(), {42});
  EXPECT_EQ(res.part_value[0], 42u);
  EXPECT_EQ(res.node_value[0], 42u);
}

TEST(EdgeCases, TwoNodeGraph) {
  Graph g = Graph::from_edges(2, {{0, 1, 5}});
  for (auto mode : {core::PaMode::Randomized, core::PaMode::Deterministic}) {
    sim::Engine eng(g);
    core::PaSolverConfig cfg;
    cfg.mode = mode;
    core::PaSolver solver(eng, cfg);
    Partition p = graph::singleton_partition(g);
    solver.set_partition(p);
    const auto res = solver.aggregate(agg::max(), {3, 9});
    EXPECT_EQ(res.part_value[p.part_of[0]], 3u);
    EXPECT_EQ(res.part_value[p.part_of[1]], 9u);
  }
}

TEST(EdgeCases, TwoNodeMst) {
  Graph g = Graph::from_edges(2, {{0, 1, 7}});
  sim::Engine eng(g);
  const auto res = apps::boruvka_mst(eng, {});
  EXPECT_EQ(res.total_weight, 7);
  EXPECT_TRUE(res.in_mst[0]);
}

TEST(EdgeCases, StarGraphFullPipeline) {
  Graph g = graph::gen::star(40);
  Rng rng(1);
  Partition p = graph::random_bfs_partition(g, 4, rng);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  core::PaSolver solver(eng, {});
  solver.set_partition(p);
  std::vector<std::uint64_t> values(g.n(), 1);
  const auto res = solver.aggregate(agg::sum(), values);
  std::uint64_t total = 0;
  for (auto x : res.part_value) total += x;
  EXPECT_EQ(total, 40u);
}

TEST(EdgeCases, CompleteGraphDiameterOne) {
  Graph g = graph::gen::complete(30);
  Rng rng(2);
  Partition p = graph::random_bfs_partition(g, 6, rng);
  p.elect_min_id_leaders();
  for (auto mode : {core::PaMode::Randomized, core::PaMode::Deterministic}) {
    sim::Engine eng(g);
    core::PaSolverConfig cfg;
    cfg.mode = mode;
    core::PaSolver solver(eng, cfg);
    solver.set_partition(p);
    std::vector<std::uint64_t> values(g.n());
    for (int v = 0; v < g.n(); ++v) values[v] = v;
    const auto res = solver.aggregate(agg::min(), values);
    for (int v = 0; v < g.n(); ++v)
      EXPECT_EQ(res.node_value[v],
                static_cast<std::uint64_t>(p.leader[p.part_of[v]]));
  }
}

TEST(EdgeCases, PartitionIntoTwoHalvesOfClique) {
  Graph g = graph::gen::complete(20);
  std::vector<int> labels(20);
  for (int v = 0; v < 20; ++v) labels[v] = v < 10 ? 0 : 1;
  Partition p = Partition::from_labels(labels);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  core::PaSolver solver(eng, {});
  solver.set_partition(p);
  std::vector<std::uint64_t> ones(20, 1);
  const auto res = solver.aggregate(agg::sum(), ones);
  EXPECT_EQ(res.part_value[0], 10u);
  EXPECT_EQ(res.part_value[1], 10u);
}

TEST(EdgeCases, MaxValuesSurviveAggregation) {
  // Values at the top of the 64-bit range must flow through untouched
  // (min/max/or are lossless; O(log n)-bit model packs 64-bit words).
  Graph g = graph::gen::path(16);
  Partition p = graph::whole_partition(g);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  core::PaSolver solver(eng, {});
  solver.set_partition(p);
  std::vector<std::uint64_t> values(16, agg::kU64Max - 3);
  values[7] = agg::kU64Max - 9;
  const auto mn = solver.aggregate(agg::min(), values);
  EXPECT_EQ(mn.part_value[0], agg::kU64Max - 9);
  const auto mx = solver.aggregate(agg::max(), values);
  EXPECT_EQ(mx.part_value[0], agg::kU64Max - 3);
}

TEST(EdgeCases, RepeatedSetPartitionOnSameSolver) {
  Rng rng(3);
  Graph g = graph::gen::random_connected(80, 200, rng);
  sim::Engine eng(g);
  core::PaSolver solver(eng, {});
  std::vector<std::uint64_t> ones(g.n(), 1);
  for (int k : {2, 5, 11, 3}) {
    Partition p = graph::random_bfs_partition(g, k, rng);
    p.elect_min_id_leaders();
    solver.set_partition(p);
    const auto res = solver.aggregate(agg::sum(), ones);
    std::uint64_t total = 0;
    for (auto x : res.part_value) total += x;
    EXPECT_EQ(total, static_cast<std::uint64_t>(g.n()));
  }
}

class SeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SeedSweep, RandomizedPipelineCorrectAcrossSeeds) {
  Rng instance_rng(777);
  Graph g = graph::gen::random_connected(130, 340, instance_rng);
  Partition p = graph::random_bfs_partition(g, 9, instance_rng);
  p.elect_min_id_leaders();

  sim::Engine eng(g);
  core::PaSolverConfig cfg;
  cfg.seed = GetParam();
  core::PaSolver solver(eng, cfg);
  solver.set_partition(p);
  std::vector<std::uint64_t> values(g.n());
  for (int v = 0; v < g.n(); ++v) values[v] = (v * 2654435761u) % 100000;
  const auto res = solver.aggregate(agg::min(), values);
  std::vector<std::uint64_t> ref(p.num_parts, agg::kU64Max);
  for (int v = 0; v < g.n(); ++v)
    ref[p.part_of[v]] = std::min(ref[p.part_of[v]], values[v]);
  for (int i = 0; i < p.num_parts; ++i) ASSERT_EQ(res.part_value[i], ref[i]);
}

INSTANTIATE_TEST_SUITE_P(TenSeeds, SeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

TEST(EdgeCases, NoLeaderOnTwoNodes) {
  Graph g = Graph::from_edges(2, {{0, 1, 1}});
  Partition p = graph::whole_partition(g);
  p.leader.clear();
  sim::Engine eng(g);
  core::PaSolver solver(eng);
  const auto res = core::pa_noleader(solver, p, agg::sum(), {5, 6});
  EXPECT_EQ(res.part_value[0], 11u);
}

TEST(EdgeCases, LeaderElectionOnCompleteGraphIsFast) {
  Graph g = graph::gen::complete(50);
  sim::Engine eng(g);
  const auto r = tree::elect_leader_det(eng);
  EXPECT_EQ(r.leader, 0);
  EXPECT_LE(eng.rounds(), 4u);  // D=1: two rounds of flooding suffice
}

}  // namespace
}  // namespace pw
