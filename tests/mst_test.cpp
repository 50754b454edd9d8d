#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/mst.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"

namespace pw::apps {
namespace {

using graph::Graph;

void expect_mst_matches_kruskal(const Graph& g, core::PaSolverConfig cfg,
                                std::uint64_t seed) {
  cfg.seed = seed;
  sim::Engine eng(g);
  const auto res = boruvka_mst(eng, cfg);
  validate_spanning_tree(g, res.in_mst);
  EXPECT_EQ(res.total_weight, kruskal_mst_weight(g));
  // With (weight, edge) tie-breaking the MST is unique: edge sets match.
  EXPECT_EQ(res.in_mst, kruskal_mst_edges(g));
}

TEST(Mst, RandomWeightedGraphs) {
  Rng rng(61);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = graph::gen::with_random_weights(
        graph::gen::random_connected(120, 320, rng), 1000, rng);
    expect_mst_matches_kruskal(g, {}, 600 + trial);
  }
}

TEST(Mst, GridAndTorus) {
  Rng rng(62);
  expect_mst_matches_kruskal(
      graph::gen::with_random_weights(graph::gen::grid(9, 13), 50, rng), {},
      610);
  expect_mst_matches_kruskal(
      graph::gen::with_random_weights(graph::gen::torus(7, 9), 50, rng), {},
      611);
}

TEST(Mst, UniformWeightsTieBreakByEdgeId) {
  Rng rng(63);
  Graph g = graph::gen::random_connected(100, 400, rng);  // all weights 1
  expect_mst_matches_kruskal(g, {}, 620);
}

TEST(Mst, TreeInputSelectsEverything) {
  Rng rng(64);
  Graph g = graph::gen::with_random_weights(graph::gen::random_tree(80, rng),
                                            9, rng);
  sim::Engine eng(g);
  const auto res = boruvka_mst(eng, {});
  for (int e = 0; e < g.m(); ++e) EXPECT_TRUE(res.in_mst[e]);
  EXPECT_EQ(res.total_weight, g.total_weight());
}

TEST(Mst, DeterministicMode) {
  Rng rng(65);
  Graph g = graph::gen::with_random_weights(
      graph::gen::random_connected(90, 200, rng), 77, rng);
  core::PaSolverConfig cfg;
  cfg.mode = core::PaMode::Deterministic;
  expect_mst_matches_kruskal(g, cfg, 630);
}

// Every phase after the first runs on the partition installed by the phase
// before, on every strategy and mode.
TEST(Mst, EveryStrategyAndMode) {
  Rng rng(69);
  Graph g = graph::gen::with_random_weights(
      graph::gen::random_connected(80, 200, rng), 300, rng);
  for (const auto strategy : {core::PaStrategy::Ours,
                              core::PaStrategy::NoShortcut,
                              core::PaStrategy::NoSubparts})
    for (const auto mode : {core::PaMode::Randomized,
                            core::PaMode::Deterministic}) {
      SCOPED_TRACE(testing::Message() << "strategy " << static_cast<int>(strategy)
                                      << " mode " << static_cast<int>(mode));
      core::PaSolverConfig cfg;
      cfg.strategy = strategy;
      cfg.mode = mode;
      expect_mst_matches_kruskal(g, cfg, 650);
    }
}

TEST(Mst, PhasesLogarithmic) {
  Rng rng(66);
  Graph g = graph::gen::with_random_weights(
      graph::gen::random_connected(256, 700, rng), 500, rng);
  sim::Engine eng(g);
  const auto res = boruvka_mst(eng, {});
  EXPECT_LE(res.phases, 9);  // ceil(log2 256) + slack: Boruvka halves fragments
  EXPECT_GE(res.phases, 2);
}

// A star's leaves each have one edge, so phase 0's local choices already
// span the graph: the count on T ends the run before any partition is
// installed. Past the tree (leader election and BFS), only the chosen-edge
// exchange (n messages) and the count's convergecast and broadcast
// (n - 1 each) may send, so no labels announce, shortcut or PA wave ran.
TEST(Mst, StarFinishesInPhaseZero) {
  Rng rng(70);
  const Graph g = graph::gen::with_random_weights(graph::gen::star(200), 1000, rng);
  for (const auto mode : {core::PaMode::Randomized, core::PaMode::Deterministic}) {
    SCOPED_TRACE(testing::Message() << "mode " << static_cast<int>(mode));
    core::PaSolverConfig cfg;
    cfg.mode = mode;
    sim::Engine tree_eng(g);
    core::PaSolver tree_solver(tree_eng, cfg);
    tree_solver.tree();
    const auto tree_messages = tree_solver.structures().tree_stats.messages;
    sim::Engine eng(g);
    const auto res = boruvka_mst(eng, cfg);
    EXPECT_EQ(res.phases, 1);
    EXPECT_EQ(res.in_mst, kruskal_mst_edges(g));
    EXPECT_EQ(res.select_stats.messages, 0u);
    EXPECT_LT(res.stats.messages, tree_messages + 3u * static_cast<unsigned>(g.n()));
  }
}

TEST(Mst, CompleteGraphOnePhaseish) {
  Rng rng(67);
  Graph g = graph::gen::with_random_weights(graph::gen::complete(24), 9999, rng);
  expect_mst_matches_kruskal(g, {}, 640);
}

TEST(Mst, MessageComplexityNearLinear) {
  Rng rng(68);
  Graph g = graph::gen::with_random_weights(
      graph::gen::random_connected(300, 900, rng), 1000, rng);
  sim::Engine eng(g);
  const auto res = boruvka_mst(eng, {});
  // Õ(m): phases (<= ~9) x a few O(m) passes each, plus construction. The
  // bound below is a conservative polylog envelope: C * m * log^2 n.
  const double logn = std::log2(g.n());
  EXPECT_LE(static_cast<double>(res.stats.messages),
            6.0 * g.num_arcs() * logn * logn);
}


TEST(Mst, GhsStyleBaselineCorrect) {
  Rng rng(69);
  Graph g = graph::gen::with_random_weights(
      graph::gen::random_connected(150, 400, rng), 500, rng);
  sim::Engine eng(g);
  const auto res = ghs_style_mst(eng);
  validate_spanning_tree(g, res.in_mst);
  EXPECT_EQ(res.total_weight, kruskal_mst_weight(g));
  EXPECT_EQ(res.in_mst, kruskal_mst_edges(g));
}

TEST(Mst, GhsStylePaysFragmentDiameterRounds) {
  // Light path + heavy apex spokes: fragments become long paths while the
  // graph diameter stays tiny; fragment-tree-only coordination must pay
  // Theta(n) rounds where ours pays Õ(D + sqrt(n)).
  const int len = 512, spoke = 16;
  std::vector<graph::Edge> edges;
  for (int i = 0; i + 1 < len; ++i)
    edges.push_back({i, i + 1, 1 + static_cast<graph::Weight>(i % 9)});
  for (int i = 0; i < len; i += spoke) edges.push_back({len, i, 1000000});
  Graph g = Graph::from_edges(len + 1, std::move(edges));

  sim::Engine ghs_eng(g);
  const auto ghs = ghs_style_mst(ghs_eng);
  sim::Engine ours_eng(g);
  const auto ours = boruvka_mst(ours_eng, {});
  EXPECT_EQ(ghs.total_weight, ours.total_weight);
  // The round gap of Corollary 1.3.
  EXPECT_GT(ghs.stats.rounds, 2 * ours.stats.rounds);
  // And GHS's message frugality (the other side of the old trade-off).
  EXPECT_LT(ghs.stats.messages, ours.stats.messages);
}

}  // namespace
}  // namespace pw::apps
