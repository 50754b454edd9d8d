#include <gtest/gtest.h>

#include <cmath>

#include "src/core/detshortcut.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"
#include "src/shortcut/subpart_det.hpp"
#include "src/tree/bfs.hpp"

namespace pw::core {
namespace {

using graph::Graph;
using graph::Partition;

// --- Algorithm 7 ------------------------------------------------------------

TEST(PathDouble, SingleClaimTravelsToSink) {
  std::vector<std::vector<int>> seed(8);
  seed[0] = {7};  // part 7 enters at the bottom
  const auto r = path_shortcut_double(seed, 4);
  ASSERT_EQ(r.sink_set, std::vector<int>{7});
  // Edges above positions 1..7 all claimed.
  for (int k = 0; k + 1 < 8; ++k)
    EXPECT_EQ(r.claimed[k], std::vector<int>{7}) << k;
  EXPECT_GT(r.messages, 0u);
  EXPECT_GT(r.rounds, 0u);
}

TEST(PathDouble, MergingDeduplicates) {
  std::vector<std::vector<int>> seed(8);
  seed[0] = {3};
  seed[3] = {3};  // same part claims twice
  seed[5] = {9};
  const auto r = path_shortcut_double(seed, 8);
  EXPECT_EQ(r.sink_set, (std::vector<int>{3, 9}));
}

TEST(PathDouble, CongestionBreaksEdges) {
  // cap c=1: any set of size >= 2 breaks its edge.
  std::vector<std::vector<int>> seed(8);
  seed[0] = {1};
  seed[1] = {2};  // positions 1 and 2 merge at position 2 -> {1,2} breaks
  const auto r = path_shortcut_double(seed, 1);
  EXPECT_TRUE(r.sink_set.empty() || static_cast<int>(r.sink_set.size()) < 2);
  bool any_broken = false;
  for (char b : r.broken) any_broken = any_broken || b;
  EXPECT_TRUE(any_broken);
}

TEST(PathDouble, OutputCongestionBounded) {
  // Lemma 6.6: every edge carries O(c log L) parts.
  const int L = 64, c = 2;
  std::vector<std::vector<int>> seed(L);
  for (int k = 0; k < L; ++k) seed[k] = {k};  // distinct part per position
  const auto r = path_shortcut_double(seed, c);
  const int bound = 2 * c * (static_cast<int>(std::log2(L)) + 1);
  for (const auto& on_edge : r.claimed)
    EXPECT_LE(static_cast<int>(on_edge.size()), bound);
  EXPECT_LE(static_cast<int>(r.sink_set.size()), bound);
}

TEST(PathDouble, LengthOnePathPassesThrough) {
  std::vector<std::vector<int>> seed(1);
  seed[0] = {5};
  const auto r = path_shortcut_double(seed, 3);
  EXPECT_EQ(r.sink_set, std::vector<int>{5});
  EXPECT_EQ(r.messages, 0u);  // no physical path edge crossed
}

// --- Algorithm 8 --------------------------------------------------------------

struct DetPipeline {
  sim::Engine eng;
  tree::SpanningForest t;
  tree::HeavyPaths hp;
  shortcut::SubPartDivision div;
  NeighborLabels labels;

  DetPipeline(const Graph& g, const Partition& p, int diameter)
      : eng(g),
        t(tree::build_bfs_tree(eng, 0)),
        hp(tree::heavy_path_decompose(eng, t)),
        div(shortcut::build_subpart_division_det(eng, p, diameter)),
        labels(announce_labels(eng, p, div)) {}
};

TEST(DetShortcut, BuildsValidFrozenShortcut) {
  Graph g = graph::gen::grid(6, 30);
  Partition p = graph::grid_row_partition(6, 30);
  p.elect_min_id_leaders();
  DetPipeline pipe(g, p, 34);
  DetShortcutConfig dc;
  dc.congestion_cap = 8;
  dc.block_target = 8;
  const auto res = build_shortcut_det(pipe.eng, p, pipe.div, pipe.labels,
                                      pipe.t, pipe.hp, dc);
  EXPECT_TRUE(res.all_frozen());
  shortcut::validate_shortcut(g, pipe.t, p, res.sc);
  const auto blocks = shortcut::blocks_per_part(g, pipe.t, p, res.sc);
  for (int i = 0; i < p.num_parts; ++i)
    EXPECT_LE(blocks[i], 3 * dc.block_target);
}

TEST(DetShortcut, HighCapGivesOneBlock) {
  Graph g = graph::gen::grid(5, 24);
  Partition p = graph::grid_row_partition(5, 24);
  p.elect_min_id_leaders();
  DetPipeline pipe(g, p, 27);
  DetShortcutConfig dc;
  dc.congestion_cap = p.num_parts + 1;
  dc.block_target = p.num_parts + 1;
  const auto res = build_shortcut_det(pipe.eng, p, pipe.div, pipe.labels,
                                      pipe.t, pipe.hp, dc);
  EXPECT_TRUE(res.all_frozen());
  const auto blocks = shortcut::blocks_per_part(g, pipe.t, p, res.sc);
  for (int i = 0; i < p.num_parts; ++i) EXPECT_LE(blocks[i], 1);
}

TEST(DetShortcut, FullyDeterministic) {
  Graph g = graph::gen::apex_grid(6, 25);
  Partition p = graph::apex_grid_row_partition(6, 25);
  p.elect_min_id_leaders();
  auto run = [&] {
    DetPipeline pipe(g, p, 10);
    DetShortcutConfig dc;
    dc.congestion_cap = 4;
    dc.block_target = 4;
    const auto res =
        build_shortcut_det(pipe.eng, p, pipe.div, pipe.labels, pipe.t,
                           pipe.hp, dc);
    return std::pair{res.sc.parts_on, pipe.eng.messages()};
  };
  EXPECT_EQ(run(), run());
}

TEST(DetSolver, EndToEndCorrectness) {
  Rng rng(81);
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = graph::gen::random_connected(140, 350, rng);
    Partition p = graph::random_bfs_partition(g, 8, rng);
    p.elect_min_id_leaders();
    sim::Engine eng(g);
    PaSolverConfig cfg;
    cfg.mode = PaMode::Deterministic;
    cfg.seed = 900 + trial;
    PaSolver solver(eng, cfg);
    solver.set_partition(p);

    std::vector<std::uint64_t> values(g.n());
    for (int v = 0; v < g.n(); ++v) values[v] = (v * 131) % 9973;
    const auto res = solver.aggregate(agg::min(), values);
    std::vector<std::uint64_t> ref(p.num_parts, ~0ULL);
    for (int v = 0; v < g.n(); ++v)
      ref[p.part_of[v]] = std::min(ref[p.part_of[v]], values[v]);
    for (int i = 0; i < p.num_parts; ++i) EXPECT_EQ(res.part_value[i], ref[i]);
  }
}

TEST(DetSolver, ApexGridDeterministicPipeline) {
  Graph g = graph::gen::apex_grid(8, 40);
  Partition p = graph::apex_grid_row_partition(8, 40);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  PaSolverConfig cfg;
  cfg.mode = PaMode::Deterministic;
  PaSolver solver(eng, cfg);
  solver.set_partition(p);
  std::vector<std::uint64_t> values(g.n(), 1);
  const auto res = solver.aggregate(agg::sum(), values);
  EXPECT_EQ(res.part_value[0], 1u);  // apex
  for (int i = 1; i < p.num_parts; ++i) EXPECT_EQ(res.part_value[i], 40u);
}

}  // namespace
}  // namespace pw::core
