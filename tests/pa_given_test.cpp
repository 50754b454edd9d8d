#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/corefast.hpp"
#include "src/core/pa_given.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"
#include "src/tree/bfs.hpp"

namespace pw::core {
namespace {

using graph::Graph;
using graph::Partition;

// Centralized reference for PA.
std::vector<std::uint64_t> reference_pa(const Partition& p, const Agg& agg,
                                        const std::vector<std::uint64_t>& values) {
  std::vector<std::uint64_t> out(p.num_parts, agg.identity);
  for (std::size_t v = 0; v < values.size(); ++v)
    out[p.part_of[v]] = agg(out[p.part_of[v]], values[v]);
  return out;
}

struct Pipeline {
  sim::Engine eng;
  tree::SpanningForest t;
  shortcut::SubPartDivision div;
  NeighborLabels labels;
  shortcut::Shortcut sc;

  Pipeline(const Graph& g, const Partition& p, int diameter, Rng& rng,
           bool with_trivial_shortcut)
      : eng(g),
        t(tree::build_bfs_tree(eng, 0)),
        div(shortcut::build_subpart_division_random(eng, p, std::max(1, diameter),
                                                    rng)),
        labels(announce_labels(eng, p, div)),
        sc(with_trivial_shortcut
               ? shortcut::trivial_whole_tree_shortcut(
                     g, t, p, std::max(1, diameter))
               : shortcut::Shortcut::empty(g.n())) {}
};

void expect_pa_correct(const Graph& g, Partition p, PaMode mode,
                       bool with_shortcut, std::uint64_t seed) {
  Rng rng(seed);
  p.elect_min_id_leaders();
  graph::validate_partition(g, p);
  const int diameter = graph::diameter_estimate(g);
  Pipeline pipe(g, p, diameter, rng, with_shortcut);
  shortcut::validate_subpart_division(g, p, pipe.div, std::max(1, diameter));

  std::vector<std::uint64_t> values(g.n());
  for (int v = 0; v < g.n(); ++v) values[v] = rng.next_below(1u << 20);

  for (const Agg& agg : {agg::min(), agg::max(), agg::sum()}) {
    PaGivenConfig cfg;
    cfg.mode = mode;
    cfg.delay_range = mode == PaMode::Randomized ? 8 : 0;
    cfg.seed = seed;
    const auto res =
        pa_given(pipe.eng, p, pipe.div, pipe.labels, pipe.sc, pipe.t, agg,
                 values, cfg);
    const auto ref = reference_pa(p, agg, values);
    ASSERT_TRUE(res.all_covered());
    for (int i = 0; i < p.num_parts; ++i)
      EXPECT_EQ(res.part_value[i], ref[i]) << "agg=" << agg.name << " part " << i;
    for (int v = 0; v < g.n(); ++v)
      EXPECT_EQ(res.node_value[v], ref[p.part_of[v]])
          << "agg=" << agg.name << " node " << v;
  }
}

TEST(PaGiven, GridRowsDeterministic) {
  expect_pa_correct(graph::gen::grid(6, 20), graph::grid_row_partition(6, 20),
                    PaMode::Deterministic, /*with_shortcut=*/true, 101);
}

TEST(PaGiven, GridRowsRandomized) {
  expect_pa_correct(graph::gen::grid(6, 20), graph::grid_row_partition(6, 20),
                    PaMode::Randomized, /*with_shortcut=*/true, 102);
}

TEST(PaGiven, GridRowsNoShortcutStillCorrect) {
  expect_pa_correct(graph::gen::grid(6, 20), graph::grid_row_partition(6, 20),
                    PaMode::Deterministic, /*with_shortcut=*/false, 103);
}

TEST(PaGiven, ApexGridFigure2a) {
  expect_pa_correct(graph::gen::apex_grid(8, 12),
                    graph::apex_grid_row_partition(8, 12),
                    PaMode::Deterministic, /*with_shortcut=*/true, 104);
}

TEST(PaGiven, RandomGraphRandomParts) {
  Rng rng(7);
  for (int trial = 0; trial < 4; ++trial) {
    Graph g = graph::gen::random_connected(150, 400, rng);
    Partition p = graph::random_bfs_partition(g, 9, rng);
    expect_pa_correct(g, p, PaMode::Deterministic, true, 200 + trial);
    expect_pa_correct(g, p, PaMode::Randomized, true, 300 + trial);
  }
}

TEST(PaGiven, SingletonPartition) {
  Graph g = graph::gen::cycle(30);
  expect_pa_correct(g, graph::singleton_partition(g), PaMode::Deterministic,
                    false, 105);
}

TEST(PaGiven, WholeGraphOnePart) {
  Rng rng(8);
  Graph g = graph::gen::random_connected(120, 260, rng);
  expect_pa_correct(g, graph::whole_partition(g), PaMode::Deterministic, true,
                    106);
  expect_pa_correct(g, graph::whole_partition(g), PaMode::Randomized, true,
                    107);
}

TEST(PaGiven, PathLongParts) {
  // Halves of a long path: part diameter far above graph "D"-scale; exercises
  // multi-sub-part spreading through cross edges.
  Graph g = graph::gen::path(200);
  std::vector<int> labels(200);
  for (int v = 0; v < 200; ++v) labels[v] = v < 100 ? 0 : 1;
  expect_pa_correct(g, Partition::from_labels(labels), PaMode::Deterministic,
                    true, 108);
}

TEST(PaGiven, MessageComplexityLinearInEdgesWithoutShortcut) {
  Rng rng(9);
  Graph g = graph::gen::random_connected(400, 1200, rng);
  Partition p = graph::random_bfs_partition(g, 20, rng);
  p.elect_min_id_leaders();
  const int diameter = graph::diameter_estimate(g);
  Pipeline pipe(g, p, diameter, rng, false);
  std::vector<std::uint64_t> values(g.n(), 1);
  const auto snap = pipe.eng.snap();
  const auto res = pa_given(pipe.eng, p, pipe.div, pipe.labels, pipe.sc,
                            pipe.t, agg::sum(), values, {});
  ASSERT_TRUE(res.all_covered());
  const auto stats = pipe.eng.since(snap);
  // Announce (2m) + tokens (<= 2m + 2n) + acks (<= n + ...) + gather/scatter
  // (wave-tree edges twice). A slack factor of 8 over arcs is conservative.
  EXPECT_LE(stats.messages, 8u * static_cast<std::uint64_t>(g.num_arcs()));
}

TEST(PaGiven, TrivialShortcutGivesOneBlockToBigParts) {
  Graph g = graph::gen::grid(5, 30);
  Partition p = graph::grid_row_partition(5, 30);
  p.elect_min_id_leaders();
  Rng rng(10);
  const int diameter = graph::diameter_exact(g);  // 33
  Pipeline pipe(g, p, diameter, rng, true);
  // Rows have 30 < 33 nodes: nobody exceeds the threshold; use a lower one.
  auto sc = shortcut::trivial_whole_tree_shortcut(g, pipe.t, p, 10);
  EXPECT_EQ(shortcut::block_parameter(g, pipe.t, p, sc), 1);
  EXPECT_EQ(shortcut::congestion(sc), 5);

  std::vector<std::uint64_t> values(g.n(), 1);
  const auto res =
      pa_given(pipe.eng, p, pipe.div, pipe.labels, sc, pipe.t, agg::sum(),
               values, {});
  ASSERT_TRUE(res.all_covered());
  for (int i = 0; i < p.num_parts; ++i) {
    EXPECT_EQ(res.part_value[i], 30u);
    EXPECT_LE(res.blocks_touched[i], 1u);
  }
}

TEST(PaGiven, VerifyAcceptsGoodShortcut) {
  Graph g = graph::gen::grid(5, 30);
  Partition p = graph::grid_row_partition(5, 30);
  p.elect_min_id_leaders();
  Rng rng(11);
  Pipeline pipe(g, p, 33, rng, false);
  auto sc = shortcut::trivial_whole_tree_shortcut(g, pipe.t, p, 10);
  const auto vr =
      verify_block_parameter(pipe.eng, p, pipe.div, pipe.labels, sc, pipe.t,
                             1, {});
  for (int i = 0; i < p.num_parts; ++i) {
    EXPECT_TRUE(vr.part_good[i]) << i;
    EXPECT_LE(vr.blocks_counted[i], 1u);
  }
}

TEST(PaGiven, VerifyRejectsWhenBlockBudgetTooSmall) {
  // Hand-build a shortcut with >= 2 blocks for part 0 on a path: claim two
  // disjoint tree-edge segments.
  Graph g = graph::gen::path(12);
  Partition p = graph::whole_partition(g);
  p.elect_min_id_leaders();
  Rng rng(12);
  sim::Engine eng(g);
  auto t = tree::build_bfs_tree(eng, 0);
  auto div = shortcut::build_subpart_division_random(eng, p, 3, rng);
  const auto labels = announce_labels(eng, p, div);
  auto sc = shortcut::Shortcut::empty(g.n());
  sc.parts_on[2] = {0};
  sc.parts_on[3] = {0};
  sc.parts_on[7] = {0};  // separated from the first segment: second block
  shortcut::annotate_block_roots(g, t, sc);
  EXPECT_EQ(shortcut::block_parameter(g, t, p, sc), 2);

  const auto vr = verify_block_parameter(eng, p, div, labels, sc, t, 1, {});
  // The wave may touch both blocks; budget 1 must reject if it counted 2.
  if (vr.blocks_counted[0] >= 2) {
    EXPECT_FALSE(vr.part_good[0]);
  }
  const auto vr2 = verify_block_parameter(eng, p, div, labels, sc, t, 2, {});
  EXPECT_TRUE(vr2.part_good[0]);
}

// Algorithm 2 under an active mask: every active part's verdict equals its
// verdict when every part runs, inactive parts report "not good" with zero
// blocks, and the masked run never sends more than the full one.
void expect_masked_verify_matches_full(const Graph& g, Partition p,
                                       std::uint64_t seed) {
  Rng rng(seed);
  p.elect_min_id_leaders();
  const int diameter = graph::diameter_estimate(g);
  Pipeline pipe(g, p, diameter, rng, /*with_trivial_shortcut=*/false);
  const int np = p.num_parts;
  const auto candidate = corefast_claim(pipe.eng, p, pipe.div, pipe.t,
                                        std::vector<char>(np, 1),
                                        /*congestion_cap=*/2);
  ASSERT_GT(shortcut::congestion(candidate), 1);

  std::vector<std::vector<char>> masks;
  masks.push_back(std::vector<char>(np, 1));
  masks.push_back(std::vector<char>(np, 0));
  for (int i = 0; i < np; ++i) {
    masks.push_back(std::vector<char>(np, 0));
    masks.back()[i] = 1;
  }
  for (int k = 0; k < 6; ++k) {
    masks.push_back(std::vector<char>(np, 0));
    for (auto& a : masks.back()) a = rng.next_bool(0.5);
  }

  int good = 0, bad = 0;
  for (const PaMode mode : {PaMode::Deterministic, PaMode::Randomized}) {
    for (const int b_target : {1, 3}) {
      PaGivenConfig cfg;
      cfg.mode = mode;
      cfg.delay_range = mode == PaMode::Randomized ? 2 : 0;
      cfg.seed = seed;
      const auto full =
          verify_block_parameter(pipe.eng, p, pipe.div, pipe.labels, candidate,
                                 pipe.t, b_target, cfg);
      for (int i = 0; i < np; ++i) (full.part_good[i] ? good : bad) += 1;
      for (const auto& mask : masks) {
        const auto vr =
            verify_block_parameter(pipe.eng, p, pipe.div, pipe.labels,
                                   candidate, pipe.t, b_target, cfg, mask);
        for (int i = 0; i < np; ++i) {
          if (mask[i]) {
            EXPECT_EQ(vr.part_good[i], full.part_good[i]) << "part " << i;
            EXPECT_EQ(vr.blocks_counted[i], full.blocks_counted[i])
                << "part " << i;
          } else {
            EXPECT_EQ(vr.part_good[i], 0) << "part " << i;
            EXPECT_EQ(vr.blocks_counted[i], 0u) << "part " << i;
          }
        }
        EXPECT_LE(vr.stats.messages, full.stats.messages);
        if (std::none_of(mask.begin(), mask.end(), [](char a) { return a; })) {
          EXPECT_EQ(vr.stats.rounds, 0u);
          EXPECT_EQ(vr.stats.messages, 0u);
        }
        if (std::all_of(mask.begin(), mask.end(), [](char a) { return a; })) {
          EXPECT_EQ(vr.stats.rounds, full.stats.rounds);
          EXPECT_EQ(vr.stats.messages, full.stats.messages);
        }
      }
    }
  }
  // The comparison means something only if both verdicts occur.
  EXPECT_GT(good, 0);
  EXPECT_GT(bad, 0);
}

TEST(PaGiven, VerifyMaskedMatchesAllPartsRandomGraphs) {
  Rng rng(21);
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = graph::gen::random_connected(150, 400, rng);
    expect_masked_verify_matches_full(g, graph::random_bfs_partition(g, 12, rng),
                                      400 + trial);
  }
}

TEST(PaGiven, VerifyMaskedMatchesAllPartsGrid) {
  Rng rng(22);
  Graph g = graph::gen::grid(10, 16);
  expect_masked_verify_matches_full(g, graph::random_bfs_partition(g, 10, rng),
                                    500);
}

TEST(PaGiven, VerifyRejectsMaskOfWrongSize) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Graph g = graph::gen::grid(4, 6);
  Partition p = graph::grid_row_partition(4, 6);
  p.elect_min_id_leaders();
  Rng rng(23);
  Pipeline pipe(g, p, 8, rng, true);
  const std::vector<char> mask(p.num_parts + 1, 1);
  EXPECT_DEATH(verify_block_parameter(pipe.eng, p, pipe.div, pipe.labels,
                                      pipe.sc, pipe.t, 1, {}, mask),
               "active mask has");
}

// Labels announced for another graph or another partition are rejected at
// every entry point that reads them, before any traffic is sent.
TEST(PaGiven, RejectsLabelsOfAnotherGraphOrPartition) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Graph g = graph::gen::grid(4, 6);
  Partition p = graph::grid_row_partition(4, 6);
  p.elect_min_id_leaders();
  Rng rng(24);
  Pipeline pipe(g, p, 8, rng, true);
  std::vector<std::uint64_t> values(g.n(), 1);

  // Same graph, whole-graph partition: the part count differs.
  Partition whole = graph::whole_partition(g);
  whole.elect_min_id_leaders();
  const auto whole_div =
      shortcut::build_subpart_division_random(pipe.eng, whole, 8, rng);
  const auto whole_labels = announce_labels(pipe.eng, whole, whole_div);
  // Another graph: node and arc counts differ.
  Graph other = graph::gen::grid(5, 6);
  Partition other_p = graph::grid_row_partition(5, 6);
  other_p.elect_min_id_leaders();
  Pipeline other_pipe(other, other_p, 9, rng, false);

  const char* kWant = "neighbor labels were announced for n=";
  EXPECT_DEATH(pa_given(pipe.eng, p, pipe.div, whole_labels, pipe.sc, pipe.t,
                        agg::sum(), values),
               "announced for n=24, 76 arcs, 1 parts but are used on n=24, "
               "76 arcs, 4 parts");
  EXPECT_DEATH(pa_given(pipe.eng, p, pipe.div, other_pipe.labels, pipe.sc,
                        pipe.t, agg::sum(), values),
               "announced for n=30, 98 arcs, 5 parts but are used on n=24, "
               "76 arcs, 4 parts");
  EXPECT_DEATH(verify_block_parameter(pipe.eng, p, pipe.div, whole_labels,
                                      pipe.sc, pipe.t, 1),
               kWant);
}

TEST(PaGiven, StatsPhasesAllAccounted) {
  Graph g = graph::gen::grid(6, 10);
  Partition p = graph::grid_row_partition(6, 10);
  p.elect_min_id_leaders();
  Rng rng(13);
  Pipeline pipe(g, p, 14, rng, true);
  std::vector<std::uint64_t> values(g.n(), 2);
  const auto before = pipe.eng.snap();
  const auto res = pa_given(pipe.eng, p, pipe.div, pipe.labels, pipe.sc,
                            pipe.t, agg::sum(), values, {});
  const auto total = pipe.eng.since(before);
  EXPECT_EQ(res.total().rounds, total.rounds);
  EXPECT_EQ(res.total().messages, total.messages);
  EXPECT_GT(res.wave_stats.messages, 0u);
  EXPECT_GT(res.gather_stats.messages, 0u);
  EXPECT_GT(res.scatter_stats.messages, 0u);
}

}  // namespace
}  // namespace pw::core
