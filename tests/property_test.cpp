// Parameterized property sweeps: every (graph family x partition x mode x
// strategy) combination must satisfy the paper's invariants.
#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/mst.hpp"
#include "src/core/noleader.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"

namespace pw {
namespace {

using graph::Graph;
using graph::Partition;

enum class Family {
  Gnm,
  Grid,
  ApexGrid,
  KTree,
  Caterpillar,
  Torus,
  Hypercube,
  RandomTree,
  Lollipop,
};

const char* family_name(Family f) {
  switch (f) {
    case Family::Gnm: return "Gnm";
    case Family::Grid: return "Grid";
    case Family::ApexGrid: return "ApexGrid";
    case Family::KTree: return "KTree";
    case Family::Caterpillar: return "Caterpillar";
    case Family::Torus: return "Torus";
    case Family::Hypercube: return "Hypercube";
    case Family::RandomTree: return "RandomTree";
    case Family::Lollipop: return "Lollipop";
  }
  return "?";
}

struct Instance {
  Graph g;
  Partition p;
};

Instance make_instance(Family f, std::uint64_t seed) {
  Rng rng(seed);
  Graph g = [&] {
    switch (f) {
      case Family::Gnm: return graph::gen::random_connected(160, 420, rng);
      case Family::Grid: return graph::gen::grid(10, 16);
      case Family::ApexGrid: return graph::gen::apex_grid(7, 22);
      case Family::KTree: return graph::gen::k_tree(150, 3, rng);
      case Family::Caterpillar: return graph::gen::caterpillar(40, 3);
      case Family::Torus: return graph::gen::torus(9, 13);
      case Family::Hypercube: return graph::gen::hypercube(7);
      case Family::RandomTree: return graph::gen::random_tree(140, rng);
      case Family::Lollipop: return graph::gen::lollipop(12, 60);
    }
    PW_CHECK(false);
  }();
  Partition p = f == Family::ApexGrid
                    ? graph::apex_grid_row_partition(7, 22)
                    : graph::random_bfs_partition(g, std::max(2, g.n() / 18), rng);
  p.elect_min_id_leaders();
  return {std::move(g), std::move(p)};
}

std::vector<std::uint64_t> reference_pa(const Partition& p, const Agg& agg,
                                        const std::vector<std::uint64_t>& values) {
  std::vector<std::uint64_t> out(p.num_parts, agg.identity);
  for (std::size_t v = 0; v < values.size(); ++v)
    out[p.part_of[v]] = agg(out[p.part_of[v]], values[v]);
  return out;
}

// --- PA correctness across everything ----------------------------------------

struct PaCase {
  Family family;
  core::PaMode mode;
  core::PaStrategy strategy;
};

class PaProperty : public ::testing::TestWithParam<PaCase> {};

TEST_P(PaProperty, MatchesReferenceOnEveryAggregate) {
  const auto c = GetParam();
  auto inst = make_instance(c.family, 7'000 + static_cast<int>(c.family));
  graph::validate_partition(inst.g, inst.p);

  sim::Engine eng(inst.g);
  core::PaSolverConfig cfg;
  cfg.mode = c.mode;
  cfg.strategy = c.strategy;
  cfg.seed = 99;
  core::PaSolver solver(eng, cfg);
  solver.set_partition(inst.p);

  Rng rng(5);
  std::vector<std::uint64_t> values(inst.g.n());
  for (auto& x : values) x = rng.next_below(1u << 18);
  for (const Agg& agg : {agg::min(), agg::max(), agg::sum(), agg::bit_or()}) {
    const auto res = solver.aggregate(agg, values);
    const auto ref = reference_pa(inst.p, agg, values);
    for (int i = 0; i < inst.p.num_parts; ++i)
      ASSERT_EQ(res.part_value[i], ref[i])
          << family_name(c.family) << " agg=" << agg.name << " part " << i;
    for (int v = 0; v < inst.g.n(); ++v)
      ASSERT_EQ(res.node_value[v], ref[inst.p.part_of[v]]);
  }
}

std::string pa_case_name(const ::testing::TestParamInfo<PaCase>& info) {
  std::string s = family_name(info.param.family);
  s += info.param.mode == core::PaMode::Randomized ? "_rand" : "_det";
  switch (info.param.strategy) {
    case core::PaStrategy::Ours: s += "_ours"; break;
    case core::PaStrategy::NoShortcut: s += "_noshortcut"; break;
    case core::PaStrategy::NoSubparts: s += "_nosubparts"; break;
  }
  return s;
}

std::vector<PaCase> all_pa_cases() {
  std::vector<PaCase> cases;
  for (Family f : {Family::Gnm, Family::Grid, Family::ApexGrid, Family::KTree,
                   Family::Caterpillar, Family::Torus, Family::Hypercube,
                   Family::RandomTree, Family::Lollipop}) {
    for (auto mode : {core::PaMode::Randomized, core::PaMode::Deterministic})
      cases.push_back({f, mode, core::PaStrategy::Ours});
    cases.push_back({f, core::PaMode::Randomized, core::PaStrategy::NoShortcut});
    cases.push_back({f, core::PaMode::Randomized, core::PaStrategy::NoSubparts});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, PaProperty,
                         ::testing::ValuesIn(all_pa_cases()), pa_case_name);

// --- Structure invariants across families ------------------------------------

struct StructureCase {
  Family family;
  core::PaMode mode;
};

class StructureProperty : public ::testing::TestWithParam<StructureCase> {};

TEST_P(StructureProperty, StructuresSatisfyPaperInvariants) {
  const auto c = GetParam();
  auto inst = make_instance(c.family, 8'000 + static_cast<int>(c.family));
  sim::Engine eng(inst.g);
  core::PaSolverConfig cfg;
  cfg.mode = c.mode;
  cfg.seed = 3;
  core::PaSolver solver(eng, cfg);
  solver.set_partition(inst.p);
  const auto& st = solver.structures();

  // Tree: a BFS tree of the whole graph.
  tree::validate_forest(inst.g, st.t);
  ASSERT_EQ(static_cast<int>(st.t.roots.size()), 1);
  const auto dist = graph::bfs_distances(inst.g, st.t.roots[0]);
  for (int v = 0; v < inst.g.n(); ++v) ASSERT_EQ(st.t.depth[v], dist[v]);

  // Division: Definition 4.1 (depth envelope is mode-dependent; see
  // DESIGN.md on deterministic chains).
  const int depth_cap =
      (c.mode == core::PaMode::Deterministic ? 8 : 1) *
          (4 * std::max(1, st.diameter_bound)) +
      4;
  shortcut::validate_subpart_division(inst.g, inst.p, st.div, depth_cap);

  // Shortcut: structural validity + the doubling guarantee b <= 3 kappa*.
  shortcut::validate_shortcut(inst.g, st.t, inst.p, st.sc);
  const auto blocks = shortcut::blocks_per_part(inst.g, st.t, inst.p, st.sc);
  for (int i = 0; i < inst.p.num_parts; ++i)
    ASSERT_LE(blocks[i], 3 * std::max(1, st.frozen_at_guess[i])) << i;
  // Congestion is Õ(kappa*): final guess x iterations x log envelope.
  const double logn = std::log2(std::max(2, inst.g.n()));
  ASSERT_LE(shortcut::congestion(st.sc),
            st.final_guess * (2 * logn + 8) * core::kCoreFastItersPerGuess);
}

std::string structure_case_name(
    const ::testing::TestParamInfo<StructureCase>& info) {
  std::string s = family_name(info.param.family);
  s += info.param.mode == core::PaMode::Randomized ? "_rand" : "_det";
  return s;
}

std::vector<StructureCase> all_structure_cases() {
  std::vector<StructureCase> cases;
  for (Family f : {Family::Gnm, Family::Grid, Family::ApexGrid, Family::KTree,
                   Family::Caterpillar, Family::Torus, Family::Hypercube,
                   Family::RandomTree, Family::Lollipop})
    for (auto mode : {core::PaMode::Randomized, core::PaMode::Deterministic})
      cases.push_back({f, mode});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, StructureProperty,
                         ::testing::ValuesIn(all_structure_cases()),
                         structure_case_name);

// --- MST across families -------------------------------------------------------

class MstProperty : public ::testing::TestWithParam<Family> {};

TEST_P(MstProperty, EqualsKruskalWithRandomWeights) {
  Rng rng(9'000 + static_cast<int>(GetParam()));
  auto inst = make_instance(GetParam(), 9'100 + static_cast<int>(GetParam()));
  Graph weighted = graph::gen::with_random_weights(inst.g, 997, rng);
  sim::Engine eng(weighted);
  const auto res = apps::boruvka_mst(eng, {});
  apps::validate_spanning_tree(weighted, res.in_mst);
  ASSERT_EQ(res.total_weight, apps::kruskal_mst_weight(weighted));
  ASSERT_EQ(res.in_mst, apps::kruskal_mst_edges(weighted));
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, MstProperty,
    ::testing::Values(Family::Gnm, Family::Grid, Family::ApexGrid,
                      Family::KTree, Family::Caterpillar, Family::Torus,
                      Family::Hypercube, Family::RandomTree, Family::Lollipop),
    [](const ::testing::TestParamInfo<Family>& info) {
      return std::string(family_name(info.param));
    });

// --- Algorithm 9 across families ------------------------------------------------

class NoLeaderProperty : public ::testing::TestWithParam<Family> {};

TEST_P(NoLeaderProperty, MatchesReferenceWithoutLeaders) {
  auto inst = make_instance(GetParam(), 9'500 + static_cast<int>(GetParam()));
  graph::Partition p = inst.p;
  p.leader.clear();
  Rng rng(13);
  std::vector<std::uint64_t> values(inst.g.n());
  for (auto& x : values) x = rng.next_below(1u << 16);

  sim::Engine eng(inst.g);
  core::PaSolver solver(eng);
  const auto res = core::pa_noleader(solver, p, agg::min(), values);
  const auto ref = reference_pa(p, agg::min(), values);
  for (int i = 0; i < p.num_parts; ++i) ASSERT_EQ(res.part_value[i], ref[i]);
}

INSTANTIATE_TEST_SUITE_P(
    AllFamilies, NoLeaderProperty,
    ::testing::Values(Family::Gnm, Family::Grid, Family::KTree,
                      Family::Caterpillar, Family::Hypercube,
                      Family::RandomTree),
    [](const ::testing::TestParamInfo<Family>& info) {
      return std::string(family_name(info.param));
    });

}  // namespace
}  // namespace pw
