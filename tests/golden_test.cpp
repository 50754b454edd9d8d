// Exact golden values for the core path: Borůvka MST over PA (Corollary
// 1.3) and PaSolver::set_partition (Theorem 1.2's preprocessing) on fixed
// seeded inputs, in both PaModes. Every field is compared exactly — total
// weight, phases, rounds, messages, final guess, per-part freeze guesses,
// and a hash of the built shortcut — so any change to what the algorithms
// send, or to the shortcut they build, shows here. Host-side refactors
// (bookkeeping that sends nothing) must leave every value untouched.
//
// To re-capture after an intended algorithmic change, run with
// PW_GOLDEN_PRINT=1: each test then prints its actual values in the
// initializer syntax used below.
//
// The rounds and messages of the randomized Borůvka tests and the shortcut
// rounds and messages of SetPartitionGnmRandomized were re-captured when
// Algorithm 2 began verifying only the parts whose verdict its callers read;
// weights, phases, guesses and both hashes did not move.
//
// The rounds and messages of all four Borůvka tests were re-captured when
// boruvka_mst began reusing the merged partition installed by a phase's
// PA #2 as the next phase's fragment partition instead of rebuilding it
// (one set_partition per phase, not two); weights, phases and the
// SetPartition* goldens did not move.
//
// The rounds and messages of all four Borůvka tests and the shortcut rounds
// and messages of all four SetPartition* tests were re-captured when the
// KT0 neighbour labels became a per-partition structure (PaSolver announces
// them once per set_partition; verification, aggregation and Borůvka's
// fragment boundaries read them) instead of an announce per verification,
// per aggregate and per Borůvka phase; weights, phases, tree and division
// stats, guesses and both hashes did not move.
//
// The rounds and messages of BoruvkaRandomizedSeedB were re-captured when
// PaSolver began resuming the shortcut doubling at half the previous
// partition's final guess instead of at 1: its 2-part phase follows one
// that stopped at guess 4, so it skips guess 1. Every phase of SeedA and of
// the deterministic tests stops at guess 2 or below and so still resumes
// at 1. Weights, phases, the deterministic Borůvka tests and the
// SetPartition* goldens (a solver's first partition) did not move.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <vector>

#include "src/apps/mst.hpp"
#include "src/graph/generators.hpp"

namespace pw::core {
namespace {

bool print_mode() { return std::getenv("PW_GOLDEN_PRINT") != nullptr; }

// FNV-1a over a stream of integers (each folded in as 8 little-endian
// bytes), with list lengths mixed in so [[1],[]] and [[],[1]] differ.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::int64_t x) {
    auto u = static_cast<std::uint64_t>(x);
    for (int k = 0; k < 8; ++k) {
      h ^= (u >> (8 * k)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
  void add_lists(const std::vector<std::vector<int>>& lists) {
    add(static_cast<std::int64_t>(lists.size()));
    for (const auto& l : lists) {
      add(static_cast<std::int64_t>(l.size()));
      for (int x : l) add(x);
    }
  }
};

std::uint64_t shortcut_hash(const shortcut::Shortcut& sc) {
  Fnv f;
  f.add_lists(sc.parts_on);
  f.add_lists(sc.block_root_depth_on);
  return f.h;
}

std::uint64_t vector_hash(const std::vector<int>& xs) {
  Fnv f;
  f.add_lists({xs});
  return f.h;
}

struct MstGolden {
  std::int64_t total_weight;
  int phases;
  std::uint64_t rounds, messages;
};

MstGolden run_mst(std::uint64_t graph_seed, PaMode mode) {
  Rng rng(graph_seed);
  const auto g = graph::gen::with_random_weights(
      graph::gen::random_connected(300, 900, rng), 1 << 20, rng);
  sim::Engine eng(g);
  PaSolverConfig cfg;
  cfg.mode = mode;
  cfg.seed = graph_seed + 7;
  const auto res = apps::boruvka_mst(eng, cfg);
  EXPECT_EQ(res.total_weight, apps::kruskal_mst_weight(g));
  return {res.total_weight, res.phases, res.stats.rounds, res.stats.messages};
}

void expect_mst(std::uint64_t graph_seed, PaMode mode, const MstGolden& want) {
  const auto got = run_mst(graph_seed, mode);
  if (print_mode())
    std::printf("mst seed=%llu mode=%d: {%lld, %d, %llu, %llu}\n",
                static_cast<unsigned long long>(graph_seed),
                static_cast<int>(mode),
                static_cast<long long>(got.total_weight), got.phases,
                static_cast<unsigned long long>(got.rounds),
                static_cast<unsigned long long>(got.messages));
  EXPECT_EQ(got.total_weight, want.total_weight);
  EXPECT_EQ(got.phases, want.phases);
  EXPECT_EQ(got.rounds, want.rounds);
  EXPECT_EQ(got.messages, want.messages);
}

TEST(Golden, BoruvkaRandomizedSeedA) {
  expect_mst(101, PaMode::Randomized, {59346003, 4, 1112, 81964});
}
TEST(Golden, BoruvkaRandomizedSeedB) {
  expect_mst(202, PaMode::Randomized, {59703355, 4, 1004, 78244});
}
TEST(Golden, BoruvkaDeterministicSeedA) {
  expect_mst(101, PaMode::Deterministic, {59346003, 4, 3214, 111947});
}
TEST(Golden, BoruvkaDeterministicSeedB) {
  expect_mst(202, PaMode::Deterministic, {59703355, 4, 3156, 110323});
}

struct SolverGolden {
  std::uint64_t tree_rounds, tree_messages;
  std::uint64_t division_rounds, division_messages;
  std::uint64_t shortcut_rounds, shortcut_messages;
  int final_guess;
  std::uint64_t frozen_at_guess_hash;
  std::uint64_t shortcut_hash;
};

// The grid instance freezes every part at guess 1; the G(n, m) one (in
// Randomized mode) freezes parts at guesses 1, 2 and 4, so the doubling
// trick's merge of later guesses into earlier ones is exercised too.
void expect_solver(const graph::Graph& g, graph::Partition p, PaMode mode,
                   const SolverGolden& want) {
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  PaSolverConfig cfg;
  cfg.mode = mode;
  cfg.seed = 17;
  PaSolver solver(eng, cfg);
  solver.set_partition(p);
  const auto& st = solver.structures();
  const SolverGolden got{st.tree_stats.rounds,
                         st.tree_stats.messages,
                         st.division_stats.rounds,
                         st.division_stats.messages,
                         st.shortcut_stats.rounds,
                         st.shortcut_stats.messages,
                         st.final_guess,
                         vector_hash(st.frozen_at_guess),
                         shortcut_hash(st.sc)};
  if (print_mode())
    std::printf(
        "solver n=%d mode=%d: {%lluULL, %lluULL, %lluULL, %lluULL, %lluULL, "
        "%lluULL, %d, %lluULL, %lluULL}\n",
        g.n(), static_cast<int>(mode),
        static_cast<unsigned long long>(got.tree_rounds),
        static_cast<unsigned long long>(got.tree_messages),
        static_cast<unsigned long long>(got.division_rounds),
        static_cast<unsigned long long>(got.division_messages),
        static_cast<unsigned long long>(got.shortcut_rounds),
        static_cast<unsigned long long>(got.shortcut_messages),
        got.final_guess,
        static_cast<unsigned long long>(got.frozen_at_guess_hash),
        static_cast<unsigned long long>(got.shortcut_hash));
  EXPECT_EQ(got.tree_rounds, want.tree_rounds);
  EXPECT_EQ(got.tree_messages, want.tree_messages);
  EXPECT_EQ(got.division_rounds, want.division_rounds);
  EXPECT_EQ(got.division_messages, want.division_messages);
  EXPECT_EQ(got.shortcut_rounds, want.shortcut_rounds);
  EXPECT_EQ(got.shortcut_messages, want.shortcut_messages);
  EXPECT_EQ(got.final_guess, want.final_guess);
  EXPECT_EQ(got.frozen_at_guess_hash, want.frozen_at_guess_hash);
  EXPECT_EQ(got.shortcut_hash, want.shortcut_hash);
}

graph::Graph solver_grid() { return graph::gen::grid(24, 20); }
graph::Partition solver_grid_partition(const graph::Graph& g) {
  Rng rng(303);
  return graph::random_bfs_partition(g, 40, rng);
}

graph::Graph solver_gnm() {
  Rng rng(303);
  return graph::gen::random_connected(400, 1200, rng);
}
graph::Partition solver_gnm_partition(const graph::Graph& g) {
  Rng rng(404);
  return graph::random_bfs_partition(g, 20, rng);
}

TEST(Golden, SetPartitionGridRandomized) {
  const auto g = solver_grid();
  expect_solver(g, solver_grid_partition(g), PaMode::Randomized,
                {66ULL, 11759ULL, 12ULL, 1266ULL, 85ULL, 2855ULL, 1,
                 1793543852588271018ULL, 4739230769909539463ULL});
}
TEST(Golden, SetPartitionGridDeterministic) {
  const auto g = solver_grid();
  expect_solver(g, solver_grid_partition(g), PaMode::Deterministic,
                {174ULL, 43094ULL, 1055ULL, 31687ULL, 113ULL, 3029ULL, 1,
                 1793543852588271018ULL, 14264213053772083567ULL});
}
TEST(Golden, SetPartitionGnmRandomized) {
  const auto g = solver_gnm();
  expect_solver(g, solver_gnm_partition(g), PaMode::Randomized,
                {14ULL, 11718ULL, 4ULL, 874ULL, 377ULL, 20718ULL, 4,
                 15212912969186006675ULL, 16452015111338582752ULL});
}
TEST(Golden, SetPartitionGnmDeterministic) {
  const auto g = solver_gnm();
  expect_solver(g, solver_gnm_partition(g), PaMode::Deterministic,
                {26ULL, 12567ULL, 357ULL, 16655ULL, 64ULL, 2260ULL, 1,
                 8613595185681582806ULL, 6924345991966743494ULL});
}

}  // namespace
}  // namespace pw::core
