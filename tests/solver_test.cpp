#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/solver.hpp"
#include "src/tree/bfs.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"

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

void expect_solver_correct(const Graph& g, Partition p, PaStrategy strategy,
                           std::uint64_t seed) {
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  PaSolverConfig cfg;
  cfg.strategy = strategy;
  cfg.seed = seed;
  PaSolver solver(eng, cfg);
  solver.set_partition(p);

  Rng rng(seed ^ 1);
  std::vector<std::uint64_t> values(g.n());
  for (auto& x : values) x = rng.next_below(1u << 16);

  for (const Agg& agg : {agg::min(), agg::sum()}) {
    const auto res = solver.aggregate(agg, values);
    const auto ref = reference_pa(p, agg, values);
    for (int i = 0; i < p.num_parts; ++i) EXPECT_EQ(res.part_value[i], ref[i]);
    for (int v = 0; v < g.n(); ++v)
      EXPECT_EQ(res.node_value[v], ref[p.part_of[v]]);
  }
}

TEST(CoreFast, ClaimRespectsCongestionCap) {
  Graph g = graph::gen::grid(8, 25);
  Partition p = graph::grid_row_partition(8, 25);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  Rng rng(51);
  const auto t = tree::build_bfs_tree(eng, 0);
  const auto div = shortcut::build_subpart_division_random(eng, p, 31, rng);
  std::vector<char> all(p.num_parts, 1);
  for (int cap : {1, 2, 4}) {
    const auto sc = corefast_claim(eng, p, div, t, all, cap);
    EXPECT_LE(shortcut::congestion(sc), cap);
    shortcut::validate_shortcut(g, t, p, sc);
  }
}

TEST(CoreFast, HighCapMergesEachPartIntoOneBlock) {
  Graph g = graph::gen::grid(6, 30);
  Partition p = graph::grid_row_partition(6, 30);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  Rng rng(52);
  const auto t = tree::build_bfs_tree(eng, 0);
  const auto div = shortcut::build_subpart_division_random(eng, p, 35, rng);
  std::vector<char> all(p.num_parts, 1);
  // Cap >= number of parts: no edge ever breaks; all claims of a part merge
  // on the way to the root of T, leaving exactly one block per part.
  const auto sc = corefast_claim(eng, p, div, t, all, p.num_parts);
  const auto blocks = shortcut::blocks_per_part(g, t, p, sc);
  for (int i = 0; i < p.num_parts; ++i) EXPECT_LE(blocks[i], 1) << i;
}

// Parts with a 0 in the mask send no claim, so no edge carries them; the
// others do claim.
TEST(CoreFast, ClaimSkipsMaskedParts) {
  Graph g = graph::gen::grid(4, 20);
  Partition p = graph::grid_row_partition(4, 20);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  Rng rng(54);
  const auto t = tree::build_bfs_tree(eng, 0);
  const auto div = shortcut::build_subpart_division_random(eng, p, 22, rng);
  const auto sc = corefast_claim(eng, p, div, t, {0, 1, 0, 1}, 8);
  int claimed = 0;
  for (int v = 0; v < g.n(); ++v)
    for (int part : sc.parts_on[v]) {
      EXPECT_NE(part, 0);
      EXPECT_NE(part, 2);
      ++claimed;
    }
  EXPECT_GT(claimed, 0);
  shortcut::validate_shortcut(g, t, p, sc);
}

TEST(Solver, CorrectAcrossStrategiesAndGraphs) {
  Rng rng(55);
  expect_solver_correct(graph::gen::grid(6, 25), graph::grid_row_partition(6, 25),
                        PaStrategy::Ours, 501);
  expect_solver_correct(graph::gen::grid(6, 25), graph::grid_row_partition(6, 25),
                        PaStrategy::NoShortcut, 502);
  expect_solver_correct(graph::gen::grid(6, 25), graph::grid_row_partition(6, 25),
                        PaStrategy::NoSubparts, 503);
  expect_solver_correct(graph::gen::apex_grid(6, 20),
                        graph::apex_grid_row_partition(6, 20), PaStrategy::Ours,
                        504);
  Graph g = graph::gen::random_connected(180, 420, rng);
  expect_solver_correct(g, graph::random_bfs_partition(g, 14, rng),
                        PaStrategy::Ours, 505);
}

TEST(Solver, DeterministicModeIsReproducible) {
  Graph g = graph::gen::grid(5, 16);
  Partition p = graph::grid_row_partition(5, 16);
  p.elect_min_id_leaders();
  std::vector<std::uint64_t> values(g.n());
  for (int v = 0; v < g.n(); ++v) values[v] = (v * 37) % 101;

  auto run = [&](std::uint64_t seed) {
    sim::Engine eng(g);
    PaSolverConfig cfg;
    cfg.mode = PaMode::Deterministic;
    cfg.seed = seed;
    PaSolver solver(eng, cfg);
    solver.set_partition(p);
    const auto res = solver.aggregate(agg::sum(), values);
    return std::pair{res.part_value, eng.messages()};
  };
  // Deterministic pipeline: identical traffic for any seed would be ideal,
  // but the randomized division is still seeded; same seed => same run.
  EXPECT_EQ(run(7), run(7));
}

TEST(Solver, OursBeatsNoShortcutOnRoundsForLongParts) {
  // A shallow apex grid: D ~ depth is tiny (every column reaches the apex
  // within `depth` hops) while rows — the parts — stay `width` long.
  // Without shortcuts PA pays ~3x the part diameter in rounds; with them it
  // pays Õ(bD + c).
  const int depth = 6, width = 200;
  Graph g = graph::gen::apex_grid(depth, width);
  Partition p = graph::apex_grid_row_partition(depth, width);
  p.elect_min_id_leaders();
  std::vector<std::uint64_t> values(g.n(), 1);

  auto rounds_of = [&](PaStrategy s) {
    sim::Engine eng(g);
    PaSolverConfig cfg;
    cfg.strategy = s;
    cfg.seed = 77;
    PaSolver solver(eng, cfg);
    solver.set_partition(p);
    return solver.aggregate(agg::sum(), values).stats.rounds;
  };
  const auto ours = rounds_of(PaStrategy::Ours);
  const auto no_shortcut = rounds_of(PaStrategy::NoShortcut);
  EXPECT_LT(ours, no_shortcut);
}

TEST(Solver, StructuresExposedAndValid) {
  Graph g = graph::gen::grid(7, 20);
  Partition p = graph::grid_row_partition(7, 20);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  PaSolver solver(eng, {});
  solver.set_partition(p);
  const auto& st = solver.structures();
  tree::validate_forest(g, st.t);
  shortcut::validate_subpart_division(g, p, st.div, st.diameter_bound);
  shortcut::validate_shortcut(g, st.t, p, st.sc);
  EXPECT_GE(st.final_guess, 1);
  for (int i = 0; i < p.num_parts; ++i) EXPECT_GE(st.frozen_at_guess[i], 1);
}


TEST(CoreFast, BackflowAnnotationMatchesCentralRecomputation) {
  // The distributed root-depth backflow must agree with what a central walk
  // of the block structure computes (the Lemma 4.2 scheduling keys).
  Rng rng(56);
  Graph g = graph::gen::random_connected(220, 520, rng);
  Partition p = graph::random_bfs_partition(g, 12, rng);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  const auto t = tree::build_bfs_tree(eng, 0);
  const auto div = shortcut::build_subpart_division_random(
      eng, p, std::max(1, t.height()), rng);
  std::vector<char> all(p.num_parts, 1);
  for (int cap : {2, 6}) {
    const auto sc = corefast_claim(eng, p, div, t, all, cap);
    auto recomputed = sc;
    shortcut::annotate_block_roots(g, t, recomputed);
    EXPECT_EQ(sc.block_root_depth_on, recomputed.block_root_depth_on)
        << "cap=" << cap;
  }
}

TEST(Solver, NoSubpartsStillMeetsBlockTargets) {
  Graph g = graph::gen::grid(6, 24);
  Partition p = graph::grid_row_partition(6, 24);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  PaSolverConfig cfg;
  cfg.strategy = PaStrategy::NoSubparts;
  PaSolver solver(eng, cfg);
  solver.set_partition(p);
  const auto& st = solver.structures();
  shortcut::validate_shortcut(g, st.t, p, st.sc);
  const auto blocks = shortcut::blocks_per_part(g, st.t, p, st.sc);
  for (int i = 0; i < p.num_parts; ++i)
    EXPECT_LE(blocks[i], 3 * std::max(1, st.frozen_at_guess[i]));
}

// The KT0 labels are a per-partition structure: set_partition announces
// once (one message per arc), the labels name every arc's far end, the
// cross ports are exactly the same-part, other-sub-part arcs, and nothing
// outside the four stats of structures() was sent. A later aggregate reads
// the labels without touching them.
void expect_labels_announced_once(const Graph& g, Partition p, PaMode mode) {
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  PaSolverConfig cfg;
  cfg.mode = mode;
  cfg.seed = 31;
  PaSolver solver(eng, cfg);
  solver.set_partition(p);
  const auto& st = solver.structures();
  const auto& l = st.labels;

  EXPECT_EQ(st.labels_stats.messages,
            static_cast<std::uint64_t>(g.num_arcs()));  // 2m
  EXPECT_EQ(st.labels_stats.rounds, 2u);  // the send round, then the read
  sim::PhaseStats sum = st.tree_stats;
  sum += st.division_stats;
  sum += st.labels_stats;
  sum += st.shortcut_stats;
  EXPECT_EQ(eng.messages(), sum.messages);
  EXPECT_EQ(eng.rounds(), sum.rounds);

  EXPECT_EQ(l.n, g.n());
  EXPECT_EQ(l.num_parts, p.num_parts);
  ASSERT_EQ(l.part.size(), static_cast<std::size_t>(g.num_arcs()));
  ASSERT_EQ(l.subpart.size(), static_cast<std::size_t>(g.num_arcs()));
  ASSERT_EQ(l.cross_offset.size(), static_cast<std::size_t>(g.n() + 1));
  int crossing = 0;
  for (int v = 0; v < g.n(); ++v) {
    std::vector<int> want_cross;
    for (int port = 0; port < g.degree(v); ++port) {
      const int a = g.arc_id(v, port);
      const int to = g.arcs(v)[port].to;
      EXPECT_EQ(l.part[a], p.part_of[to]) << "arc " << a;
      EXPECT_EQ(l.subpart[a], st.div.subpart_of[to]) << "arc " << a;
      if (p.part_of[to] == p.part_of[v] &&
          st.div.subpart_of[to] != st.div.subpart_of[v])
        want_cross.push_back(port);
    }
    const auto got = l.cross_ports(v);
    EXPECT_EQ(std::vector<int>(got.begin(), got.end()), want_cross)
        << "node " << v;
    crossing += static_cast<int>(want_cross.size());
  }
  EXPECT_EQ(static_cast<int>(l.cross_port.size()), crossing);

  const auto before = l.part;
  const auto before_cross = l.cross_port;
  solver.aggregate(agg::sum(), std::vector<std::uint64_t>(g.n(), 1));
  EXPECT_EQ(solver.structures().labels.part, before);
  EXPECT_EQ(solver.structures().labels.cross_port, before_cross);
}

TEST(PaSolverTest, AnnouncesOncePerPartition) {
  Rng rng(57);
  const Graph gnm = graph::gen::random_connected(200, 600, rng);
  const Graph grid = graph::gen::grid(9, 14);
  for (const Graph* g : {&gnm, &grid}) {
    std::vector<Partition> parts{graph::singleton_partition(*g),
                                 graph::random_bfs_partition(*g, 12, rng),
                                 graph::whole_partition(*g)};
    for (const auto& p : parts)
      for (const PaMode mode : {PaMode::Randomized, PaMode::Deterministic})
        expect_labels_announced_once(*g, p, mode);
  }
}

// The G(n, m) instance golden_test pins: in Randomized mode its first
// set_partition freezes parts at guesses 1, 2 and 4.
Graph resume_gnm() {
  Rng rng(303);
  return graph::gen::random_connected(400, 1200, rng);
}
Partition resume_gnm_partition(const Graph& g) {
  Rng rng(404);
  Partition p = graph::random_bfs_partition(g, 20, rng);
  p.elect_min_id_leaders();
  return p;
}

// Merges each part with at most one adjacent part (a greedy matching over
// part adjacency), so every merged part stays connected.
Partition coarsen_pairs(const Graph& g, const Partition& p) {
  std::vector<int> mate(p.num_parts, -1);
  for (int v = 0; v < g.n(); ++v)
    for (const auto& arc : g.arcs(v)) {
      const int a = p.part_of[v], b = p.part_of[arc.to];
      if (a == b || mate[a] != -1 || mate[b] != -1) continue;
      mate[a] = b;
      mate[b] = a;
    }
  std::vector<int> labels(g.n());
  for (int v = 0; v < g.n(); ++v) {
    const int a = p.part_of[v];
    labels[v] = mate[a] == -1 ? a : std::min(a, mate[a]);
  }
  Partition q = Partition::from_labels(std::move(labels));
  q.elect_min_id_leaders();
  graph::validate_partition(g, q);
  return q;
}

void expect_aggregate_matches_fold(PaSolver& solver, const Partition& p) {
  std::vector<std::uint64_t> values(p.part_of.size());
  for (std::size_t v = 0; v < values.size(); ++v) values[v] = (v * 37) % 1001;
  for (const Agg& agg : {agg::min(), agg::sum()}) {
    const auto res = solver.aggregate(agg, values);
    EXPECT_EQ(res.part_value, reference_pa(p, agg, values));
  }
}

TEST(PaSolverResume, FirstPartitionStartsAtGuessOne) {
  const Graph g = resume_gnm();
  sim::Engine eng(g);
  PaSolverConfig cfg;
  cfg.seed = 17;
  PaSolver solver(eng, cfg);
  solver.set_partition(resume_gnm_partition(g));
  const auto& f = solver.structures().frozen_at_guess;
  EXPECT_EQ(*std::min_element(f.begin(), f.end()), 1);
  EXPECT_GE(solver.structures().final_guess, 4);
}

// A later partition resumes the doubling at half the previous final guess:
// no part freezes below it, and the shortcut and aggregates stay correct.
TEST(PaSolverResume, LaterPartitionResumesAtHalfTheFinalGuess) {
  const Graph g = resume_gnm();
  const Partition p = resume_gnm_partition(g);
  const Partition coarse = coarsen_pairs(g, p);
  ASSERT_LT(coarse.num_parts, p.num_parts);
  for (const Partition* next : {&p, &coarse}) {
    sim::Engine eng(g);
    PaSolverConfig cfg;
    cfg.seed = 17;
    PaSolver solver(eng, cfg);
    solver.set_partition(p);
    const int resume = solver.structures().final_guess / 2;
    ASSERT_GE(resume, 2);
    solver.set_partition(*next);
    const auto& st = solver.structures();
    for (int i = 0; i < next->num_parts; ++i)
      EXPECT_GE(st.frozen_at_guess[i], resume) << "part " << i;
    EXPECT_GE(st.final_guess, resume);
    shortcut::validate_shortcut(g, st.t, *next, st.sc);
    expect_aggregate_matches_fold(solver, *next);
  }
}

// max(1, ·) floors the resume: a solver whose last partition stopped at
// guess 1 (the grid instance) or built no shortcut (NoShortcut, final guess
// 0) starts again at 1.
TEST(PaSolverResume, SmallFinalGuessResumesAtOne) {
  const Graph g = graph::gen::grid(24, 20);
  Rng rng(303);
  Partition p = graph::random_bfs_partition(g, 40, rng);
  p.elect_min_id_leaders();
  for (const PaStrategy strategy : {PaStrategy::Ours, PaStrategy::NoShortcut}) {
    sim::Engine eng(g);
    PaSolverConfig cfg;
    cfg.strategy = strategy;
    cfg.seed = 17;
    PaSolver solver(eng, cfg);
    solver.set_partition(p);
    const int want = strategy == PaStrategy::Ours ? 1 : 0;
    ASSERT_EQ(solver.structures().final_guess, want);
    solver.set_partition(p);
    const auto& st = solver.structures();
    EXPECT_EQ(st.final_guess, want);
    for (int i = 0; i < p.num_parts; ++i)
      EXPECT_EQ(st.frozen_at_guess[i], want) << "part " << i;
    expect_aggregate_matches_fold(solver, p);
  }
}

}  // namespace
}  // namespace pw::core
