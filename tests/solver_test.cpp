#include <gtest/gtest.h>

#include <algorithm>

#include "src/core/solver.hpp"
#include "src/tree/bfs.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"
#include "tests/policy_matrix.hpp"
#include "tests/trace_recorder.hpp"

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

// Every part queued at a node counts against the cap as soon as it is
// queued, not only once it is forwarded: on G(n, m) many parts reach a node
// in the same round, before its first forward.
void expect_claims_within_cap(const Graph& g, Partition p,
                              std::uint64_t seed) {
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  Rng rng(seed);
  const auto t = tree::build_bfs_tree(eng, 0);
  const auto div = shortcut::build_subpart_division_random(
      eng, p, std::max(1, t.height()), rng);
  std::vector<char> all(p.num_parts, 1);
  for (int cap : {1, 2, 4}) {
    const auto sc = corefast_claim(eng, p, div, t, all, cap);
    EXPECT_LE(shortcut::congestion(sc), cap)
        << p.num_parts << " parts, cap " << cap;
    shortcut::validate_shortcut(g, t, p, sc);
  }
}

TEST(CoreFast, ClaimRespectsCongestionCap) {
  expect_claims_within_cap(graph::gen::grid(8, 25),
                           graph::grid_row_partition(8, 25), 51);
  Rng rng(53);
  const Graph g = graph::gen::random_connected(1024, 3072, rng);
  for (int k : {256, 64})
    expect_claims_within_cap(g, graph::random_bfs_partition(g, k, rng), 51);
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

// A later partition resumes the doubling at the previous final guess: no
// part freezes below it, and the shortcut and aggregates stay correct.
TEST(PaSolverResume, LaterPartitionResumesAtTheFinalGuess) {
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
    const int resume = solver.structures().final_guess;
    ASSERT_GE(resume, 4);
    solver.set_partition(*next);
    const auto& st = solver.structures();
    for (int i = 0; i < next->num_parts; ++i)
      EXPECT_GE(st.frozen_at_guess[i], resume) << "part " << i;
    EXPECT_GE(st.final_guess, resume);
    shortcut::validate_shortcut(g, st.t, *next, st.sc);
    expect_aggregate_matches_fold(solver, *next);
  }
}

// The start guess gets one claim → verify → freeze attempt, in which every
// part claims: a part freezes there exactly when that claim gives it at most
// 3·κ blocks. Every other part moves on to 2κ, even one that a second,
// thinner attempt at κ would have frozen. Pinned on a solver's first
// partition (start 1) and on one resumed at 2 after a finer partition.
TEST(PaSolverResume, StartGuessGetsOneAttempt) {
  const Graph g = resume_gnm();
  const Partition p = resume_gnm_partition(g);
  Rng rng(484);
  Partition fine = graph::random_bfs_partition(g, 80, rng);
  fine.elect_min_id_leaders();
  for (const bool resumed : {false, true}) {
    sim::Engine eng(g);
    PaSolverConfig cfg;
    cfg.seed = 17;
    PaSolver solver(eng, cfg);
    if (resumed) solver.set_partition(fine);
    const int start = std::max(1, solver.structures().final_guess);
    ASSERT_EQ(start, resumed ? 2 : 1);
    solver.set_partition(p);
    const auto& st = solver.structures();
    const std::vector<char> all(p.num_parts, 1);
    const auto first = corefast_claim(eng, p, st.div, st.t, all, start);
    const auto blocks = shortcut::blocks_per_part(g, st.t, p, first);
    int moved_on = 0;
    for (int i = 0; i < p.num_parts; ++i) {
      const bool fits = blocks[i] <= 3 * start;
      EXPECT_EQ(st.frozen_at_guess[i] == start, fits)
          << "start " << start << ", part " << i;
      moved_on += !fits;
    }
    EXPECT_GT(moved_on, 0) << "start " << start
                           << ": every part froze in the first attempt";
  }
}

// A singleton partition restarts the doubling at 1 whatever the partition
// before it stopped at: every part is one node and freezes there.
TEST(PaSolverResume, SingletonPartitionRestartsAtOne) {
  const Graph g = resume_gnm();
  sim::Engine eng(g);
  PaSolverConfig cfg;
  cfg.seed = 17;
  PaSolver solver(eng, cfg);
  solver.set_partition(resume_gnm_partition(g));
  ASSERT_GE(solver.structures().final_guess, 4);
  std::vector<int> own(g.n());
  for (int v = 0; v < g.n(); ++v) own[v] = v;
  Partition singletons = Partition::from_labels(std::move(own));
  singletons.elect_min_id_leaders();
  solver.set_partition(singletons);
  const auto& st = solver.structures();
  EXPECT_EQ(st.final_guess, 1);
  for (int i = 0; i < singletons.num_parts; ++i)
    EXPECT_EQ(st.frozen_at_guess[i], 1) << "part " << i;
  expect_aggregate_matches_fold(solver, singletons);
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

// --- Recorded wave trees -----------------------------------------------------
//
// set_partition keeps the wave tree each part's freezing verification built,
// and aggregate gathers and scatters on it without waving again. Each case
// runs at every thread count of the policy matrix; the library's rounds run
// inside its own callbacks, so the recorder pins per-query counts, values
// and the recorded trees as notes and compares them with the sequential run.

template <class T>
void fnv_mix(std::uint64_t& h, const std::vector<T>& xs) {
  h = (h ^ xs.size()) * 1099511628211ULL;
  for (const T& x : xs)
    h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ULL;
}

std::uint64_t trees_hash(const WaveTrees& tr) {
  std::uint64_t h = 1469598103934665603ULL;
  fnv_mix(h, tr.recorded);
  fnv_mix(h, tr.offset);
  fnv_mix(h, tr.part);
  fnv_mix(h, tr.parent_port);
  fnv_mix(h, tr.child_end);
  fnv_mix(h, tr.child_port);
  return h;
}

std::uint64_t values_hash(const std::vector<std::uint64_t>& xs) {
  std::uint64_t h = 1469598103934665603ULL;
  fnv_mix(h, xs);
  return h;
}

bool all_recorded(const WaveTrees& tr) {
  return std::all_of(tr.recorded.begin(), tr.recorded.end(),
                     [](char r) { return r != 0; });
}

// Every recorded tree spans its part and is a tree over real channels: each
// member holds an entry; each entry but the leader's names a parent port
// whose far end holds an entry of the same part listing the mirror port as
// a child; the child lists hold exactly the tree edges. A node's entries
// are its own part's plus parts whose Hi contains a T edge at the node.
void expect_trees_span(const Graph& g, const Partition& p,
                       const PaStructures& st) {
  const WaveTrees& tr = st.trees;
  ASSERT_EQ(tr.num_nodes(), g.n());
  ASSERT_EQ(tr.num_parts(), p.num_parts);
  std::size_t non_root = 0;
  for (int v = 0; v < g.n(); ++v) {
    if (tr.recorded[p.part_of[v]]) {
      EXPECT_GE(tr.find(v, p.part_of[v]), 0) << "member " << v;
    }
    std::vector<int> touching = st.sc.parts_on[v];
    for (int cp : st.t.children_ports[v]) {
      const auto& on = st.sc.parts_on[g.arcs(v)[cp].to];
      touching.insert(touching.end(), on.begin(), on.end());
    }
    for (int k = tr.offset[v]; k < tr.offset[v + 1]; ++k) {
      const int part = tr.part[k];
      EXPECT_TRUE(tr.recorded[part]) << "node " << v << " part " << part;
      if (part != p.part_of[v]) {
        EXPECT_NE(std::find(touching.begin(), touching.end(), part),
                  touching.end())
            << "Steiner node " << v << " of part " << part;
      }
      if (tr.parent_port[k] < 0) {
        EXPECT_EQ(v, p.leader[part]) << "root of part " << part;
        continue;
      }
      ++non_root;
      const int u = g.arcs(v)[tr.parent_port[k]].to;
      const int port_at_u =
          g.mirror(g.arc_id(v, tr.parent_port[k])) - g.arc_id(u, 0);
      const int ku = tr.find(u, part);
      ASSERT_GE(ku, 0) << "parent " << u << " of " << v;
      const auto kids = tr.children(ku);
      EXPECT_NE(std::find(kids.begin(), kids.end(), port_at_u), kids.end())
          << "edge " << u << " -> " << v << " of part " << part;
    }
  }
  EXPECT_EQ(non_root, tr.edges());
}

struct TreeCase {
  const char* name;
  Graph g;
  Partition p;
};

std::vector<TreeCase> tree_cases() {
  std::vector<TreeCase> out;
  out.push_back(
      {"grid", graph::gen::grid(8, 20), graph::grid_row_partition(8, 20)});
  Rng rng(58);
  Graph gnm = graph::gen::random_connected(240, 720, rng);
  Partition p = graph::random_bfs_partition(gnm, 14, rng);
  out.push_back({"gnm", std::move(gnm), std::move(p)});
  for (auto& c : out) c.p.elect_min_id_leaders();
  return out;
}

std::vector<std::uint64_t> test_values(int n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint64_t> values(n);
  for (auto& x : values) x = rng.next_below(1u << 20);
  return values;
}

// Runs `body` at every policy of the matrix and expects each run's notes to
// equal the sequential run's.
template <class Body>
void expect_same_notes_at_every_policy(const std::string& what, int n,
                                       Body&& body) {
  std::vector<sim::TraceRecorder> runs;
  for (const auto policy : sim::kPolicies) {
    sim::TraceRecorder trace(n);
    body(policy, trace);
    runs.push_back(std::move(trace));
  }
  ASSERT_FALSE(runs[0].notes().empty()) << what;
  for (std::size_t i = 1; i < runs.size(); ++i)
    EXPECT_TRUE(sim::SameTrace(
        runs[0], runs[i], what + " " + sim::policy_name(sim::kPolicies[i])));
}

// After set_partition every part has a tree, and a query sends exactly one
// gather and one scatter message per tree edge. Its values equal those of a
// fresh pa_given wave on the same structures (which sends more: its wave).
TEST(PaSolverTrees, QueryIsGatherPlusScatterOnRecordedTrees) {
  for (const auto& c : tree_cases()) {
    for (const PaMode mode : {PaMode::Randomized, PaMode::Deterministic}) {
      const std::string what = std::string(c.name) +
                               (mode == PaMode::Randomized ? " rand" : " det");
      expect_same_notes_at_every_policy(
          what, c.g.n(),
          [&](sim::ExecutionPolicy policy, sim::TraceRecorder& trace) {
            sim::Engine eng(c.g, policy);
            PaSolverConfig cfg;
            cfg.mode = mode;
            cfg.seed = 61;
            PaSolver solver(eng, cfg);
            solver.set_partition(c.p);
            const auto& st = solver.structures();
            ASSERT_TRUE(all_recorded(st.trees)) << what;
            expect_trees_span(c.g, c.p, st);
            trace.note("tree_edges", st.trees.edges());
            trace.note("trees", trees_hash(st.trees));

            const auto values = test_values(c.g.n(), 62);
            for (const Agg& agg : {agg::min(), agg::sum()}) {
              const auto before = trees_hash(st.trees);
              const auto snap = eng.snap();
              const auto res = solver.aggregate(agg, values);
              const auto stats = eng.since(snap);
              EXPECT_EQ(stats.messages, 2 * st.trees.edges()) << what;
              EXPECT_EQ(res.stats.messages, stats.messages) << what;
              EXPECT_EQ(res.stats.rounds, stats.rounds) << what;
              EXPECT_EQ(trees_hash(st.trees), before) << what;
              EXPECT_EQ(res.part_value, reference_pa(c.p, agg, values)) << what;

              PaGivenConfig pc;
              pc.mode = mode;
              pc.delay_range = std::max(1, shortcut::congestion(st.sc));
              pc.seed = 63;
              const auto fresh = pa_given(eng, solver.partition(), st.div,
                                          st.labels, st.sc, st.t, agg, values,
                                          pc);
              EXPECT_TRUE(fresh.all_covered()) << what;
              EXPECT_GT(fresh.wave_stats.messages, 0u) << what;
              EXPECT_EQ(res.part_value, fresh.part_value) << what;
              EXPECT_EQ(res.node_value, fresh.node_value) << what;
              trace.note("query_rounds", stats.rounds);
              trace.note("query_messages", stats.messages);
              trace.note("node_values", values_hash(res.node_value));
            }
            trace.note_totals(eng);
          });
    }
  }
}

// Under NoShortcut no verification runs, so set_partition records nothing.
// The first query waves every part and records; the second sends only
// gather plus scatter on those trees, with the same values.
TEST(PaSolverTrees, NoShortcutRecordsOnTheFirstQuery) {
  for (const auto& c : tree_cases()) {
    expect_same_notes_at_every_policy(
        c.name, c.g.n(),
        [&](sim::ExecutionPolicy policy, sim::TraceRecorder& trace) {
          sim::Engine eng(c.g, policy);
          PaSolverConfig cfg;
          cfg.strategy = PaStrategy::NoShortcut;
          cfg.seed = 64;
          PaSolver solver(eng, cfg);
          solver.set_partition(c.p);
          const auto& st = solver.structures();
          EXPECT_EQ(st.trees.num_parts(), c.p.num_parts);
          EXPECT_TRUE(std::none_of(st.trees.recorded.begin(),
                                   st.trees.recorded.end(),
                                   [](char r) { return r != 0; }));
          EXPECT_EQ(st.trees.edges(), 0u);

          const auto values = test_values(c.g.n(), 65);
          auto snap = eng.snap();
          const auto first = solver.aggregate(agg::sum(), values);
          const auto first_stats = eng.since(snap);
          ASSERT_TRUE(all_recorded(st.trees)) << c.name;
          expect_trees_span(c.g, c.p, st);
          EXPECT_GT(first_stats.messages, 2 * st.trees.edges()) << c.name;

          snap = eng.snap();
          const auto second = solver.aggregate(agg::sum(), values);
          const auto second_stats = eng.since(snap);
          EXPECT_EQ(second_stats.messages, 2 * st.trees.edges()) << c.name;
          EXPECT_LT(second_stats.rounds, first_stats.rounds) << c.name;
          EXPECT_EQ(second.part_value, first.part_value) << c.name;
          EXPECT_EQ(second.node_value, first.node_value) << c.name;
          EXPECT_EQ(first.part_value, reference_pa(c.p, agg::sum(), values));
          trace.note("first_rounds", first_stats.rounds);
          trace.note("first_messages", first_stats.messages);
          trace.note("second_rounds", second_stats.rounds);
          trace.note("second_messages", second_stats.messages);
          trace.note("trees", trees_hash(st.trees));
          trace.note("node_values", values_hash(second.node_value));
          trace.note_totals(eng);
        });
  }
}

// A second set_partition drops the trees of the first: under Ours the new
// partition's verifications record fresh trees for the new parts; under
// NoShortcut nothing is recorded until the next query.
TEST(PaSolverTrees, SetPartitionDropsTheOldTrees) {
  const Graph g = resume_gnm();
  const Partition p = resume_gnm_partition(g);
  const Partition coarse = coarsen_pairs(g, p);
  ASSERT_LT(coarse.num_parts, p.num_parts);
  for (const PaStrategy strategy : {PaStrategy::Ours, PaStrategy::NoShortcut}) {
    const std::string what =
        strategy == PaStrategy::Ours ? "ours" : "no-shortcut";
    expect_same_notes_at_every_policy(
        what, g.n(),
        [&](sim::ExecutionPolicy policy, sim::TraceRecorder& trace) {
          sim::Engine eng(g, policy);
          PaSolverConfig cfg;
          cfg.strategy = strategy;
          cfg.seed = 66;
          PaSolver solver(eng, cfg);
          const auto values = test_values(g.n(), 67);
          solver.set_partition(p);
          solver.aggregate(agg::min(), values);
          ASSERT_TRUE(all_recorded(solver.structures().trees)) << what;
          trace.note("first_trees", trees_hash(solver.structures().trees));

          solver.set_partition(coarse);
          const auto& st = solver.structures();
          EXPECT_EQ(st.trees.num_parts(), coarse.num_parts) << what;
          if (strategy == PaStrategy::NoShortcut) {
            EXPECT_EQ(st.trees.edges(), 0u) << what;
            EXPECT_TRUE(std::none_of(st.trees.recorded.begin(),
                                     st.trees.recorded.end(),
                                     [](char r) { return r != 0; }));
          } else {
            EXPECT_TRUE(all_recorded(st.trees)) << what;
            expect_trees_span(g, coarse, st);
          }
          const auto res = solver.aggregate(agg::min(), values);
          EXPECT_EQ(res.part_value, reference_pa(coarse, agg::min(), values));
          expect_trees_span(g, coarse, st);
          trace.note("second_trees", trees_hash(st.trees));
          trace.note("node_values", values_hash(res.node_value));
          trace.note_totals(eng);
        });
  }
}

// A wrong-size values vector is rejected before any traffic, naming both
// sizes.
TEST(PaSolverTrees, AggregateRejectsValuesOfWrongSize) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const Graph g = graph::gen::grid(4, 6);
  Partition p = graph::grid_row_partition(4, 6);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  PaSolver solver(eng, {});
  solver.set_partition(p);
  EXPECT_DEATH(solver.aggregate(agg::sum(), std::vector<std::uint64_t>(23, 1)),
               "PaSolver::aggregate: 23 values for a graph of 24 nodes");
  EXPECT_DEATH(solver.aggregate(agg::sum(), {}),
               "PaSolver::aggregate: 0 values for a graph of 24 nodes");
}

}  // namespace
}  // namespace pw::core
