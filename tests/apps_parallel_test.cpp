// Full-matrix policy invariance for every paper workload (DESIGN.md §7).
//
// The §7 contract promises that ExecutionPolicy is invisible above the
// accounting layer: results, delivery, and round/message totals are pure
// functions of (graph, algorithm, seed), never of the thread count. The
// engine suites pin that for raw round loops; this suite pins it END TO END
// for the algorithm stack — every Corollary 1.3–1.7 / Appendix-A workload
// runs at {1, 2, 4} threads and must reproduce the 1-thread run bit for bit: the full result vectors
// (weights, distances, labels, verdicts, dominator sets), not just hashes,
// plus the exact rounds() / messages() deltas.
//
// A failure here means a callback broke the shard-safety contract (wrote a
// slot it does not own, drew randomness inside a parallel sweep, depended on
// callback execution order) — see the §7 cookbook for the rules. The suite
// runs under ThreadSanitizer in CI, so a racy-but-lucky callback is caught
// even when its output happens to match.
#include <gtest/gtest.h>

#include <vector>

#include "bench/common.hpp"
#include "src/apps/domination.hpp"
#include "src/apps/mincut.hpp"
#include "src/apps/mst.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/verification.hpp"
#include "src/core/noleader.hpp"
#include "tests/policy_matrix.hpp"

namespace pw::bench {
namespace {

// Canonical capture of one run: the app result flattened to words, plus the
// engine accounting. Policy must not move any of it.
struct Capture {
  std::vector<std::uint64_t> result;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

template <class F>
void expect_policy_invariant(const char* what, F&& run) {
  const Capture ref = run(sim::kPolicies[0]);
  ASSERT_FALSE(ref.result.empty()) << what;
  ASSERT_GT(ref.messages, 0u) << what;
  for (const auto policy : sim::kPolicies) {
    if (policy.num_threads == 1) continue;
    const Capture got = run(policy);
    const auto label = std::string(what) + " " + sim::policy_name(policy);
    EXPECT_EQ(got.result, ref.result) << label;
    EXPECT_EQ(got.rounds, ref.rounds) << label;
    EXPECT_EQ(got.messages, ref.messages) << label;
  }
}

Instance small_instance() {
  Rng rng(43);
  return general_instance(160, rng);
}

TEST(AppsParallel, BoruvkaMstRandomized) {
  const auto inst = small_instance();
  expect_policy_invariant("mst", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    core::PaSolverConfig cfg;
    cfg.seed = 17;
    const auto res = apps::boruvka_mst(eng, cfg);
    Capture c;
    c.result.assign(res.in_mst.begin(), res.in_mst.end());
    c.result.push_back(static_cast<std::uint64_t>(res.total_weight));
    c.result.push_back(static_cast<std::uint64_t>(res.phases));
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

// Deterministic mode exercises the heavy-path / deterministic-division /
// deterministic-shortcut stack (Algorithms 6-8) under parallel dispatch.
TEST(AppsParallel, BoruvkaMstDeterministic) {
  const auto inst = small_instance();
  expect_policy_invariant("mst-det", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    core::PaSolverConfig cfg;
    cfg.mode = core::PaMode::Deterministic;
    const auto res = apps::boruvka_mst(eng, cfg);
    Capture c;
    c.result.assign(res.in_mst.begin(), res.in_mst.end());
    c.result.push_back(static_cast<std::uint64_t>(res.total_weight));
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

TEST(AppsParallel, GhsStyleMst) {
  const auto inst = small_instance();
  expect_policy_invariant("ghs", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    const auto res = apps::ghs_style_mst(eng);
    Capture c;
    c.result.assign(res.in_mst.begin(), res.in_mst.end());
    c.result.push_back(static_cast<std::uint64_t>(res.total_weight));
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

TEST(AppsParallel, ApproxSssp) {
  const auto inst = small_instance();
  expect_policy_invariant("sssp", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    core::PaSolverConfig cfg;
    cfg.seed = 17;
    const auto res = apps::approx_sssp(eng, 0, 0.5, cfg);
    Capture c;
    for (const auto d : res.dist)
      c.result.push_back(static_cast<std::uint64_t>(d));
    c.result.push_back(static_cast<std::uint64_t>(res.scales));
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

// The per-trial MST engines inside approx_min_cut inherit the outer policy
// (Engine::policy()), so this covers parallel inner engines spawned from an
// already-parallel outer context.
TEST(AppsParallel, ApproxMinCut) {
  Rng rng(44);
  const auto g = graph::gen::with_random_weights(
      graph::gen::random_connected(72, 216, rng), 8, rng);
  expect_policy_invariant("mincut", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(g, policy);
    core::PaSolverConfig cfg;
    cfg.seed = 17;
    const auto res = apps::approx_min_cut(eng, 1.0, cfg);
    Capture c;
    c.result.assign(res.side.begin(), res.side.end());
    c.result.push_back(static_cast<std::uint64_t>(res.cut_value));
    c.result.push_back(static_cast<std::uint64_t>(res.trials));
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

TEST(AppsParallel, VerifySpanningTreeAndBipartiteness) {
  const auto inst = small_instance();
  const auto tree_edges = apps::kruskal_mst_edges(inst.g);
  expect_policy_invariant("verify", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    core::PaSolverConfig cfg;
    cfg.seed = 17;
    const auto st = apps::verify_spanning_tree(eng, tree_edges, cfg);
    const auto bi = apps::verify_bipartiteness(eng, tree_edges, cfg);
    Capture c;
    c.result = {static_cast<std::uint64_t>(st.ok),
                static_cast<std::uint64_t>(bi.ok)};
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

TEST(AppsParallel, PaNoLeader) {
  const auto inst = small_instance();
  Rng vals_rng(7);
  std::vector<std::uint64_t> values(static_cast<std::size_t>(inst.g.n()));
  for (auto& x : values) x = vals_rng.next_below(1u << 20);
  expect_policy_invariant("noleader", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    core::PaSolverConfig cfg;
    cfg.seed = 17;
    core::PaSolver solver(eng, cfg);
    const auto res = core::pa_noleader(solver, inst.p, agg::min(), values);
    Capture c;
    c.result = res.node_value;
    c.result.insert(c.result.end(), res.part_value.begin(),
                    res.part_value.end());
    for (const int l : res.elected_leader)
      c.result.push_back(static_cast<std::uint64_t>(l));
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

TEST(AppsParallel, KDominatingSet) {
  const auto inst = small_instance();
  expect_policy_invariant("kdom", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    const auto res = apps::k_dominating_set(eng, 8);
    Capture c;
    for (const int v : res.dominators)
      c.result.push_back(static_cast<std::uint64_t>(v));
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

TEST(AppsParallel, ConnectedDominatingSet) {
  const auto inst = small_instance();
  expect_policy_invariant("cds", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    const auto res = apps::connected_dominating_set(eng, {});
    Capture c;
    c.result.assign(res.in_cds.begin(), res.in_cds.end());
    c.result.push_back(static_cast<std::uint64_t>(res.size));
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

// The Thurimella-extension aggregates (Corollary A.2 machinery).
TEST(AppsParallel, ComponentAggregates) {
  const auto inst = small_instance();
  Rng rng(9);
  std::vector<char> h(static_cast<std::size_t>(inst.g.m()), 0);
  for (auto& e : h) e = rng.next_bool(0.5) ? 1 : 0;
  std::vector<std::uint64_t> values(static_cast<std::size_t>(inst.g.n()));
  for (auto& x : values) x = rng.next_below(1u << 16);
  expect_policy_invariant("aggregates", [&](sim::ExecutionPolicy policy) {
    sim::Engine eng(inst.g, policy);
    const auto sums = apps::component_sum(eng, h, values, {});
    const auto topk = apps::component_topk(eng, h, values, 2, {});
    Capture c;
    c.result = sums;
    for (const auto& per_node : topk) {
      c.result.push_back(per_node.size());
      c.result.insert(c.result.end(), per_node.begin(), per_node.end());
    }
    c.rounds = eng.rounds();
    c.messages = eng.messages();
    return c;
  });
}

}  // namespace
}  // namespace pw::bench
