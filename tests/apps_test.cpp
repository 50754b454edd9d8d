#include <gtest/gtest.h>

#include <cmath>

#include "src/apps/domination.hpp"
#include "src/apps/mincut.hpp"
#include "src/apps/sssp.hpp"
#include "src/apps/verification.hpp"
#include "src/graph/dsu.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"

namespace pw::apps {
namespace {

using graph::Graph;

// --- Verification (Corollary A.1) -------------------------------------------

TEST(Verification, ComponentLabelsMatchDsu) {
  Rng rng(101);
  Graph g = graph::gen::random_connected(100, 260, rng);
  // Random subgraph H.
  std::vector<char> h(g.m(), 0);
  for (int e = 0; e < g.m(); ++e) h[e] = rng.next_bool(0.4);

  sim::Engine eng(g);
  core::PaSolver solver(eng);
  const auto res = h_component_labels(solver, h);

  graph::Dsu dsu(g.n());
  for (int e = 0; e < g.m(); ++e)
    if (h[e]) dsu.unite(g.edge(e).u, g.edge(e).v);
  for (int u = 0; u < g.n(); ++u)
    for (int v = 0; v < g.n(); ++v)
      EXPECT_EQ(res.label[u] == res.label[v], dsu.same(u, v));
  // Labels are the min id of the component.
  for (int v = 0; v < g.n(); ++v) EXPECT_LE(res.label[v], v);
}

TEST(Verification, SpanningTreeAcceptsTrueTree) {
  Rng rng(102);
  Graph g = graph::gen::random_connected(80, 200, rng);
  // Use a BFS tree of g as H.
  const auto dist = graph::bfs_distances(g, 0);
  std::vector<char> h(g.m(), 0);
  std::vector<char> has_parent(g.n(), 0);
  for (int e = 0; e < g.m(); ++e) {
    const auto& ed = g.edge(e);
    int child = -1;
    if (dist[ed.u] == dist[ed.v] + 1) child = ed.u;
    if (dist[ed.v] == dist[ed.u] + 1) child = ed.v;
    if (child >= 0 && !has_parent[child]) {
      has_parent[child] = 1;
      h[e] = 1;
    }
  }
  sim::Engine eng(g);
  EXPECT_TRUE(verify_spanning_tree(eng, h, {}).ok);

  // Remove one tree edge: no longer spanning.
  for (int e = 0; e < g.m(); ++e)
    if (h[e]) {
      h[e] = 0;
      break;
    }
  sim::Engine eng2(g);
  EXPECT_FALSE(verify_spanning_tree(eng2, h, {}).ok);
}

TEST(Verification, SpanningTreeRejectsCycleOfRightSize) {
  Graph g = graph::gen::cycle(12);
  std::vector<char> h(g.m(), 1);
  h[0] = 0;  // 11 edges on 12 nodes: a path -> a real spanning tree
  sim::Engine eng(g);
  EXPECT_TRUE(verify_spanning_tree(eng, h, {}).ok);
  h[0] = 1;
  h[5] = 0;
  h[7] = 0;  // 10 edges: disconnected
  sim::Engine eng2(g);
  EXPECT_FALSE(verify_spanning_tree(eng2, h, {}).ok);
}

TEST(Verification, CutDetection) {
  // Two cliques joined by a bridge: the bridge is a cut.
  Graph left = graph::gen::complete(6);
  Graph right = graph::gen::complete(6);
  std::vector<graph::Edge> edges = left.edges();
  for (const auto& e : right.edges()) edges.push_back({e.u + 6, e.v + 6, 1});
  edges.push_back({0, 6, 1});
  Graph g = Graph::from_edges(12, edges);

  std::vector<char> h(g.m(), 0);
  h[g.m() - 1] = 1;  // the bridge
  sim::Engine eng(g);
  EXPECT_TRUE(verify_cut(eng, h, {}).ok);

  std::vector<char> not_cut(g.m(), 0);
  not_cut[0] = 1;  // an intra-clique edge
  sim::Engine eng2(g);
  EXPECT_FALSE(verify_cut(eng2, not_cut, {}).ok);
}

TEST(Verification, STConnectivity) {
  Graph g = graph::gen::path(10);
  std::vector<char> h(g.m(), 1);
  h[4] = 0;  // split between nodes 4 and 5
  sim::Engine eng(g);
  EXPECT_TRUE(verify_s_t_connectivity(eng, h, 0, 4, {}).ok);
  sim::Engine eng2(g);
  EXPECT_FALSE(verify_s_t_connectivity(eng2, h, 0, 9, {}).ok);
}

// Out-of-range inputs at the app boundary abort with a clear message before
// they can index past a per-node vector.
TEST(AppsDeathTest, OutOfRangeInputsAbortWithAMessage) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const Graph g = graph::gen::path(8);
  const std::vector<char> h(g.m(), 1);
  const std::vector<std::uint64_t> values(g.n(), 1);
  auto s_t = [&](int s, int t) {
    sim::Engine eng(g);
    verify_s_t_connectivity(eng, h, s, t, {});
  };
  EXPECT_DEATH(s_t(-1, 3), "s=-1, t=3 not in");
  EXPECT_DEATH(s_t(0, 8), "s=0, t=8 not in");
  EXPECT_DEATH(
      {
        sim::Engine eng(g);
        approx_sssp(eng, 8, 0.5, {});
      },
      "source=8 not in");
  EXPECT_DEATH(
      {
        sim::Engine eng(g);
        component_topk(eng, h, std::vector<std::uint64_t>(3, 1), 1, {});
      },
      "3 values for 8 nodes, howmany=1");
  EXPECT_DEATH(
      {
        sim::Engine eng(g);
        component_topk(eng, h, values, -1, {});
      },
      "8 values for 8 nodes, howmany=-1");
}

// --- Domination (Corollaries A.2, A.3) ---------------------------------------

TEST(KDom, CoversWithinKAndSmall) {
  Rng rng(103);
  for (int k : {6, 12, 30}) {
    Graph g = graph::gen::grid(10, 30);
    sim::Engine eng(g);
    const auto res = k_dominating_set(eng, k);
    validate_k_domination(g, res.dominators, k);
    EXPECT_LE(static_cast<int>(res.dominators.size()), 6 * g.n() / k + 1)
        << "k=" << k;
  }
}

TEST(KDom, LargeKGivesFewDominators) {
  Graph g = graph::gen::path(120);
  sim::Engine eng(g);
  const auto res = k_dominating_set(eng, 60);
  validate_k_domination(g, res.dominators, 60);
  EXPECT_LE(static_cast<int>(res.dominators.size()), 13);
}

TEST(Cds, ValidOnRandomGraphs) {
  Rng rng(104);
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = graph::gen::random_connected(90, 220, rng);
    sim::Engine eng(g);
    const auto res = connected_dominating_set(eng, {});
    validate_cds(g, res.in_cds);
    // The greedy reference is also valid.
    const auto ref = greedy_cds_reference(g);
    validate_cds(g, ref);
  }
}

TEST(Cds, ComponentAggregatesMatchReference) {
  Rng rng(105);
  Graph g = graph::gen::random_connected(80, 180, rng);
  std::vector<char> h(g.m(), 0);
  for (int e = 0; e < g.m(); ++e) h[e] = rng.next_bool(0.5);
  std::vector<std::uint64_t> values(g.n());
  for (auto& x : values) x = rng.next_below(5000);

  sim::Engine eng(g);
  const auto sums = component_sum(eng, h, values, {});
  graph::Dsu dsu(g.n());
  for (int e = 0; e < g.m(); ++e)
    if (h[e]) dsu.unite(g.edge(e).u, g.edge(e).v);
  std::vector<std::uint64_t> ref(g.n(), 0);
  for (int v = 0; v < g.n(); ++v) ref[dsu.find(v)] += values[v];
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(sums[v], ref[dsu.find(v)]);

  sim::Engine eng2(g);
  const auto top2 = component_topk(eng2, h, values, 2, {});
  for (int v = 0; v < g.n(); ++v) {
    // Top-1 is the component max.
    std::uint64_t best = 0;
    for (int u = 0; u < g.n(); ++u)
      if (dsu.same(u, v)) best = std::max(best, values[u]);
    ASSERT_FALSE(top2[v].empty());
    EXPECT_EQ(agg::pair_key(top2[v][0]), best);
    if (top2[v].size() > 1) {
      EXPECT_LE(agg::pair_key(top2[v][1]), agg::pair_key(top2[v][0]));
    }
  }
}

// --- Min-cut (Corollary 1.4) --------------------------------------------------

TEST(MinCut, StoerWagnerKnownValues) {
  // A cycle has min cut 2.
  EXPECT_EQ(stoer_wagner_min_cut(graph::gen::cycle(9)), 2);
  // Two triangles joined by one edge: min cut 1.
  Graph g = Graph::from_edges(
      6, {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}, {3, 4, 1}, {4, 5, 1}, {3, 5, 1}, {2, 3, 1}});
  EXPECT_EQ(stoer_wagner_min_cut(g), 1);
  // Complete graph K5: min cut 4.
  EXPECT_EQ(stoer_wagner_min_cut(graph::gen::complete(5)), 4);
}

TEST(MinCut, ApproxFindsPlantedCut) {
  Rng rng(106);
  // Two dense clusters connected by 2 light edges: planted min cut = 2.
  std::vector<graph::Edge> edges;
  const int half = 14;
  for (int u = 0; u < half; ++u)
    for (int v = u + 1; v < half; ++v)
      if (rng.next_bool(0.6)) {
        edges.push_back({u, v, 4});
        edges.push_back({u + half, v + half, 4});
      }
  edges.push_back({0, half, 1});
  edges.push_back({1, half + 1, 1});
  Graph g = Graph::from_edges(2 * half, edges);
  const auto exact = stoer_wagner_min_cut(g);
  ASSERT_EQ(exact, 2);

  sim::Engine eng(g);
  core::PaSolverConfig cfg;
  cfg.seed = 1234;
  const auto res = approx_min_cut(eng, 0.5, cfg);
  EXPECT_EQ(cut_weight(g, res.side), res.cut_value);
  EXPECT_LE(res.cut_value, static_cast<std::int64_t>((1 + 0.5) * exact));
  // The side must be a nontrivial vertex split.
  int inside = 0;
  for (char c : res.side) inside += c;
  EXPECT_GT(inside, 0);
  EXPECT_LT(inside, g.n());
}

TEST(MinCut, ApproxWithinFactorOnRandomGraphs) {
  Rng rng(107);
  for (int trial = 0; trial < 2; ++trial) {
    Graph g = graph::gen::with_random_weights(
        graph::gen::random_connected(36, 90, rng), 8, rng);
    const auto exact = stoer_wagner_min_cut(g);
    sim::Engine eng(g);
    core::PaSolverConfig cfg;
    cfg.seed = 5000 + trial;
    const auto res = approx_min_cut(eng, 0.34, cfg);
    EXPECT_GE(res.cut_value, exact);  // any cut upper-bounds the minimum
    EXPECT_LE(static_cast<double>(res.cut_value), 1.5 * exact);
  }
}

// --- SSSP (Corollary 1.5) ------------------------------------------------------

TEST(Sssp, UpperBoundsExactDistances) {
  Rng rng(108);
  for (int trial = 0; trial < 3; ++trial) {
    Graph g = graph::gen::with_random_weights(
        graph::gen::random_connected(100, 250, rng), 40, rng);
    sim::Engine eng(g);
    const auto res = approx_sssp(eng, 0, 0.25, {});
    const auto exact = graph::dijkstra(g, 0);
    for (int v = 0; v < g.n(); ++v) {
      EXPECT_GE(res.dist[v], exact[v]) << v;  // never underestimates
      EXPECT_LT(res.dist[v], (1LL << 62));    // everything reached
    }
  }
}

TEST(Sssp, SmallerBetaTightensStretch) {
  Rng rng(109);
  Graph g = graph::gen::with_random_weights(graph::gen::grid(12, 12), 20, rng);
  const auto exact = graph::dijkstra(g, 0);

  auto stretch_at = [&](double beta) {
    sim::Engine eng(g);
    const auto res = approx_sssp(eng, 0, beta, {});
    return measure_stretch(exact, res.dist);
  };
  const auto coarse = stretch_at(0.5);
  const auto fine = stretch_at(0.1);
  EXPECT_LE(fine.mean_stretch, coarse.mean_stretch + 1e-9);
  EXPECT_GE(coarse.max_stretch, 1.0);
}

TEST(Sssp, UnitWeightsNearExactWithSmallBeta) {
  Rng rng(110);
  Graph g = graph::gen::random_connected(120, 300, rng);
  sim::Engine eng(g);
  const auto res = approx_sssp(eng, 5, 0.1, {});
  const auto exact = graph::dijkstra(g, 5);
  const auto s = measure_stretch(exact, res.dist);
  EXPECT_LE(s.max_stretch, 4.0);
}

}  // namespace
}  // namespace pw::apps
