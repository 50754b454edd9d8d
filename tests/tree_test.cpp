#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/properties.hpp"
#include "src/tree/bfs.hpp"
#include "src/tree/heavypath.hpp"
#include "src/tree/leader.hpp"
#include "src/tree/treeops.hpp"

namespace pw::tree {
namespace {

using graph::Graph;

TEST(Bfs, DepthsMatchCentralizedBfs) {
  Rng rng(17);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = graph::gen::random_connected(120, 300, rng);
    sim::Engine eng(g);
    const auto f = build_bfs_tree(eng, 0);
    validate_forest(g, f);
    const auto ref = graph::bfs_distances(g, 0);
    for (int v = 0; v < g.n(); ++v) EXPECT_EQ(f.depth[v], ref[v]);
  }
}

TEST(Bfs, RoundAndMessageBounds) {
  Graph g = graph::gen::grid(12, 12);
  sim::Engine eng(g);
  const auto f = build_bfs_tree(eng, 0);
  const int ecc = graph::eccentricity(g, 0);
  EXPECT_EQ(f.height(), ecc);
  // O(ecc) rounds, <= 1 explore per arc + 1 child per node.
  EXPECT_LE(eng.rounds(), static_cast<std::uint64_t>(ecc + 3));
  EXPECT_LE(eng.messages(),
            static_cast<std::uint64_t>(g.num_arcs() + g.n()));
}

TEST(Bfs, ValidateForestRejectsOutOfRangeChildPort) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Graph g = graph::gen::path(3);
  SpanningForest f;
  f.parent = {-1, 0, 1};
  f.parent_port = {-1, 0, 0};
  f.depth = {0, 1, 2};
  f.children_ports = {{0}, {1}, {}};
  f.roots = {0};
  validate_forest(g, f);  // well formed
  f.children_ports[0] = {1};  // node 0 has degree 1
  EXPECT_DEATH(validate_forest(g, f), "cp >= 0 && cp < g.degree");
  f.children_ports[0] = {-1};
  EXPECT_DEATH(validate_forest(g, f), "cp >= 0 && cp < g.degree");
}

TEST(Bfs, RestrictedToPartition) {
  // 2x6 grid; restrict BFS to stay within rows.
  Graph g = graph::gen::grid(2, 6);
  const auto part = graph::grid_row_partition(2, 6);
  sim::Engine eng(g);
  const auto f = build_restricted_bfs(
      eng, {0, 6},
      [&](int v, int port) {
        return part.part_of[v] == part.part_of[g.arcs(v)[port].to];
      });
  validate_forest(g, f);
  for (int v = 0; v < g.n(); ++v) {
    EXPECT_GE(f.depth[v], 0);
    if (f.parent[v] >= 0) {
      EXPECT_EQ(part.part_of[v], part.part_of[f.parent[v]]);
    }
  }
}

TEST(Bfs, MaxDepthCutsOff) {
  Graph g = graph::gen::path(10);
  sim::Engine eng(g);
  const auto f = build_restricted_bfs(
      eng, {0}, [](int, int) { return true; }, 3);
  for (int v = 0; v < g.n(); ++v) {
    if (v <= 3)
      EXPECT_EQ(f.depth[v], v);
    else
      EXPECT_EQ(f.depth[v], -1);
  }
}

TEST(Leader, DeterministicPicksMinId) {
  Rng rng(23);
  Graph g = graph::gen::random_connected(80, 200, rng);
  sim::Engine eng(g);
  const auto r = elect_leader_det(eng);
  EXPECT_EQ(r.leader, 0);
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(r.believed_leader[v], 0);
}

// gen::path(n) is the adversarial id layout for the id-priority flood: node
// v hears the improvements v−1, …, 0 one round apart and forwards each, so
// the election pays n² − 1 messages (Θ(mn), not O(m log n)) in n + 1 rounds.
TEST(Leader, DeterministicPathCostsQuadratic) {
  for (const int n : {16, 64, 256}) {
    Graph g = graph::gen::path(n);
    sim::Engine eng(g);
    const auto r = elect_leader_det(eng);
    EXPECT_EQ(r.leader, 0);
    EXPECT_EQ(eng.rounds(), static_cast<std::uint64_t>(n + 1)) << "n=" << n;
    EXPECT_EQ(eng.messages(), static_cast<std::uint64_t>(n) * n - 1)
        << "n=" << n;
  }
}

TEST(Leader, RandomizedConvergesAndIsMessageEfficient) {
  Rng rng(29);
  Graph g = graph::gen::grid(15, 15);
  sim::Engine eng(g);
  const auto r = elect_leader_random(eng, rng);
  EXPECT_GE(r.leader, 0);
  // O(m log n) message budget with generous constant.
  const double budget = 4.0 * g.num_arcs() * (std::log2(g.n()) + 1);
  EXPECT_LE(static_cast<double>(eng.messages()), budget);
}

TEST(TreeOps, BroadcastReachesEveryone) {
  Rng rng(31);
  Graph g = graph::gen::random_connected(90, 180, rng);
  sim::Engine eng(g);
  const auto f = build_bfs_tree(eng, 5);
  std::vector<std::uint64_t> payload(g.n(), 0);
  payload[5] = 777;
  const auto got = forest_broadcast(eng, f, payload);
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(got[v], 777u);
}

TEST(TreeOps, ConvergecastComputesSubtreeAggregates) {
  Graph g = graph::gen::balanced_tree(15, 2);
  sim::Engine eng(g);
  const auto f = build_bfs_tree(eng, 0);
  std::vector<std::uint64_t> values(g.n());
  for (int v = 0; v < g.n(); ++v) values[v] = v;
  const auto sums = forest_convergecast(eng, f, agg::sum(), values);
  EXPECT_EQ(sums[0], static_cast<std::uint64_t>(15 * 14 / 2));
  // A leaf's subtree aggregate is its own value.
  EXPECT_EQ(sums[14], 14u);

  const auto mins = forest_convergecast(eng, f, agg::min(), values);
  EXPECT_EQ(mins[0], 0u);
  EXPECT_EQ(mins[1], 1u);  // subtree of node 1 holds {1,3,4,7,...}
}

TEST(TreeOps, MultiRootForestAggregatesPerTree) {
  // Two disjoint row-trees in a 2x5 grid.
  Graph g = graph::gen::grid(2, 5);
  const auto part = graph::grid_row_partition(2, 5);
  sim::Engine eng(g);
  const auto f = build_restricted_bfs(
      eng, {0, 5},
      [&](int v, int port) {
        return part.part_of[v] == part.part_of[g.arcs(v)[port].to];
      });
  const auto sizes = subtree_sizes(eng, f);
  EXPECT_EQ(sizes[0], 5u);
  EXPECT_EQ(sizes[5], 5u);

  std::vector<std::uint64_t> payload(g.n(), 0);
  payload[0] = 11;
  payload[5] = 22;
  const auto got = forest_broadcast(eng, f, payload);
  for (int v = 0; v < 5; ++v) EXPECT_EQ(got[v], 11u);
  for (int v = 5; v < 10; ++v) EXPECT_EQ(got[v], 22u);
}

TEST(TreeOps, MessageCountOnePerTreeEdgePerWave) {
  Graph g = graph::gen::path(50);
  sim::Engine eng(g);
  const auto f = build_bfs_tree(eng, 0);
  const auto before = eng.snap();
  std::vector<std::uint64_t> payload(g.n(), 1);
  forest_broadcast(eng, f, payload);
  EXPECT_EQ(eng.since(before).messages, 49u);
  const auto before2 = eng.snap();
  subtree_sizes(eng, f);
  EXPECT_EQ(eng.since(before2).messages, 49u);
}

TEST(HeavyPath, PathGraphDecomposesPerDefinition) {
  // Definition 6.5 is strict ("more than half"), so the deepest leaf — whose
  // subtree is exactly half of its parent's — hangs off by a light edge:
  // a 20-node path splits into a 19-node heavy path plus that leaf.
  Graph g = graph::gen::path(20);
  sim::Engine eng(g);
  const auto f = build_bfs_tree(eng, 0);
  const auto hp = heavy_path_decompose(eng, f);
  ASSERT_EQ(hp.paths.size(), 2u);
  const auto& long_path = hp.paths[hp.path_of[0]];
  EXPECT_EQ(static_cast<int>(long_path.size()), 19);
  // Source is the deepest node on the path, head is the root.
  EXPECT_EQ(long_path.front(), 18);
  EXPECT_EQ(long_path.back(), 0);
  EXPECT_EQ(hp.max_level, 1);
}

TEST(HeavyPath, StarIsOneHeavyPathPlusSingletons) {
  Graph g = graph::gen::star(10);
  sim::Engine eng(g);
  const auto f = build_bfs_tree(eng, 0);
  const auto hp = heavy_path_decompose(eng, f);
  // No leaf holds more than half of the hub's 10-node subtree, so the hub
  // has no heavy child: every node is a singleton path.
  EXPECT_EQ(hp.paths.size(), 10u);
  EXPECT_EQ(hp.max_level, 1);
}

TEST(HeavyPath, DefinitionHolds) {
  Rng rng(37);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = graph::gen::random_tree(100, rng);
    sim::Engine eng(g);
    const auto f = build_bfs_tree(eng, 0);
    const auto hp = heavy_path_decompose(eng, f);
    sim::Engine eng2(g);
    const auto size = subtree_sizes(eng2, f);
    for (int v = 0; v < g.n(); ++v) {
      if (hp.heavy_child_port[v] >= 0) {
        const int c = g.arcs(v)[hp.heavy_child_port[v]].to;
        EXPECT_GT(2 * size[c], size[v]);  // Definition 6.5
      } else {
        for (int cp : f.children_ports[v]) {
          const int c = g.arcs(v)[cp].to;
          EXPECT_LE(2 * size[c], size[v]);
        }
      }
    }
    // Root-to-leaf path property: <= log2(n) light edges.
    for (int v = 0; v < g.n(); ++v) {
      int crossings = 0;
      int cur = v;
      while (f.parent[cur] >= 0) {
        if (hp.head[cur] == cur) ++crossings;  // leaving a path upward
        cur = f.parent[cur];
      }
      EXPECT_LE(crossings, static_cast<int>(std::log2(g.n())) + 1);
    }
  }
}

TEST(HeavyPath, PathsPartitionNodes) {
  Rng rng(41);
  Graph g = graph::gen::random_tree(200, rng);
  sim::Engine eng(g);
  const auto f = build_bfs_tree(eng, 0);
  const auto hp = heavy_path_decompose(eng, f);
  std::vector<int> seen(g.n(), 0);
  for (const auto& path : hp.paths) {
    for (std::size_t i = 0; i < path.size(); ++i) {
      ++seen[path[i]];
      EXPECT_EQ(hp.pos_in_path[path[i]], static_cast<int>(i));
      // Consecutive path nodes are parent/child with the deeper node first.
      if (i + 1 < path.size()) {
        EXPECT_EQ(f.parent[path[i]], path[i + 1]);
      }
    }
  }
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(seen[v], 1) << v;
}

TEST(HeavyPath, LevelsRespectLightEdges) {
  Rng rng(43);
  Graph g = graph::gen::random_tree(150, rng);
  sim::Engine eng(g);
  const auto f = build_bfs_tree(eng, 0);
  const auto hp = heavy_path_decompose(eng, f);
  for (std::size_t p = 0; p < hp.paths.size(); ++p) {
    const int head = hp.paths[p].back();
    if (f.parent[head] < 0) continue;
    const int above = hp.path_of[f.parent[head]];
    EXPECT_GT(hp.level_of_path[above], hp.level_of_path[p]);
  }
}

}  // namespace
}  // namespace pw::tree
