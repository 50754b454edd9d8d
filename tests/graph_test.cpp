#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>

#include "src/graph/dsu.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/properties.hpp"

namespace pw::graph {
namespace {

TEST(Graph, CsrStructure) {
  Graph g = Graph::from_edges(4, {{0, 1, 5}, {1, 2, 7}, {2, 3, 9}, {0, 3, 2}});
  EXPECT_EQ(g.n(), 4);
  EXPECT_EQ(g.m(), 4);
  EXPECT_EQ(g.degree(0), 2);
  EXPECT_EQ(g.degree(1), 2);
  // Mirror arcs point back.
  for (int v = 0; v < g.n(); ++v) {
    const auto arcs = g.arcs(v);
    for (int k = 0; k < static_cast<int>(arcs.size()); ++k) {
      const int a = g.arc_id(v, k);
      const int ma = g.mirror(a);
      EXPECT_EQ(g.mirror(ma), a);
      EXPECT_EQ(g.arc_owner(ma), arcs[k].to);
      EXPECT_EQ(g.arc(ma).to, v);
      EXPECT_EQ(g.arc(ma).edge, arcs[k].edge);
    }
  }
}

TEST(Graph, PortOfArcInvertsArcId) {
  Rng rng(11);
  Graph g = gen::random_connected(40, 120, rng);
  for (int v = 0; v < g.n(); ++v)
    for (int k = 0; k < g.degree(v); ++k) {
      const int a = g.arc_id(v, k);
      // port_of_arc is the inverse of arc_id on the arc's owner.
      EXPECT_EQ(g.port_of_arc(a), k);
      EXPECT_EQ(g.arc_id(g.arc_owner(a), g.port_of_arc(a)), a);
      // The simulator's use: a mirror arc names the receiver's port.
      const int ma = g.mirror(a);
      EXPECT_EQ(g.arcs(g.arc_owner(ma))[g.port_of_arc(ma)].to, v);
    }
}

TEST(Graph, PortLookup) {
  Graph g = gen::cycle(5);
  for (const auto& e : g.edges()) {
    const int p = g.port_to(e.u, e.v);
    ASSERT_GE(p, 0);
    EXPECT_EQ(g.arcs(e.u)[p].to, e.v);
  }
  EXPECT_EQ(g.port_to(0, 2), -1);
}

TEST(Generators, SizesAndConnectivity) {
  Rng rng(42);
  struct Case {
    Graph g;
    int n, m;
  };
  std::vector<Case> cases;
  cases.push_back({gen::path(10), 10, 9});
  cases.push_back({gen::cycle(10), 10, 10});
  cases.push_back({gen::complete(6), 6, 15});
  cases.push_back({gen::star(7), 7, 6});
  cases.push_back({gen::grid(4, 5), 20, 31});
  cases.push_back({gen::torus(4, 5), 20, 40});
  cases.push_back({gen::hypercube(4), 16, 32});
  cases.push_back({gen::balanced_tree(15, 2), 15, 14});
  cases.push_back({gen::random_tree(33, rng), 33, 32});
  cases.push_back({gen::caterpillar(5, 3), 20, 19});
  cases.push_back({gen::random_connected(50, 120, rng), 50, 120});
  cases.push_back({gen::apex_grid(4, 6), 25, 4 * 5 + 3 * 6 + 6});
  cases.push_back({gen::lollipop(5, 4), 9, 14});
  cases.push_back({gen::broom(4, 5), 9, 8});
  for (const auto& c : cases) {
    EXPECT_EQ(c.g.n(), c.n);
    EXPECT_EQ(c.g.m(), c.m);
    EXPECT_TRUE(is_connected(c.g));
  }
}

TEST(Generators, KTreeHasExpectedEdgeCount) {
  Rng rng(7);
  const int n = 40, k = 3;
  Graph g = gen::k_tree(n, k, rng);
  // (k+1)-clique then k edges per added node.
  EXPECT_EQ(g.m(), k * (k + 1) / 2 + (n - k - 1) * k);
  EXPECT_TRUE(is_connected(g));
}

TEST(Generators, RandomWeights) {
  Rng rng(3);
  Graph g = gen::with_random_weights(gen::grid(5, 5), 100, rng);
  for (const auto& e : g.edges()) {
    EXPECT_GE(e.w, 1);
    EXPECT_LE(e.w, 100);
  }
}

TEST(Properties, DiameterMatchesKnownValues) {
  EXPECT_EQ(diameter_exact(gen::path(10)), 9);
  EXPECT_EQ(diameter_exact(gen::cycle(10)), 5);
  EXPECT_EQ(diameter_exact(gen::complete(8)), 1);
  EXPECT_EQ(diameter_exact(gen::grid(4, 7)), 3 + 6);
  EXPECT_EQ(diameter_exact(gen::star(9)), 2);
  EXPECT_EQ(diameter_exact(gen::hypercube(5)), 5);
}

TEST(Properties, DoubleSweepExactOnTrees) {
  Rng rng(11);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::random_tree(60, rng);
    EXPECT_EQ(diameter_estimate(g), diameter_exact(g));
  }
}

TEST(Properties, DoubleSweepLowerBoundsDiameter) {
  Rng rng(12);
  for (int trial = 0; trial < 10; ++trial) {
    Graph g = gen::random_connected(80, 160, rng);
    EXPECT_LE(diameter_estimate(g), diameter_exact(g));
    EXPECT_GE(2 * diameter_estimate(g), diameter_exact(g));
  }
}

TEST(Properties, DijkstraAgreesWithBfsOnUnitWeights) {
  Rng rng(13);
  Graph g = gen::random_connected(60, 150, rng);
  const auto bfs = bfs_distances(g, 0);
  const auto dij = dijkstra(g, 0);
  for (int v = 0; v < g.n(); ++v) EXPECT_EQ(dij[v], bfs[v]);
}

TEST(Dsu, UnionCount) {
  Dsu d(5);
  EXPECT_EQ(d.components(), 5);
  EXPECT_TRUE(d.unite(0, 1));
  EXPECT_FALSE(d.unite(1, 0));
  EXPECT_TRUE(d.unite(2, 3));
  EXPECT_TRUE(d.unite(0, 3));
  EXPECT_EQ(d.components(), 2);
  EXPECT_EQ(d.component_size(1), 4);
  EXPECT_TRUE(d.same(0, 2));
  EXPECT_FALSE(d.same(0, 4));
}

TEST(Partition, FromLabelsRenumbers) {
  Partition p = Partition::from_labels({5, 5, 9, 5, 2});
  EXPECT_EQ(p.num_parts, 3);
  EXPECT_EQ(p.part_of[0], p.part_of[1]);
  EXPECT_EQ(p.part_of[0], p.part_of[3]);
  EXPECT_NE(p.part_of[0], p.part_of[2]);
  EXPECT_NE(p.part_of[2], p.part_of[4]);
}

TEST(Partition, GridRowsValid) {
  Graph g = gen::grid(6, 9);
  Partition p = grid_row_partition(6, 9);
  validate_partition(g, p);
  EXPECT_EQ(p.num_parts, 6);
}

TEST(Partition, ApexGridMatchesPaperFigure2a) {
  const int depth = 5, width = 8;
  Graph g = gen::apex_grid(depth, width);
  Partition p = apex_grid_row_partition(depth, width);
  validate_partition(g, p);
  EXPECT_EQ(p.num_parts, depth + 1);
  // The apex neighbors exactly the top row.
  EXPECT_EQ(g.degree(0), width);
}

TEST(Partition, RandomBfsPartsAreConnected) {
  Rng rng(21);
  for (int trial = 0; trial < 5; ++trial) {
    Graph g = gen::random_connected(100, 220, rng);
    Partition p = random_bfs_partition(g, 12, rng);
    validate_partition(g, p);
    EXPECT_EQ(p.num_parts, 12);
  }
}

TEST(Partition, BallPartitionRespectsConnectivity) {
  Rng rng(22);
  Graph g = gen::grid(10, 10);
  Partition p = ball_partition(g, 3, rng);
  validate_partition(g, p);
  EXPECT_GE(p.num_parts, 2);
}

TEST(Partition, MinIdLeaders) {
  Partition p = Partition::from_labels({0, 0, 1, 1, 0});
  p.elect_min_id_leaders();
  EXPECT_EQ(p.leader[p.part_of[0]], 0);
  EXPECT_EQ(p.leader[p.part_of[2]], 2);
}

TEST(PartitionDeathTest, DisconnectedPartAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Graph g = gen::path(4);  // 0-1-2-3
  Partition p = Partition::from_labels({0, 1, 1, 0});  // part 0 = {0,3}: not connected
  EXPECT_DEATH(validate_partition(g, p), "not connected");
}

TEST(GraphDeathTest, ArcCountOverflowAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // The limit itself is accepted; one edge more would need 2m > INT_MAX.
  Graph::check_edge_count(0);
  Graph::check_edge_count(Graph::kMaxEdges);
  EXPECT_GT(2 * (Graph::kMaxEdges + 1),
            static_cast<std::size_t>(std::numeric_limits<int>::max()));
  EXPECT_DEATH(Graph::check_edge_count(Graph::kMaxEdges + 1),
               "graph too large: 1073741824 edges");
}

}  // namespace
}  // namespace pw::graph
