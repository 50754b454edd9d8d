// Unit tests for the shortcut representation, validators and the trivial
// existential construction (Definitions 2.1-2.3 made executable).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"
#include "src/shortcut/shortcut.hpp"
#include "src/shortcut/subpart.hpp"
#include "src/tree/bfs.hpp"

namespace pw::shortcut {
namespace {

using graph::Graph;
using graph::Partition;

struct TreeFixture {
  Graph g;
  sim::Engine eng;
  tree::SpanningForest t;

  explicit TreeFixture(Graph graph_in)
      : g(std::move(graph_in)), eng(g), t(tree::build_bfs_tree(eng, 0)) {}
};

TEST(Shortcut, EmptyHasNoCongestionNoBlocks) {
  TreeFixture f(graph::gen::grid(4, 8));
  Partition p = graph::grid_row_partition(4, 8);
  const auto s = Shortcut::empty(f.g.n());
  EXPECT_EQ(congestion(s), 0);
  const auto blocks = blocks_per_part(f.g, f.t, p, s);
  for (int b : blocks) EXPECT_EQ(b, 0);
  EXPECT_EQ(block_parameter(f.g, f.t, p, s), 1);
  validate_shortcut(f.g, f.t, p, s);
}

TEST(Shortcut, HandBuiltBlocksCountedExactly) {
  // Path 0-1-...-9 rooted at 0: parent edge of node v is (v -> v-1).
  TreeFixture f(graph::gen::path(10));
  Partition p = graph::whole_partition(f.g);
  auto s = Shortcut::empty(10);
  // Two disjoint segments for part 0: edges above 3,4 and above 8.
  s.parts_on[3] = {0};
  s.parts_on[4] = {0};
  s.parts_on[8] = {0};
  annotate_block_roots(f.g, f.t, s);
  const auto blocks = blocks_per_part(f.g, f.t, p, s);
  EXPECT_EQ(blocks[0], 2);
  EXPECT_EQ(block_parameter(f.g, f.t, p, s), 2);
  EXPECT_EQ(congestion(s), 1);
  // Block roots: segment {3,4} climbs to node 2 (depth 2); segment {8} to
  // node 7 (depth 7).
  EXPECT_EQ(s.block_root_depth_on[3][0], 2);
  EXPECT_EQ(s.block_root_depth_on[4][0], 2);
  EXPECT_EQ(s.block_root_depth_on[8][0], 7);
  validate_shortcut(f.g, f.t, p, s);
}

TEST(Shortcut, SharedVertexMergesBlocks) {
  TreeFixture f(graph::gen::path(10));
  Partition p = graph::whole_partition(f.g);
  auto s = Shortcut::empty(10);
  s.parts_on[3] = {0};
  s.parts_on[4] = {0};
  s.parts_on[5] = {0};  // contiguous with the others through shared nodes
  annotate_block_roots(f.g, f.t, s);
  EXPECT_EQ(blocks_per_part(f.g, f.t, p, s)[0], 1);
}

TEST(Shortcut, CongestionCountsPerEdgeParts) {
  TreeFixture f(graph::gen::path(6));
  Partition p = Partition::from_labels({0, 0, 1, 1, 2, 2});
  auto s = Shortcut::empty(6);
  s.parts_on[3] = {0, 1, 2};
  s.parts_on[4] = {1};
  annotate_block_roots(f.g, f.t, s);
  EXPECT_EQ(congestion(s), 3);
  EXPECT_TRUE(s.edge_in_part(3, 1));
  EXPECT_FALSE(s.edge_in_part(4, 0));
}

TEST(Shortcut, TrivialConstructionRespectsThreshold) {
  Rng rng(31);
  TreeFixture f(graph::gen::random_connected(120, 300, rng));
  Partition p = graph::random_bfs_partition(f.g, 10, rng);
  std::vector<int> sizes(p.num_parts, 0);
  for (int v = 0; v < f.g.n(); ++v) ++sizes[p.part_of[v]];

  for (int threshold : {0, 5, 20, 200}) {
    const auto s = trivial_whole_tree_shortcut(f.g, f.t, p, threshold);
    validate_shortcut(f.g, f.t, p, s);
    int big_parts = 0;
    for (int x : sizes) big_parts += x > threshold ? 1 : 0;
    EXPECT_EQ(congestion(s), f.g.n() > 1 ? big_parts : 0);
    const auto blocks = blocks_per_part(f.g, f.t, p, s);
    for (int i = 0; i < p.num_parts; ++i) {
      if (sizes[i] > threshold) {
        EXPECT_EQ(blocks[i], 1) << "whole tree = one block";
      } else {
        EXPECT_EQ(blocks[i], 0);
      }
    }
  }
}

TEST(Shortcut, AnnotationMatchesRecomputation) {
  Rng rng(32);
  TreeFixture f(graph::gen::random_connected(100, 260, rng));
  Partition p = graph::random_bfs_partition(f.g, 8, rng);
  auto s = trivial_whole_tree_shortcut(f.g, f.t, p, 10);
  // Corrupt then re-annotate: must be restored exactly.
  auto corrupted = s;
  for (auto& d : corrupted.block_root_depth_on)
    for (auto& x : d) x = -999;
  annotate_block_roots(f.g, f.t, corrupted);
  EXPECT_EQ(corrupted.block_root_depth_on, s.block_root_depth_on);
}

// Reference for adopt_parts: the per-part freeze loop the constructions ran
// before it existed — one scan over all nodes per newly frozen part, with a
// sorted insert wherever the candidate holds the part.
void adopt_parts_reference(Shortcut& into, const Shortcut& candidate,
                           const std::vector<char>& newly_frozen) {
  for (int i = 0; i < static_cast<int>(newly_frozen.size()); ++i) {
    if (!newly_frozen[i]) continue;
    for (int v = 0; v < candidate.n(); ++v) {
      if (!candidate.edge_in_part(v, i)) continue;
      auto& parts = into.parts_on[v];
      parts.insert(std::upper_bound(parts.begin(), parts.end(), i), i);
    }
  }
}

// A random T-restricted shortcut over the parts whose `allowed` flag is set:
// each non-root tree edge carries each allowed part with probability `density`.
Shortcut random_shortcut(const tree::SpanningForest& t,
                         const std::vector<char>& allowed, double density,
                         Rng& rng) {
  const int n = static_cast<int>(t.parent.size());
  auto s = Shortcut::empty(n);
  for (int v = 0; v < n; ++v) {
    if (t.parent[v] < 0) continue;
    for (int i = 0; i < static_cast<int>(allowed.size()); ++i)
      if (allowed[i] && rng.next_bool(density)) s.parts_on[v].push_back(i);
  }
  return s;
}

// A seeded G(n, m) with its BFS tree and 12-16 parts. The private
// constructor lets one Rng feed both the graph and the partition.
struct AdoptFixture : TreeFixture {
  Partition p;
  explicit AdoptFixture(std::uint64_t seed) : AdoptFixture(seed, Rng(seed)) {}

 private:
  AdoptFixture(std::uint64_t seed, Rng rng)
      : TreeFixture(graph::gen::random_connected(90, 240, rng)),
        p(graph::random_bfs_partition(g, 12 + static_cast<int>(seed % 5),
                                      rng)) {}
};

// Runs adopt_parts and the reference on copies of `into` and checks the
// results match exactly and form a valid shortcut (before and after
// re-annotation).
Shortcut expect_adopt_matches_reference(const AdoptFixture& f,
                                        const Shortcut& into,
                                        const Shortcut& candidate,
                                        const std::vector<char>& newly_frozen) {
  auto got = into;
  adopt_parts(got, candidate, newly_frozen);
  auto want = into;
  adopt_parts_reference(want, candidate, newly_frozen);
  EXPECT_EQ(got.parts_on, want.parts_on);
  validate_shortcut(f.g, f.t, f.p, got);
  annotate_block_roots(f.g, f.t, got);
  validate_shortcut(f.g, f.t, f.p, got);
  return got;
}

TEST(AdoptParts, MatchesPerPartLoopOnRandomShortcuts) {
  for (std::uint64_t seed = 40; seed < 52; ++seed) {
    AdoptFixture f(seed);
    Rng rng(seed * 7 + 1);
    // Earlier parts already sit in `into`; the rest may freeze now.
    std::vector<char> earlier(f.p.num_parts), later(f.p.num_parts);
    std::vector<char> newly_frozen(f.p.num_parts, 0);
    for (int i = 0; i < f.p.num_parts; ++i) {
      earlier[i] = rng.next_bool(0.4);
      later[i] = !earlier[i];
      newly_frozen[i] = later[i] && rng.next_bool(0.6);
    }
    auto into = random_shortcut(f.t, earlier, 0.3, rng);
    annotate_block_roots(f.g, f.t, into);
    const auto candidate = random_shortcut(f.t, later, 0.3, rng);
    ASSERT_GT(congestion(candidate), 1) << seed;
    const auto got =
        expect_adopt_matches_reference(f, into, candidate, newly_frozen);
    // Exactly the newly frozen parts were added, nothing else moved.
    for (int v = 0; v < f.g.n(); ++v)
      for (int i = 0; i < f.p.num_parts; ++i)
        EXPECT_EQ(got.edge_in_part(v, i),
                  into.edge_in_part(v, i) ||
                      (newly_frozen[i] && candidate.edge_in_part(v, i)))
            << "seed " << seed << " node " << v << " part " << i;
  }
}

TEST(AdoptParts, NoPartNewlyFrozenLeavesShortcutUntouched) {
  AdoptFixture f(60);
  Rng rng(61);
  std::vector<char> half(f.p.num_parts);
  for (int i = 0; i < f.p.num_parts; ++i) half[i] = i % 2;
  auto into = random_shortcut(f.t, half, 0.4, rng);
  annotate_block_roots(f.g, f.t, into);
  const auto candidate =
      random_shortcut(f.t, std::vector<char>(f.p.num_parts, 1), 0.4, rng);
  const auto got = expect_adopt_matches_reference(
      f, into, candidate, std::vector<char>(f.p.num_parts, 0));
  EXPECT_EQ(got.parts_on, into.parts_on);
  EXPECT_EQ(got.block_root_depth_on, into.block_root_depth_on);
}

TEST(AdoptParts, AllPartsNewlyFrozenCopiesTheCandidate) {
  AdoptFixture f(62);
  Rng rng(63);
  const std::vector<char> all(f.p.num_parts, 1);
  const auto candidate = random_shortcut(f.t, all, 0.35, rng);
  ASSERT_GT(congestion(candidate), 1);
  const auto got = expect_adopt_matches_reference(
      f, Shortcut::empty(f.g.n()), candidate, all);
  EXPECT_EQ(got.parts_on, candidate.parts_on);
}

TEST(AdoptParts, NodesWithoutClaimsKeepTheirLists) {
  AdoptFixture f(64);
  Rng rng(65);
  std::vector<char> earlier(f.p.num_parts, 0), later(f.p.num_parts, 0);
  for (int i = 0; i < f.p.num_parts; ++i) (i < 4 ? earlier : later)[i] = 1;
  auto into = random_shortcut(f.t, earlier, 0.5, rng);
  annotate_block_roots(f.g, f.t, into);
  // The candidate claims only the parent edges of even nodes.
  auto candidate = random_shortcut(f.t, later, 0.5, rng);
  for (int v = 1; v < f.g.n(); v += 2) candidate.parts_on[v].clear();
  const auto got = expect_adopt_matches_reference(f, into, candidate, later);
  int untouched = 0;
  for (int v = 1; v < f.g.n(); v += 2) {
    EXPECT_EQ(got.parts_on[v], into.parts_on[v]) << v;
    untouched += into.parts_on[v].empty() ? 0 : 1;
  }
  EXPECT_GT(untouched, 0);  // the odd nodes did hold earlier parts
  // Lists adopt_parts did not grow keep their annotation.
  auto raw = into;
  adopt_parts(raw, candidate, later);
  for (int v = 1; v < f.g.n(); v += 2)
    EXPECT_EQ(raw.block_root_depth_on[v], into.block_root_depth_on[v]) << v;
}

TEST(ShortcutDeathTest, AdoptingAnAlreadyPresentPartRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  TreeFixture f(graph::gen::path(4));
  auto into = Shortcut::empty(4);
  into.parts_on[2] = {0};
  auto candidate = Shortcut::empty(4);
  candidate.parts_on[2] = {0};
  EXPECT_DEATH(adopt_parts(into, candidate, {1}), "adjacent_find");
}

TEST(ShortcutDeathTest, RootParentEdgeClaimRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  TreeFixture f(graph::gen::path(4));
  Partition p = graph::whole_partition(f.g);
  auto s = Shortcut::empty(4);
  s.parts_on[0] = {0};  // node 0 is the root of T: it has no parent edge
  EXPECT_DEATH(validate_shortcut(f.g, f.t, p, s), "root");
}

TEST(ShortcutDeathTest, UnsortedPartsRejected) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  TreeFixture f(graph::gen::path(4));
  Partition p = Partition::from_labels({0, 0, 1, 1});
  auto s = Shortcut::empty(4);
  s.parts_on[2] = {1, 0};
  EXPECT_DEATH(validate_shortcut(f.g, f.t, p, s), "is_sorted");
}

TEST(SubpartValidator, RejectsCrossPartSubpart) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Graph g = graph::gen::path(4);
  Partition p = Partition::from_labels({0, 0, 1, 1});
  p.elect_min_id_leaders();
  SubPartDivision d;
  d.num_subparts = 1;
  d.subpart_of = {0, 0, 0, 0};  // spans both parts: invalid
  d.rep_of_subpart = {0};
  d.forest.parent = {-1, 0, 1, 2};
  d.forest.parent_port = {-1, 0, 0, 0};
  d.forest.depth = {0, 1, 2, 3};
  d.forest.children_ports = {{0}, {1}, {1}, {}};
  d.forest.roots = {0};
  // The forest itself is well formed; the cross-part check must fire.
  EXPECT_DEATH(validate_subpart_division(g, p, d, 10),
               "p.part_of\\[v\\] == p.part_of\\[d.rep_of_subpart");
}

TEST(SubpartRandom, DensityMatchesDefinition41) {
  Rng rng(33);
  // Large single part on a path: with diameter bound d, expect ~ (n/d) log n
  // sub-parts.
  Graph g = graph::gen::path(400);
  Partition p = graph::whole_partition(g);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  const int d = 20;
  const auto div = build_subpart_division_random(eng, p, d, rng);
  validate_subpart_division(g, p, div, d);
  const double expected = 400.0 / d * std::log(400.0);
  EXPECT_LE(div.num_subparts, 3 * expected + 10);
  EXPECT_GE(div.num_subparts, 400 / d / 4);
}

TEST(SubpartRandom, SmallPartsGetExactlyOneSubpart) {
  Rng rng(34);
  Graph g = graph::gen::grid(8, 4);  // rows of 4 nodes
  Partition p = graph::grid_row_partition(8, 4);
  p.elect_min_id_leaders();
  sim::Engine eng(g);
  const auto div = build_subpart_division_random(eng, p, /*diameter=*/10, rng);
  const auto per_part = subparts_per_part(p, div);
  for (int i = 0; i < p.num_parts; ++i) EXPECT_EQ(per_part[i], 1) << i;
  // And the representative is the leader (Algorithm 3 line 3).
  for (int i = 0; i < p.num_parts; ++i)
    EXPECT_EQ(div.representative(p.leader[i]), p.leader[i]);
}

}  // namespace
}  // namespace pw::shortcut
