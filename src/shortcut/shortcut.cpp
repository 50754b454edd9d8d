#include "src/shortcut/shortcut.hpp"

#include <algorithm>
#include <unordered_map>

namespace pw::shortcut {

bool Shortcut::edge_in_part(int child, int part) const {
  const auto& list = parts_on[child];
  return std::binary_search(list.begin(), list.end(), part);
}

int congestion(const Shortcut& s) {
  std::size_t c = 0;
  for (const auto& list : s.parts_on) c = std::max(c, list.size());
  return static_cast<int>(c);
}

namespace {

// Walks the blocks of every part. For each (child-edge, part) entry, finds
// the block's topmost node by climbing parent edges that stay in the part's
// Hi. Runs in O(total entries * depth) worst case but memoizes per part.
struct BlockWalker {
  const graph::Graph& g;
  const tree::SpanningForest& t;
  const Shortcut& s;

  // For part `part`, the topmost node above `child` reachable through Hi
  // edges (starting with child's own parent edge, which must be in Hi).
  int block_root(int child, int part) const {
    int cur = child;
    while (s.edge_in_part(cur, part)) {
      cur = t.parent[cur];
      PW_CHECK(cur >= 0);
    }
    return cur;
  }
};

}  // namespace

std::vector<int> blocks_per_part(const graph::Graph& g,
                                 const tree::SpanningForest& t,
                                 const graph::Partition& p, const Shortcut& s) {
  PW_CHECK(s.n() == g.n());
  BlockWalker walker{g, t, s};
  // A block is uniquely identified by (part, block root). Count distinct
  // roots per part.
  std::vector<std::unordered_map<int, char>> roots(p.num_parts);
  for (int v = 0; v < g.n(); ++v)
    for (int part : s.parts_on[v]) {
      PW_CHECK(part >= 0 && part < p.num_parts);
      roots[part][walker.block_root(v, part)] = 1;
    }
  std::vector<int> blocks(p.num_parts, 0);
  for (int i = 0; i < p.num_parts; ++i)
    blocks[i] = static_cast<int>(roots[i].size());
  return blocks;
}

int block_parameter(const graph::Graph& g, const tree::SpanningForest& t,
                    const graph::Partition& p, const Shortcut& s) {
  int b = 1;
  for (int x : blocks_per_part(g, t, p, s)) b = std::max(b, std::max(x, 1));
  return b;
}

void annotate_block_roots(const graph::Graph& g, const tree::SpanningForest& t,
                          Shortcut& s) {
  BlockWalker walker{g, t, s};
  s.block_root_depth_on.assign(g.n(), {});
  for (int v = 0; v < g.n(); ++v) {
    s.block_root_depth_on[v].reserve(s.parts_on[v].size());
    for (int part : s.parts_on[v])
      s.block_root_depth_on[v].push_back(t.depth[walker.block_root(v, part)]);
  }
}

void adopt_parts(Shortcut& into, const Shortcut& candidate,
                 const std::vector<char>& newly_frozen) {
  PW_CHECK(into.n() == candidate.n());
  const int num_parts = static_cast<int>(newly_frozen.size());
  for (int v = 0; v < candidate.n(); ++v) {
    auto& parts = into.parts_on[v];
    const auto old_size = static_cast<std::ptrdiff_t>(parts.size());
    for (int part : candidate.parts_on[v]) {
      PW_CHECK(part >= 0 && part < num_parts);
      if (newly_frozen[part]) parts.push_back(part);
    }
    if (static_cast<std::ptrdiff_t>(parts.size()) == old_size) continue;
    // Both runs are sorted (the appended one because candidate lists are).
    const auto mid = parts.begin() + old_size;
    std::inplace_merge(parts.begin(), mid, parts.end());
    PW_CHECK(std::adjacent_find(parts.begin(), parts.end()) == parts.end());
    if (!into.block_root_depth_on.empty()) into.block_root_depth_on[v].clear();
  }
}

void validate_shortcut(const graph::Graph& g, const tree::SpanningForest& t,
                       const graph::Partition& p, const Shortcut& s) {
  PW_CHECK(s.n() == g.n());
  BlockWalker walker{g, t, s};
  for (int v = 0; v < g.n(); ++v) {
    const auto& list = s.parts_on[v];
    PW_CHECK(std::is_sorted(list.begin(), list.end()));
    PW_CHECK(std::adjacent_find(list.begin(), list.end()) == list.end());
    if (!list.empty())
      PW_CHECK_MSG(t.parent[v] >= 0,
                   "shortcut claims the (nonexistent) parent edge of root %d", v);
    for (int part : list)
      PW_CHECK(part >= 0 && part < p.num_parts);
    if (!s.block_root_depth_on.empty() && !s.block_root_depth_on[v].empty()) {
      PW_CHECK(s.block_root_depth_on[v].size() == list.size());
      for (std::size_t k = 0; k < list.size(); ++k)
        PW_CHECK(s.block_root_depth_on[v][k] ==
                 t.depth[walker.block_root(v, list[k])]);
    }
  }
}

Shortcut trivial_whole_tree_shortcut(const graph::Graph& g,
                                     const tree::SpanningForest& t,
                                     const graph::Partition& p,
                                     int size_threshold) {
  std::vector<int> part_size(p.num_parts, 0);
  for (int v = 0; v < g.n(); ++v) ++part_size[p.part_of[v]];

  std::vector<int> big_parts;
  for (int i = 0; i < p.num_parts; ++i)
    if (part_size[i] > size_threshold) big_parts.push_back(i);

  Shortcut s = Shortcut::empty(g.n());
  for (int v = 0; v < g.n(); ++v)
    if (t.parent[v] >= 0) s.parts_on[v] = big_parts;  // already sorted
  annotate_block_roots(g, t, s);
  return s;
}

}  // namespace pw::shortcut
