#include "src/graph/graph.hpp"

#include <algorithm>
#include <unordered_set>

namespace pw::graph {

void Graph::check_edge_count(std::size_t m) {
  PW_CHECK_MSG(m <= kMaxEdges,
               "graph too large: %zu edges, but its 2m arcs need int ids "
               "(at most %zu edges)",
               m, kMaxEdges);
}

Graph Graph::from_edges(int n, std::vector<Edge> edges) {
  PW_CHECK(n >= 0);
  check_edge_count(edges.size());
  Graph g;
  g.n_ = n;

  // Normalize and validate.
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(edges.size() * 2);
  for (auto& e : edges) {
    PW_CHECK_MSG(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n,
                 "edge endpoint out of range (n=%d u=%d v=%d)", n, e.u, e.v);
    PW_CHECK_MSG(e.u != e.v, "self-loop at node %d", e.u);
    if (e.u > e.v) std::swap(e.u, e.v);
    const std::uint64_t key =
        (static_cast<std::uint64_t>(e.u) << 32) | static_cast<std::uint32_t>(e.v);
    PW_CHECK_MSG(seen.insert(key).second, "parallel edge (%d,%d)", e.u, e.v);
  }
  g.edges_ = std::move(edges);

  // Degree counting and CSR fill.
  g.adj_off_.assign(n + 1, 0);
  for (const auto& e : g.edges_) {
    ++g.adj_off_[e.u + 1];
    ++g.adj_off_[e.v + 1];
  }
  for (int v = 0; v < n; ++v) g.adj_off_[v + 1] += g.adj_off_[v];

  const int num_arcs = 2 * static_cast<int>(g.edges_.size());
  g.arcs_.resize(num_arcs);
  g.mirror_.resize(num_arcs);
  g.arc_owner_.resize(num_arcs);
  std::vector<int> cursor(g.adj_off_.begin(), g.adj_off_.end() - 1);
  for (int e = 0; e < static_cast<int>(g.edges_.size()); ++e) {
    const auto& edge = g.edges_[e];
    const int a_uv = cursor[edge.u]++;
    const int a_vu = cursor[edge.v]++;
    g.arcs_[a_uv] = Arc{edge.v, e};
    g.arcs_[a_vu] = Arc{edge.u, e};
    g.mirror_[a_uv] = a_vu;
    g.mirror_[a_vu] = a_uv;
    g.arc_owner_[a_uv] = edge.u;
    g.arc_owner_[a_vu] = edge.v;
  }
  return g;
}

int Graph::port_to(int u, int v) const {
  const auto out = arcs(u);
  for (int k = 0; k < static_cast<int>(out.size()); ++k)
    if (out[k].to == v) return k;
  return -1;
}

std::int64_t Graph::total_weight() const {
  std::int64_t s = 0;
  for (const auto& e : edges_) s += e.w;
  return s;
}

}  // namespace pw::graph
