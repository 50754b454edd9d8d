#include "src/tree/bfs.hpp"

namespace pw::tree {

namespace {

enum : std::uint16_t { kExplore = 1, kChild = 2 };

}  // namespace

void validate_forest(const graph::Graph& g, const SpanningForest& f) {
  PW_CHECK(f.n() == g.n());
  std::vector<char> is_root(g.n(), 0);
  for (int r : f.roots) {
    PW_CHECK(r >= 0 && r < g.n());
    PW_CHECK(f.parent[r] == -1 && f.parent_port[r] == -1);
    PW_CHECK(f.depth[r] == 0);
    is_root[r] = 1;
  }
  for (int v = 0; v < g.n(); ++v) {
    if (is_root[v]) continue;
    if (f.parent[v] < 0) continue;  // unclaimed node (restricted BFS)
    PW_CHECK(f.parent_port[v] >= 0 && f.parent_port[v] < g.degree(v));
    PW_CHECK(g.arcs(v)[f.parent_port[v]].to == f.parent[v]);
    PW_CHECK(f.depth[v] == f.depth[f.parent[v]] + 1);
  }
  for (int v = 0; v < g.n(); ++v)
    for (int cp : f.children_ports[v]) {
      PW_CHECK(cp >= 0 && cp < g.degree(v));
      const int child = g.arcs(v)[cp].to;
      PW_CHECK(f.parent[child] == v);
    }
}

SpanningForest build_bfs_tree(sim::Engine& eng, int root) {
  const auto& g = eng.graph();
  SpanningForest f = build_restricted_bfs(
      eng, {root}, [](int, int) { return true; });
  for (int v = 0; v < g.n(); ++v)
    PW_CHECK_MSG(f.depth[v] >= 0, "graph disconnected: node %d unreachable", v);
  return f;
}

SpanningForest build_restricted_bfs(
    sim::Engine& eng, const std::vector<int>& roots,
    const std::function<bool(int v, int port)>& allow, int max_depth) {
  const auto& g = eng.graph();
  SpanningForest f;
  f.parent.assign(g.n(), -1);
  f.parent_port.assign(g.n(), -1);
  f.depth.assign(g.n(), -1);
  f.children_ports.assign(g.n(), {});
  f.roots = roots;

  std::vector<char> claimed(g.n(), 0);
  for (int r : roots) {
    PW_CHECK(!claimed[r]);
    claimed[r] = 1;
    f.depth[r] = 0;
    eng.wake(r);
  }

  eng.run([&](int v) {
    // Process incoming traffic.
    bool newly_claimed = false;
    for (const auto& in : eng.inbox(v)) {
      if (in.msg.tag == kChild) {
        f.children_ports[v].push_back(in.port);
      } else if (in.msg.tag == kExplore) {
        if (claimed[v]) continue;
        claimed[v] = 1;
        newly_claimed = true;
        f.parent[v] = in.from;
        f.parent_port[v] = in.port;
        f.depth[v] = static_cast<int>(in.msg.a) + 1;
      }
    }
    const bool is_fresh_root = f.depth[v] == 0 && eng.inbox(v).empty();
    if (!newly_claimed && !is_fresh_root) return;

    if (newly_claimed)
      eng.send(v, f.parent_port[v], sim::Msg{kChild, 0, 0, 0});
    if (max_depth >= 0 && f.depth[v] >= max_depth) return;
    const auto arcs = g.arcs(v);
    for (int port = 0; port < static_cast<int>(arcs.size()); ++port) {
      if (port == f.parent_port[v]) continue;
      if (!allow(v, port)) continue;
      eng.send(v, port, sim::Msg{kExplore, static_cast<std::uint64_t>(f.depth[v]), 0, 0});
    }
  });

  return f;
}

}  // namespace pw::tree
