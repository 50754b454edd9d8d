// Corollary A.1: the Das Sarma et al. verification problems in Õ(D+sqrt(n))
// rounds and Õ(m) messages, via the Thurimella component-labelling PA
// instance.
//
// For each verifier the harness reports rounds/messages and the ratios to
// (D + sqrt(n)) and m; the claim is that both ratios stay polylog-bounded.
// Every row's verdict is checked against the answer its input is built to
// have (a centralized union-find for the random subgraphs), so a run of this
// bench is also an end-to-end check of the verifiers.
#include "bench/common.hpp"

#include "src/apps/verification.hpp"
#include "src/graph/dsu.hpp"

namespace pw::bench {
namespace {

void run() {
  Rng rng(48);
  Table table({"verifier", "n", "m", "verdict", "rounds", "messages",
               "rnds/(D+sqrt n)", "msgs/m"});

  auto add = [&](const std::string& name, const graph::Graph& g, bool verdict,
                 bool expected, const sim::PhaseStats& st) {
    PW_CHECK_MSG(verdict == expected, "%s: verdict %s, expected %s",
                 name.c_str(), verdict ? "accept" : "reject",
                 expected ? "accept" : "reject");
    const double pred = graph::diameter_estimate(g) + std::sqrt(g.n());
    table.add_row({name, fm(static_cast<std::uint64_t>(g.n())),
                   fm(static_cast<std::uint64_t>(g.m())),
                   verdict ? "accept" : "reject", fm(st.rounds),
                   fm(st.messages), fd(st.rounds / pred),
                   fd(static_cast<double>(st.messages) / g.num_arcs())});
  };

  auto g = graph::gen::random_connected(512, 1400, rng);
  // Union-find over H: the centralized answer for the random subgraphs.
  auto h_components = [&](const std::vector<char>& h) {
    graph::Dsu dsu(g.n());
    for (int e = 0; e < g.m(); ++e)
      if (h[e]) dsu.unite(g.edge(e).u, g.edge(e).v);
    return dsu;
  };

  // Spanning tree verification: a real BFS tree, then one edge dropped.
  {
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
    const auto good = apps::verify_spanning_tree(eng, h, {});
    add("spanning-tree(true)", g, good.ok, true, good.stats);
    for (int e = 0; e < g.m(); ++e)
      if (h[e]) {
        h[e] = 0;
        break;
      }
    sim::Engine eng2(g);
    const auto bad = apps::verify_spanning_tree(eng2, h, {});
    add("spanning-tree(broken)", g, bad.ok, false, bad.stats);
  }

  // Connectivity of a random subgraph.
  {
    std::vector<char> h(g.m(), 0);
    for (int e = 0; e < g.m(); ++e) h[e] = rng.next_bool(0.7);
    sim::Engine eng(g);
    const auto v = apps::verify_connectivity(eng, h, {});
    add("connectivity(random H)", g, v.ok, h_components(h).components() == 1,
        v.stats);
  }

  // Cut verification on a planted bridge.
  {
    graph::Graph bridged = [&] {
      auto c1 = graph::gen::random_connected(200, 500, rng);
      auto c2 = graph::gen::random_connected(200, 500, rng);
      std::vector<graph::Edge> edges = c1.edges();
      for (const auto& e : c2.edges()) edges.push_back({e.u + 200, e.v + 200, 1});
      edges.push_back({0, 200, 1});
      return graph::Graph::from_edges(400, std::move(edges));
    }();
    std::vector<char> h(bridged.m(), 0);
    h[bridged.m() - 1] = 1;
    sim::Engine eng(bridged);
    const auto v = apps::verify_cut(eng, h, {});
    add("cut(bridge)", bridged, v.ok, true, v.stats);
  }

  // s-t connectivity.
  {
    std::vector<char> h(g.m(), 0);
    for (int e = 0; e < g.m(); ++e) h[e] = rng.next_bool(0.5);
    sim::Engine eng(g);
    const auto v = apps::verify_s_t_connectivity(eng, h, 0, g.n() - 1, {});
    add("s-t connectivity", g, v.ok, h_components(h).same(0, g.n() - 1),
        v.stats);
  }


  // Bipartiteness: a grid (bipartite) and the grid plus one odd diagonal.
  {
    graph::Graph grid = graph::gen::grid(16, 16);
    std::vector<char> h(grid.m(), 1);
    sim::Engine eng(grid);
    const auto v = apps::verify_bipartiteness(eng, h, {});
    add("bipartiteness(grid)", grid, v.ok, true, v.stats);

    std::vector<graph::Edge> edges = grid.edges();
    edges.push_back({0, 17, 1});  // a diagonal: odd cycle
    graph::Graph spoiled = graph::Graph::from_edges(grid.n(), std::move(edges));
    std::vector<char> h2(spoiled.m(), 1);
    sim::Engine eng2(spoiled);
    const auto v2 = apps::verify_bipartiteness(eng2, h2, {});
    add("bipartiteness(odd cycle)", spoiled, v2.ok, false, v2.stats);
  }


  table.print(
      "Corollary A.1 — verification problems via Thurimella labelling "
      "(PA without leaders / Algorithm 9)");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
