// Corollary A.1: the Das Sarma et al. verification problems in Õ(D+sqrt(n))
// rounds and Õ(m) messages, via the Thurimella component-labelling PA
// instance.
//
// For each verifier the harness reports rounds/messages and the ratios to
// (D + sqrt(n)) and m; the claim is that both ratios stay polylog-bounded.
// Every row's verdict is checked against the answer its input is built to
// have (a centralized union-find for the random subgraphs), so a run of this
// bench is also an end-to-end check of the verifiers. BENCH_verification.json
// carries one row per verifier; its verdicts and counts are compared exactly
// against the committed baseline, its times are report-only.
#include "bench/common.hpp"

#include "src/apps/verification.hpp"
#include "src/graph/dsu.hpp"

namespace pw::bench {
namespace {

void run() {
  Rng rng(48);
  Table table({"verifier", "n", "m", "verdict", "rounds", "messages",
               "rnds/(D+sqrt n)", "msgs/m"});
  JsonEmitter json("verification_corollary_a1");

  // Runs one verifier on a fresh engine over g, times it, checks its verdict
  // and reports it.
  auto check = [&](const std::string& name, const graph::Graph& g,
                   bool expected, const auto& verify) {
    sim::Engine eng(g);
    const auto t0 = now_ns();
    const auto res = verify(eng);
    const auto wall_ns = now_ns() - t0;
    const bool verdict = res.ok;
    const sim::PhaseStats& st = res.stats;
    PW_CHECK_MSG(verdict == expected, "%s: verdict %s, expected %s",
                 name.c_str(), verdict ? "accept" : "reject",
                 expected ? "accept" : "reject");
    const double pred = graph::diameter_estimate(g) + std::sqrt(g.n());
    table.add_row({name, fm(static_cast<std::uint64_t>(g.n())),
                   fm(static_cast<std::uint64_t>(g.m())),
                   verdict ? "accept" : "reject", fm(st.rounds),
                   fm(st.messages), fd(st.rounds / pred),
                   fd(static_cast<double>(st.messages) / g.num_arcs())});
    json.add_row(
        {{"verifier", name},
         {"n", g.n()},
         {"m", g.m()},
         {"verdict", verdict ? "accept" : "reject"},
         {"rounds", st.rounds},
         {"messages", st.messages},
         {"wall_ns", wall_ns},
         {"ns_per_message",
          static_cast<double>(wall_ns) /
              static_cast<double>(std::max<std::uint64_t>(1, st.messages))}});
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
    auto spanning_tree = [&](sim::Engine& eng) {
      return apps::verify_spanning_tree(eng, h, {});
    };
    check("spanning-tree(true)", g, true, spanning_tree);
    for (int e = 0; e < g.m(); ++e)
      if (h[e]) {
        h[e] = 0;
        break;
      }
    check("spanning-tree(broken)", g, false, spanning_tree);
  }

  // Connectivity of a random subgraph.
  {
    std::vector<char> h(g.m(), 0);
    for (int e = 0; e < g.m(); ++e) h[e] = rng.next_bool(0.7);
    check("connectivity(random H)", g, h_components(h).components() == 1,
          [&](sim::Engine& eng) {
            return apps::verify_connectivity(eng, h, {});
          });
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
    check("cut(bridge)", bridged, true,
          [&](sim::Engine& eng) { return apps::verify_cut(eng, h, {}); });
  }

  // s-t connectivity.
  {
    std::vector<char> h(g.m(), 0);
    for (int e = 0; e < g.m(); ++e) h[e] = rng.next_bool(0.5);
    check("s-t connectivity", g, h_components(h).same(0, g.n() - 1),
          [&](sim::Engine& eng) {
            return apps::verify_s_t_connectivity(eng, h, 0, g.n() - 1, {});
          });
  }


  // Bipartiteness: a grid (bipartite) and the grid plus one odd diagonal.
  {
    graph::Graph grid = graph::gen::grid(16, 16);
    std::vector<char> h(grid.m(), 1);
    check("bipartiteness(grid)", grid, true, [&](sim::Engine& eng) {
      return apps::verify_bipartiteness(eng, h, {});
    });

    std::vector<graph::Edge> edges = grid.edges();
    edges.push_back({0, 17, 1});  // a diagonal: odd cycle
    graph::Graph spoiled = graph::Graph::from_edges(grid.n(), std::move(edges));
    std::vector<char> h2(spoiled.m(), 1);
    check("bipartiteness(odd cycle)", spoiled, false, [&](sim::Engine& eng) {
      return apps::verify_bipartiteness(eng, h2, {});
    });
  }


  table.print(
      "Corollary A.1 — verification problems via Thurimella labelling "
      "(PA without leaders / Algorithm 9)");
  json.write("BENCH_verification.json");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
