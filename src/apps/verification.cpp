#include "src/apps/verification.hpp"

#include <algorithm>

#include "src/graph/dsu.hpp"
#include "src/tree/bfs.hpp"
#include "src/tree/treeops.hpp"

namespace pw::apps {

namespace {

// Whole-graph aggregate on the solver's BFS tree T: a convergecast and a
// broadcast, 2(n-1) messages. Every node learns the result.
std::uint64_t whole_graph_agg(core::PaSolver& solver, const Agg& agg,
                              const std::vector<std::uint64_t>& values) {
  auto& eng = solver.engine();
  const auto& t = solver.structures().t;
  const auto total = tree::forest_convergecast(eng, t, agg, values);
  return tree::forest_broadcast(eng, t, total)[t.roots[0]];
}

// H spans G and connects it: all labels equal <=> min == max over the
// labels, checked on T so every node learns the verdict.
bool connected(core::PaSolver& solver, const std::vector<char>& in_subgraph) {
  const auto labels = h_component_labels(solver, in_subgraph);
  std::vector<std::uint64_t> lab(labels.label.begin(), labels.label.end());
  return whole_graph_agg(solver, agg::min(), lab) ==
         whole_graph_agg(solver, agg::max(), lab);
}

}  // namespace

LabelsResult h_component_labels(core::PaSolver& solver,
                                const std::vector<char>& in_subgraph) {
  const auto& g = solver.engine().graph();
  PW_CHECK(static_cast<int>(in_subgraph.size()) == g.m());

  // The PA partition: H-components. Each node knows its incident H edges,
  // which is the distributed knowledge this DSU mirrors.
  graph::Dsu dsu(g.n());
  for (int e = 0; e < g.m(); ++e)
    if (in_subgraph[e]) dsu.unite(g.edge(e).u, g.edge(e).v);
  std::vector<int> raw(g.n());
  for (int v = 0; v < g.n(); ++v) raw[v] = dsu.find(v);
  graph::Partition p = graph::Partition::from_labels(raw);

  // Components have no leaders: Algorithm 9 does the labelling.
  std::vector<std::uint64_t> ids(g.n());
  for (int v = 0; v < g.n(); ++v) ids[v] = static_cast<std::uint64_t>(v);
  const auto res = core::pa_noleader(solver, p, agg::min(), ids);

  LabelsResult out;
  out.num_components = p.num_parts;
  out.label.resize(g.n());
  for (int v = 0; v < g.n(); ++v)
    out.label[v] = static_cast<int>(res.node_value[v]);
  out.stats = res.stats;
  return out;
}

Verdict verify_connectivity(sim::Engine& eng,
                            const std::vector<char>& in_subgraph,
                            const core::PaSolverConfig& cfg) {
  const auto snap = eng.snap();
  core::PaSolver solver(eng, cfg);
  Verdict out;
  out.ok = connected(solver, in_subgraph);
  out.stats = eng.since(snap);
  return out;
}

Verdict verify_spanning_tree(sim::Engine& eng,
                             const std::vector<char>& in_subgraph,
                             const core::PaSolverConfig& cfg) {
  const auto& g = eng.graph();
  const auto snap = eng.snap();
  core::PaSolver solver(eng, cfg);
  const bool conn = connected(solver, in_subgraph);

  // Edge count: every node contributes its incident H-degree; the sum
  // double-counts, so H is a tree iff it equals 2(n-1) given connectivity.
  std::vector<std::uint64_t> hdeg(g.n(), 0);
  for (int e = 0; e < g.m(); ++e)
    if (in_subgraph[e]) {
      ++hdeg[g.edge(e).u];
      ++hdeg[g.edge(e).v];
    }
  const auto total = whole_graph_agg(solver, agg::sum(), hdeg);

  Verdict out;
  out.ok = conn && total == 2ULL * (g.n() - 1);
  out.stats = eng.since(snap);
  return out;
}

Verdict verify_cut(sim::Engine& eng, const std::vector<char>& in_subgraph,
                   const core::PaSolverConfig& cfg) {
  const auto snap = eng.snap();
  // H is an (edge) cut iff G - H is disconnected.
  std::vector<char> complement(in_subgraph.size());
  for (std::size_t e = 0; e < in_subgraph.size(); ++e)
    complement[e] = in_subgraph[e] ? 0 : 1;
  core::PaSolver solver(eng, cfg);
  Verdict out;
  out.ok = !connected(solver, complement);
  out.stats = eng.since(snap);
  return out;
}

Verdict verify_bipartiteness(sim::Engine& eng,
                             const std::vector<char>& in_subgraph,
                             const core::PaSolverConfig& cfg) {
  const auto& g = eng.graph();
  const auto snap = eng.snap();
  core::PaSolver solver(eng, cfg);
  const auto labels = h_component_labels(solver, in_subgraph);

  // Rooted spanning tree of each H-component (roots = elected labels),
  // built by a wave over H edges only.
  std::vector<int> roots;
  for (int v = 0; v < g.n(); ++v)
    if (labels.label[v] == v) roots.push_back(v);
  const auto forest = tree::build_restricted_bfs(
      eng, roots, [&](int v, int port) {
        return in_subgraph[g.arcs(v)[port].edge] != 0;
      });

  // One announcement round: every node shouts its depth parity; every node
  // checks its H edges for a same-parity neighbor.
  std::vector<char> violated(g.n(), 0);
  {
    std::vector<char> sent(g.n(), 0);
    for (int v = 0; v < g.n(); ++v) eng.wake(v);
    eng.run([&](int v) {
      for (const auto& in : eng.inbox(v)) {
        if (in.msg.tag != 71) continue;
        const int port = in.port;
        if (!in_subgraph[g.arcs(v)[port].edge]) continue;
        if ((forest.depth[v] & 1) == static_cast<int>(in.msg.a)) violated[v] = 1;
      }
      if (sent[v]) return;
      sent[v] = 1;
      for (int port = 0; port < g.degree(v); ++port)
        eng.send(v, port,
                 sim::Msg{71, static_cast<std::uint64_t>(forest.depth[v] & 1),
                          0, 0});
    });
  }

  // Spread any violation to everyone with one whole-graph aggregate (max).
  std::vector<std::uint64_t> flags(g.n(), 0);
  for (int v = 0; v < g.n(); ++v) flags[v] = violated[v];
  const auto any = whole_graph_agg(solver, agg::max(), flags);

  Verdict out;
  out.ok = any == 0;
  out.stats = eng.since(snap);
  return out;
}

Verdict verify_s_t_connectivity(sim::Engine& eng,
                                const std::vector<char>& in_subgraph, int s,
                                int t, const core::PaSolverConfig& cfg) {
  const int n = eng.graph().n();
  PW_CHECK_MSG(0 <= s && s < n && 0 <= t && t < n,
               "verify_s_t_connectivity: s=%d, t=%d not in [0, %d)", s, t, n);
  const auto snap = eng.snap();
  core::PaSolver solver(eng, cfg);
  const auto labels = h_component_labels(solver, in_subgraph);

  // Broadcast s's label (min over a one-hot vector) so t — and everyone
  // else — can compare locally.
  std::vector<std::uint64_t> onehot(n, ~0ULL);
  onehot[s] = static_cast<std::uint64_t>(labels.label[s]);
  const auto s_label = whole_graph_agg(solver, agg::min(), onehot);

  Verdict out;
  out.ok = s_label == static_cast<std::uint64_t>(labels.label[t]);
  out.stats = eng.since(snap);
  return out;
}

}  // namespace pw::apps
