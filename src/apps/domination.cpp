#include "src/apps/domination.hpp"

#include <algorithm>
#include <queue>

#include "src/apps/verification.hpp"
#include "src/graph/dsu.hpp"
#include "src/graph/properties.hpp"
#include "src/shortcut/subpart_det.hpp"
#include "src/tree/bfs.hpp"
#include "src/tree/leader.hpp"

namespace pw::apps {

KDomResult k_dominating_set(sim::Engine& eng, int k) {
  PW_CHECK(k >= 1);
  const auto& g = eng.graph();
  const auto snap = eng.snap();

  // Generalized sub-part division with completion threshold k/6 (Appendix
  // A's construction): star joinings until every sub-part holds >= ceil(k/6)
  // nodes or spans the graph.
  const int threshold = std::max(1, (k + 5) / 6);
  graph::Partition whole = graph::whole_partition(g);
  const auto div =
      shortcut::build_subpart_division_det(eng, whole, threshold, nullptr);

  KDomResult out;
  out.dominators = div.rep_of_subpart;
  out.stats = eng.since(snap);
  return out;
}

std::vector<std::vector<std::uint64_t>> component_topk(
    sim::Engine& eng, const std::vector<char>& in_subgraph,
    const std::vector<std::uint64_t>& values, int howmany,
    const core::PaSolverConfig& cfg) {
  const auto& g = eng.graph();
  PW_CHECK_MSG(static_cast<int>(values.size()) == g.n() && howmany >= 0,
               "component_topk: %zu values for %d nodes, howmany=%d",
               values.size(), g.n(), howmany);
  // The labelling leaves the components installed with elected leaders.
  core::PaSolver solver(eng, cfg);
  h_component_labels(solver, in_subgraph);
  const auto& p = solver.partition();

  // `howmany` rounds of component max over packed (value, node) pairs,
  // excluding nodes already selected.
  std::vector<char> taken(g.n(), 0);
  std::vector<std::vector<std::uint64_t>> per_part(p.num_parts);
  for (int round = 0; round < howmany; ++round) {
    std::vector<std::uint64_t> contrib(g.n(), 0);
    for (int v = 0; v < g.n(); ++v)
      if (!taken[v])
        contrib[v] = agg::pack_pair(values[v] + 1, static_cast<std::uint64_t>(v));
    const auto res = solver.aggregate(agg::max(), contrib);
    for (int i = 0; i < p.num_parts; ++i) {
      if (res.part_value[i] == 0) continue;  // component exhausted
      per_part[i].push_back(agg::pack_pair(agg::pair_key(res.part_value[i]) - 1,
                                           agg::pair_value(res.part_value[i])));
      taken[agg::pair_value(res.part_value[i])] = 1;
    }
  }

  std::vector<std::vector<std::uint64_t>> out(g.n());
  for (int v = 0; v < g.n(); ++v) out[v] = per_part[p.part_of[v]];
  return out;
}

std::vector<std::uint64_t> component_sum(sim::Engine& eng,
                                         const std::vector<char>& in_subgraph,
                                         const std::vector<std::uint64_t>& values,
                                         const core::PaSolverConfig& cfg) {
  core::PaSolver solver(eng, cfg);
  h_component_labels(solver, in_subgraph);
  return solver.aggregate(agg::sum(), values).node_value;
}

CdsResult connected_dominating_set(sim::Engine& eng,
                                   const core::PaSolverConfig& cfg) {
  const auto& g = eng.graph();
  const auto snap = eng.snap();
  PW_CHECK(g.n() >= 2);

  // Leader election + BFS tree; internal nodes form a CDS.
  int root;
  if (cfg.mode == core::PaMode::Deterministic) {
    root = tree::elect_leader_det(eng).leader;
  } else {
    Rng rng(cfg.seed);
    root = tree::elect_leader_random(eng, rng).leader;
  }
  const auto t = tree::build_bfs_tree(eng, root);

  CdsResult out;
  out.in_cds.assign(g.n(), 0);
  for (int v = 0; v < g.n(); ++v)
    if (!t.children_ports[v].empty()) out.in_cds[v] = 1;
  // A two-node graph: the root alone (its child is a leaf).
  if (std::count(out.in_cds.begin(), out.in_cds.end(), 1) == 0)
    out.in_cds[root] = 1;
  out.size = static_cast<int>(
      std::count(out.in_cds.begin(), out.in_cds.end(), 1));
  out.stats = eng.since(snap);
  return out;
}

std::vector<char> greedy_cds_reference(const graph::Graph& g) {
  // Greedy dominating set, then connect via BFS-tree paths.
  std::vector<char> dominated(g.n(), 0), in_set(g.n(), 0);
  int covered = 0;
  while (covered < g.n()) {
    int best = -1, best_gain = -1;
    for (int v = 0; v < g.n(); ++v) {
      if (in_set[v]) continue;
      int gain = dominated[v] ? 0 : 1;
      for (const auto& arc : g.arcs(v)) gain += dominated[arc.to] ? 0 : 1;
      if (gain > best_gain) {
        best_gain = gain;
        best = v;
      }
    }
    in_set[best] = 1;
    if (!dominated[best]) {
      dominated[best] = 1;
      ++covered;
    }
    for (const auto& arc : g.arcs(best))
      if (!dominated[arc.to]) {
        dominated[arc.to] = 1;
        ++covered;
      }
  }
  // Connect: walk BFS-tree paths between chosen nodes.
  const auto dist = graph::bfs_distances(g, 0);
  std::vector<int> parent(g.n(), -1);
  // Recover a BFS parent structure.
  for (int v = 0; v < g.n(); ++v)
    for (const auto& arc : g.arcs(v))
      if (dist[arc.to] == dist[v] - 1 && parent[v] < 0) parent[v] = arc.to;
  for (int v = 0; v < g.n(); ++v) {
    if (!in_set[v]) continue;
    int cur = v;
    while (parent[cur] >= 0 && !in_set[parent[cur]]) {
      in_set[parent[cur]] = 1;
      cur = parent[cur];
    }
  }
  return in_set;
}

void validate_k_domination(const graph::Graph& g, const std::vector<int>& dom,
                           int k) {
  PW_CHECK(!dom.empty());
  // Multi-source BFS from the dominators.
  std::vector<int> dist(g.n(), -1);
  std::vector<int> frontier;
  for (int v : dom) {
    dist[v] = 0;
    frontier.push_back(v);
  }
  int d = 0;
  while (!frontier.empty() && d < k) {
    ++d;
    std::vector<int> next;
    for (int v : frontier)
      for (const auto& arc : g.arcs(v))
        if (dist[arc.to] < 0) {
          dist[arc.to] = d;
          next.push_back(arc.to);
        }
    frontier.swap(next);
  }
  for (int v = 0; v < g.n(); ++v)
    PW_CHECK_MSG(dist[v] >= 0, "node %d not dominated within k=%d", v, k);
}

void validate_cds(const graph::Graph& g, const std::vector<char>& in_cds) {
  // Domination.
  for (int v = 0; v < g.n(); ++v) {
    bool ok = in_cds[v] != 0;
    for (const auto& arc : g.arcs(v)) ok = ok || in_cds[arc.to];
    PW_CHECK_MSG(ok, "node %d undominated", v);
  }
  // Connectivity of the induced CDS subgraph.
  graph::Dsu dsu(g.n());
  for (const auto& e : g.edges())
    if (in_cds[e.u] && in_cds[e.v]) dsu.unite(e.u, e.v);
  int rep = -1;
  for (int v = 0; v < g.n(); ++v) {
    if (!in_cds[v]) continue;
    if (rep < 0) rep = v;
    PW_CHECK_MSG(dsu.same(rep, v), "CDS disconnected at %d", v);
  }
}

}  // namespace pw::apps
