#include "src/apps/mst.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "src/graph/dsu.hpp"
#include "src/tree/bfs.hpp"
#include "src/tree/treeops.hpp"

namespace pw::apps {

namespace {

enum : std::uint16_t { kFragmentId = 21 };

constexpr std::uint64_t kNoEdge = ~0ULL;

std::uint64_t pack_edge(graph::Weight w, int edge_id) {
  PW_CHECK(w >= 0 && w < (1LL << 31));
  return (static_cast<std::uint64_t>(w) << 32) |
         static_cast<std::uint32_t>(edge_id);
}

// One announcement round: every node tells every neighbor its fragment id
// (the GHS-style baseline's own KT0 traffic; Borůvka reads PaSolver's labels).
void announce_fragments(sim::Engine& eng, const std::vector<int>& fragment_of,
                        std::vector<int>& neighbor_fragment) {
  const auto& g = eng.graph();
  neighbor_fragment.assign(g.num_arcs(), -1);
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  std::vector<char> sent(g.n(), 0);
  eng.run([&](int v) {
    for (const auto& in : eng.inbox(v))
      if (in.msg.tag == kFragmentId)
        neighbor_fragment[g.arc_id(v, in.port)] = static_cast<int>(in.msg.a);
    if (sent[v]) return;
    sent[v] = 1;
    for (int port = 0; port < g.degree(v); ++port)
      eng.send(v, port,
               sim::Msg{kFragmentId, static_cast<std::uint64_t>(fragment_of[v]),
                        0, 0});
  });
}

}  // namespace

MstResult boruvka_mst(sim::Engine& eng, const core::PaSolverConfig& cfg) {
  const auto& g = eng.graph();
  const auto snap = eng.snap();
  MstResult out;
  out.in_mst.assign(g.m(), 0);

  core::PaSolver solver(eng, cfg);

  // Fragment state: labels and, per fragment, its leader node.
  std::vector<int> fragment_of(g.n());
  std::iota(fragment_of.begin(), fragment_of.end(), 0);

  // Each fragment partition is installed once. Phase 0 runs on the
  // singletons; every later phase runs on the merged partition that PA #2
  // of the phase before installed. from_labels numbers parts by first
  // appearance and leaders are min-id, so relabelling the merged fragments
  // by their min old label yields that same partition (checked per phase).
  // Installing it announced every node's part to its neighbours, so an edge
  // leaves v's fragment exactly when the installed labels say the far end
  // is in another part; no phase announces fragment ids of its own.
  solver.set_partition(graph::singleton_partition(g));

  const int max_phases = 2 * static_cast<int>(std::log2(std::max(2, g.n()))) + 4;
  for (int phase = 0;; ++phase) {
    PW_CHECK_MSG(phase < max_phases, "Boruvka failed to converge");

    graph::Partition part = graph::Partition::from_labels(fragment_of);
    part.elect_min_id_leaders();
    PW_CHECK_MSG(part == solver.partition(),
                 "fragment partition differs from the installed one at phase %d",
                 phase);
    const std::vector<int>& neighbor_part = solver.structures().labels.part;

    // PA #1: lightest outgoing edge per fragment.
    std::vector<std::uint64_t> candidate(g.n(), kNoEdge);
    for (int v = 0; v < g.n(); ++v)
      for (int port = 0; port < g.degree(v); ++port) {
        if (neighbor_part[g.arc_id(v, port)] == part.part_of[v]) continue;
        const auto& arc = g.arcs(v)[port];
        candidate[v] = std::min(candidate[v],
                                pack_edge(g.edge(arc.edge).w, arc.edge));
      }
    const auto sel_snap = eng.snap();
    const auto chosen = solver.aggregate(agg::min(), candidate);
    out.select_stats += eng.since(sel_snap);

    // Mark selected edges; a node marks the edge when it is an endpoint.
    bool any = false;
    for (int i = 0; i < part.num_parts; ++i) {
      if (chosen.part_value[i] == kNoEdge) continue;
      any = true;
      const int e = static_cast<int>(chosen.part_value[i] & 0xffffffffULL);
      out.in_mst[e] = 1;
    }
    if (!any) break;  // no fragment has an outgoing edge: spanning tree done

    // Fragments merge along selected edges. The DSU mirrors what nodes know
    // distributedly (each endpoint marked its selected edges); PA #2 then
    // propagates the merged fragment's id (min old fragment id) to everyone.
    graph::Dsu dsu(part.num_parts);
    for (int e = 0; e < g.m(); ++e)
      if (out.in_mst[e])
        dsu.unite(part.part_of[g.edge(e).u], part.part_of[g.edge(e).v]);
    std::vector<int> merged_label(g.n());
    for (int v = 0; v < g.n(); ++v) merged_label[v] = dsu.find(part.part_of[v]);
    graph::Partition merged = graph::Partition::from_labels(merged_label);
    merged.elect_min_id_leaders();
    solver.set_partition(merged);

    std::vector<std::uint64_t> own_id(g.n());
    for (int v = 0; v < g.n(); ++v)
      own_id[v] = static_cast<std::uint64_t>(fragment_of[v]);
    const auto relabeled = solver.aggregate(agg::min(), own_id);
    for (int v = 0; v < g.n(); ++v)
      fragment_of[v] = static_cast<int>(relabeled.node_value[v]);
    out.phases = phase + 1;
  }

  for (int e = 0; e < g.m(); ++e)
    if (out.in_mst[e]) out.total_weight += g.edge(e).w;
  out.stats = eng.since(snap);
  return out;
}

MstResult ghs_style_mst(sim::Engine& eng, std::uint64_t seed) {
  (void)seed;
  const auto& g = eng.graph();
  const auto snap = eng.snap();
  MstResult out;
  out.in_mst.assign(g.m(), 0);

  std::vector<int> fragment_of(g.n());
  std::iota(fragment_of.begin(), fragment_of.end(), 0);
  std::vector<int> neighbor_fragment;

  const int max_phases = 2 * static_cast<int>(std::log2(std::max(2, g.n()))) + 4;
  for (int phase = 0;; ++phase) {
    PW_CHECK_MSG(phase < max_phases, "GHS-style MST failed to converge");
    announce_fragments(eng, fragment_of, neighbor_fragment);

    // Root each fragment's TREE (selected edges only) at its minimum id.
    std::vector<int> leader_of(g.n(), -1);  // by fragment label
    for (int v = g.n() - 1; v >= 0; --v) leader_of[fragment_of[v]] = v;
    std::vector<int> roots;
    for (int v = 0; v < g.n(); ++v)
      if (leader_of[fragment_of[v]] == v) roots.push_back(v);
    const auto forest = tree::build_restricted_bfs(
        eng, roots, [&](int v, int port) {
          return out.in_mst[g.arcs(v)[port].edge] != 0;
        });

    // Convergecast the min outgoing edge along fragment-tree edges only,
    // then broadcast the choice back down.
    std::vector<std::uint64_t> candidate(g.n(), kNoEdge);
    for (int v = 0; v < g.n(); ++v)
      for (int port = 0; port < g.degree(v); ++port) {
        if (neighbor_fragment[g.arc_id(v, port)] == fragment_of[v]) continue;
        const auto& arc = g.arcs(v)[port];
        candidate[v] = std::min(candidate[v],
                                pack_edge(g.edge(arc.edge).w, arc.edge));
      }
    const auto sel_snap = eng.snap();
    const auto mins = tree::forest_convergecast(eng, forest, agg::min(), candidate);
    std::vector<std::uint64_t> chosen(g.n(), kNoEdge);
    for (int r : roots) chosen[r] = mins[r];
    const auto decision = tree::forest_broadcast(eng, forest, chosen, kNoEdge);
    out.select_stats += eng.since(sel_snap);

    bool any = false;
    for (int r : roots) {
      if (chosen[r] == kNoEdge) continue;
      any = true;
      out.in_mst[chosen[r] & 0xffffffffULL] = 1;
    }
    (void)decision;
    if (!any) break;

    // Merge + relabel: new label = min old label, spread along the NEW
    // fragment trees (one more restricted BFS wave carrying the label).
    graph::Dsu dsu(g.n());
    for (int e = 0; e < g.m(); ++e)
      if (out.in_mst[e]) dsu.unite(g.edge(e).u, g.edge(e).v);
    std::vector<int> new_roots;
    for (int v = 0; v < g.n(); ++v)
      if (dsu.find(v) == v) new_roots.push_back(v);
    // The wave itself is the relabel broadcast (O(fragment diameter) rounds,
    // O(n) messages).
    const auto relabel_forest = tree::build_restricted_bfs(
        eng, new_roots, [&](int v, int port) {
          return out.in_mst[g.arcs(v)[port].edge] != 0;
        });
    for (int v = 0; v < g.n(); ++v) {
      int cur = v;
      while (relabel_forest.parent[cur] >= 0) cur = relabel_forest.parent[cur];
      fragment_of[v] = cur;
    }
    out.phases = phase + 1;
  }

  for (int e = 0; e < g.m(); ++e)
    if (out.in_mst[e]) out.total_weight += g.edge(e).w;
  out.stats = eng.since(snap);
  return out;
}

std::int64_t kruskal_mst_weight(const graph::Graph& g) {
  std::int64_t total = 0;
  const auto edges = kruskal_mst_edges(g);
  for (int e = 0; e < g.m(); ++e)
    if (edges[e]) total += g.edge(e).w;
  return total;
}

std::vector<char> kruskal_mst_edges(const graph::Graph& g) {
  std::vector<int> order(g.m());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    if (g.edge(a).w != g.edge(b).w) return g.edge(a).w < g.edge(b).w;
    return a < b;  // same tie-break as pack_edge
  });
  graph::Dsu dsu(g.n());
  std::vector<char> in_mst(g.m(), 0);
  for (int e : order)
    if (dsu.unite(g.edge(e).u, g.edge(e).v)) in_mst[e] = 1;
  return in_mst;
}

void validate_spanning_tree(const graph::Graph& g, const std::vector<char>& in_mst) {
  graph::Dsu dsu(g.n());
  int count = 0;
  for (int e = 0; e < g.m(); ++e) {
    if (!in_mst[e]) continue;
    ++count;
    PW_CHECK_MSG(dsu.unite(g.edge(e).u, g.edge(e).v), "cycle in MST at edge %d", e);
  }
  PW_CHECK_MSG(count == g.n() - 1, "MST has %d edges, expected %d", count,
               g.n() - 1);
}

}  // namespace pw::apps
