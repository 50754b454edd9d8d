// Static undirected weighted graph in CSR form.
//
// This is the substrate every CONGEST algorithm in the library runs on.
// Nodes are 0..n-1. Each undirected edge is stored once in `edges()` and
// twice as directed arcs in the adjacency structure; the arc index doubles
// as the "port" identifier a CONGEST node uses to address a neighbor
// (nodes address neighbors by port, never by global topology knowledge).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/util/check.hpp"

namespace pw::graph {

using Weight = std::int64_t;

struct Edge {
  int u = 0;
  int v = 0;
  Weight w = 1;
};

// A directed adjacency entry ("port") of some node.
struct Arc {
  int to = 0;    // neighbor node id
  int edge = 0;  // undirected edge id
};

class Graph {
 public:
  Graph() = default;

  // Builds the CSR structure. Self-loops are rejected; parallel edges are
  // allowed by the representation but rejected here because CONGEST
  // algorithms in this library assume simple graphs.
  static Graph from_edges(int n, std::vector<Edge> edges);

  // Arc ids, ports and CSR offsets are ints, so the 2m arcs must fit in one.
  static constexpr std::size_t kMaxEdges =
      static_cast<std::size_t>(std::numeric_limits<int>::max()) / 2;

  // Aborts with a clear message when m > kMaxEdges. from_edges calls it
  // first, before any allocation sized by m.
  static void check_edge_count(std::size_t m);

  int n() const { return n_; }
  int m() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(int e) const { return edges_[static_cast<std::size_t>(e)]; }
  const std::vector<Edge>& edges() const { return edges_; }

  int degree(int v) const { return adj_off_[v + 1] - adj_off_[v]; }

  // All arcs out of v. The k-th entry is "port k of v".
  std::span<const Arc> arcs(int v) const {
    return {arcs_.data() + adj_off_[v],
            static_cast<std::size_t>(degree(v))};
  }

  // Global directed-slot id of port k of node v (used by the simulator for
  // per-directed-edge bookkeeping).
  int arc_id(int v, int k) const { return adj_off_[v] + k; }
  int num_arcs() const { return static_cast<int>(arcs_.size()); }

  // The arc on the other side of arc `a` (the reverse direction).
  int mirror(int a) const { return mirror_[static_cast<std::size_t>(a)]; }

  // Node that owns arc id `a` (the sender side).
  int arc_owner(int a) const { return arc_owner_[static_cast<std::size_t>(a)]; }
  const Arc& arc(int a) const { return arcs_[static_cast<std::size_t>(a)]; }

  // Port index of arc `a` within its owner's arc list: the inverse of
  // arc_id(owner, port), i.e. arc_id(arc_owner(a), port_of_arc(a)) == a.
  // The simulator uses this to translate a mirror arc into the receiver's
  // port. O(1).
  int port_of_arc(int a) const {
    return a - adj_off_[static_cast<std::size_t>(arc_owner(a))];
  }

  // Port index of the arc from u to v; -1 when u and v are not adjacent.
  // Linear in deg(u); use only in setup/validation code, not inner loops.
  int port_to(int u, int v) const;

  std::int64_t total_weight() const;

 private:
  int n_ = 0;
  std::vector<Edge> edges_;
  std::vector<int> adj_off_;   // size n+1
  std::vector<Arc> arcs_;      // size 2m
  std::vector<int> mirror_;    // size 2m
  std::vector<int> arc_owner_; // size 2m
};

}  // namespace pw::graph
