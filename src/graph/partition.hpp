// Vertex partitions — the input object of Part-Wise Aggregation.
//
// A Partition assigns every node to exactly one part; per Definition 1.1 of
// the paper every part must induce a connected subgraph of G. Parts may
// optionally carry
//   * a known leader per part (the paper's Section 4 assumption; Appendix B /
//     Algorithm 9 removes it), and
//   * a spanning forest (per-node parent port within the part). Applications
//     like Borůvka-over-PA produce parts whose connectivity is witnessed by
//     the already-selected MST edges rather than by full knowledge of
//     in-part neighbors; the forest representation captures exactly that.
#pragma once

#include <utility>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/util/rng.hpp"

namespace pw::graph {

struct Partition {
  std::vector<int> part_of;  // size n; values in [0, num_parts)
  int num_parts = 0;

  // leader[i] = node id of part i's leader, or -1 when unknown.
  std::vector<int> leader;

  // Optional spanning forest: parent_port[v] = port index (into g.arcs(v))
  // of v's parent edge inside its part, or -1 for part roots. Empty when no
  // forest is attached.
  std::vector<int> parent_port;

  bool operator==(const Partition&) const = default;

  bool has_forest() const { return !parent_port.empty(); }
  bool has_leaders() const { return !leader.empty(); }

  // Builds a partition from raw labels: renumbers part ids to be contiguous
  // and leaves leaders/forest unset.
  static Partition from_labels(std::vector<int> labels);

  // Members of every part (O(n) scratch).
  std::vector<std::vector<int>> members() const;

  // Sets leader[i] = smallest node id in part i.
  void elect_min_id_leaders();
};

// Validates the PA preconditions: labels in range; every part connected in
// the induced subgraph (or, when a forest is attached, connected via forest
// edges which must stay within the part and be acyclic); leaders, when
// present, live in their parts. Aborts via PW_CHECK on violation.
void validate_partition(const Graph& g, const Partition& p);

// --- Generators -----------------------------------------------------------

// Every node its own part.
Partition singleton_partition(const Graph& g);

// One part containing all nodes.
Partition whole_partition(const Graph& g);

// Parts = rows of gen::grid(rows, cols).
Partition grid_row_partition(int rows, int cols);

// Parts for gen::apex_grid(depth, width): the apex is a singleton part and
// each grid row is one part (the paper's Figure 2a instance).
Partition apex_grid_row_partition(int depth, int width);

// k connected parts grown by synchronized multi-source BFS from k random
// seeds (every part is a BFS "territory", hence connected).
Partition random_bfs_partition(const Graph& g, int k, Rng& rng);

// Connected parts of target radius: seeds are chosen greedily so that every
// node is within `radius` of some seed, then territories grow by BFS.
Partition ball_partition(const Graph& g, int radius, Rng& rng);

}  // namespace pw::graph
