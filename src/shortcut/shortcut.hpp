// Tree-restricted low-congestion shortcuts (Definitions 2.1–2.3).
//
// A T-restricted shortcut assigns every part Pi a set Hi of edges of the
// rooted spanning tree T. Since every non-root node has exactly one parent
// edge, Hi is stored edge-indexed-by-child: parts_on[v] lists the parts
// whose Hi contains the tree edge (v -> parent(v)).
//
//   congestion c  = max over tree edges of |parts_on|             (Def 2.1.1)
//   blocks of Pi  = connected components of Hi's edge set          (Def 2.3)
//   block parameter b = max over parts of max(#blocks, 1)
//
// Convention (documented in DESIGN.md §2): parts with Hi = ∅ have b = 1 —
// they are exactly the parts Algorithm 1 serves through their own spanning
// trees without touching T. Isolated part nodes are reached through sub-part
// trees, not blocks, so they do not contribute blocks.
//
// block_root_depth_on mirrors parts_on: the depth (in T) of the block's
// topmost node, which is the priority key BlockRoute's deterministic
// scheduler uses (Lemma 4.2). It is a byproduct of shortcut construction
// (each part learns its block structure while claiming edges).
#pragma once

#include <vector>

#include "src/graph/partition.hpp"
#include "src/tree/forest.hpp"

namespace pw::shortcut {

struct Shortcut {
  // Indexed by child node v; sorted ascending part ids.
  std::vector<std::vector<int>> parts_on;
  // Parallel to parts_on: depth of the block root of that (edge, part).
  std::vector<std::vector<int>> block_root_depth_on;

  int n() const { return static_cast<int>(parts_on.size()); }

  static Shortcut empty(int n) {
    Shortcut s;
    s.parts_on.assign(n, {});
    s.block_root_depth_on.assign(n, {});
    return s;
  }

  bool edge_in_part(int child, int part) const;
};

// Maximum number of parts sharing one tree edge (0 for the empty shortcut).
int congestion(const Shortcut& s);

// Number of blocks of every part (0 when Hi is empty).
std::vector<int> blocks_per_part(const graph::Graph& g,
                                 const tree::SpanningForest& t,
                                 const graph::Partition& p, const Shortcut& s);

// max(#blocks, 1) over all parts.
int block_parameter(const graph::Graph& g, const tree::SpanningForest& t,
                    const graph::Partition& p, const Shortcut& s);

// Recomputes block_root_depth_on from scratch (used by constructions after
// they finish claiming edges).
void annotate_block_roots(const graph::Graph& g, const tree::SpanningForest& t,
                          Shortcut& s);

// The freeze step of every shortcut construction (Algorithm 4 line 6,
// Algorithm 8 line 14, and the doubling trick in PaSolver): every part i
// with newly_frozen[i] != 0 keeps its candidate edges, i.e. i is merged into
// into.parts_on[v] for each v with i in candidate.parts_on[v]. Newly frozen
// parts must not already appear in `into`. One pass over candidate.parts_on
// that merges into the lists it grows: O(n + claims), claims counting the
// entries of both shortcuts, however many parts freeze. Lists stay sorted;
// the annotation of every list that grows is cleared, so callers run
// annotate_block_roots once they stop adopting.
void adopt_parts(Shortcut& into, const Shortcut& candidate,
                 const std::vector<char>& newly_frozen);

// Structural checks: part ids in range, lists sorted/unique, annotation
// depths consistent with an actual walk of each block.
void validate_shortcut(const graph::Graph& g, const tree::SpanningForest& t,
                       const graph::Partition& p, const Shortcut& s);

// The existential fallback the paper invokes ("every graph admits a shortcut
// with b = 1 and c = sqrt(n)"): every part with more than `size_threshold`
// nodes receives the entire tree as its Hi (one block, so b = 1); smaller
// parts get Hi = ∅ and are served through their own spanning trees. With
// size_threshold = sqrt(n) at most sqrt(n) parts qualify, so c <= sqrt(n).
Shortcut trivial_whole_tree_shortcut(const graph::Graph& g,
                                     const tree::SpanningForest& t,
                                     const graph::Partition& p,
                                     int size_threshold);

}  // namespace pw::shortcut
