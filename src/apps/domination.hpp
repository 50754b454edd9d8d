// Domination problems: k-dominating sets (Corollary A.3) and connected
// dominating sets (Corollary A.2).
//
// k-dominating set: the paper's generalized sub-part division — merge
// sub-parts by star joinings, freezing them at ceil(k/6) nodes instead of
// D. Every frozen sub-part has Õ(k) tree diameter and at least k/6 nodes,
// so the representatives form a k-dominating set of size O(n/k).
//
// Connected dominating set: Ghaffari's O(log n)-approximation [14] reduces
// to two Thurimella-style component aggregates — (A) the k = O(1) largest
// values in a component and (B) component sums — both PA instances. This
// module supplies exactly those primitives (component_topk, component_sum)
// plus a structural CDS built from the internal nodes of a distributed BFS
// tree; the greedy centralized reference quantifies its quality in the
// benchmarks (see DESIGN.md §2 for the substitution note).
#pragma once

#include "src/core/solver.hpp"

namespace pw::apps {

struct KDomResult {
  std::vector<int> dominators;
  sim::PhaseStats stats;
};

// Computes a k-dominating set of size O(n/k) in Õ(D + sqrt(n)) rounds.
KDomResult k_dominating_set(sim::Engine& eng, int k);

// Largest `howmany` values (with their node ids) per H-component.
// Returns, for each node, the packed (value, node) pairs of its component
// in descending order. Runs `howmany` >= 0 PA rounds on one PaSolver.
std::vector<std::vector<std::uint64_t>> component_topk(
    sim::Engine& eng, const std::vector<char>& in_subgraph,
    const std::vector<std::uint64_t>& values, int howmany,
    const core::PaSolverConfig& cfg = {});

// Sum of values per H-component, delivered to every node.
std::vector<std::uint64_t> component_sum(sim::Engine& eng,
                                         const std::vector<char>& in_subgraph,
                                         const std::vector<std::uint64_t>& values,
                                         const core::PaSolverConfig& cfg = {});

struct CdsResult {
  std::vector<char> in_cds;
  int size = 0;
  sim::PhaseStats stats;
};

// Structural CDS: internal nodes of a distributed BFS tree.
CdsResult connected_dominating_set(sim::Engine& eng,
                                   const core::PaSolverConfig& cfg = {});

// Centralized greedy dominating-set-plus-connectors reference (for quality
// ratios in benchmarks).
std::vector<char> greedy_cds_reference(const graph::Graph& g);

// Validators.
void validate_k_domination(const graph::Graph& g, const std::vector<int>& dom,
                           int k);
void validate_cds(const graph::Graph& g, const std::vector<char>& in_cds);

}  // namespace pw::apps
