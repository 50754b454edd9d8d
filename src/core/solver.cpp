#include "src/core/solver.hpp"

#include <algorithm>

#include "src/shortcut/subpart_det.hpp"
#include "src/tree/bfs.hpp"
#include "src/tree/leader.hpp"

namespace pw::core {

PaSolver::PaSolver(sim::Engine& eng, PaSolverConfig cfg)
    : eng_(&eng), cfg_(cfg), rng_(cfg.seed) {}

void PaSolver::ensure_global() {
  if (global_ready_) return;
  const auto snap = eng_->snap();
  // Leader election then BFS tree T rooted at the leader (Section 2.2: the
  // paper's T is a rooted BFS tree obtained via Kutten et al. [27]).
  int root;
  if (cfg_.mode == PaMode::Randomized) {
    root = tree::elect_leader_random(*eng_, rng_).leader;
  } else {
    root = tree::elect_leader_det(*eng_).leader;
  }
  st_.t = tree::build_bfs_tree(*eng_, root);
  st_.diameter_bound = std::max(1, st_.t.height());
  if (cfg_.mode == PaMode::Deterministic &&
      cfg_.strategy != PaStrategy::NoShortcut)
    st_.hp = tree::heavy_path_decompose(*eng_, st_.t);
  st_.tree_stats = eng_->since(snap);
  global_ready_ = true;
}

const tree::SpanningForest& PaSolver::tree() {
  ensure_global();
  return st_.t;
}

void PaSolver::build_division() {
  const auto snap = eng_->snap();
  if (cfg_.strategy == PaStrategy::NoSubparts) {
    // Prior-work behaviour: every node talks to the shortcut directly. We
    // model it as the degenerate division where every node is its own
    // sub-part (and so its own representative).
    shortcut::SubPartDivision d;
    const auto& g = eng_->graph();
    d.num_subparts = g.n();
    d.subpart_of.resize(g.n());
    d.rep_of_subpart.resize(g.n());
    for (int v = 0; v < g.n(); ++v) {
      d.subpart_of[v] = v;
      d.rep_of_subpart[v] = v;
    }
    d.forest.parent.assign(g.n(), -1);
    d.forest.parent_port.assign(g.n(), -1);
    d.forest.depth.assign(g.n(), 0);
    d.forest.children_ports.assign(g.n(), {});
    d.forest.roots = d.rep_of_subpart;
    st_.div = std::move(d);
  } else if (cfg_.mode == PaMode::Deterministic) {
    st_.div = shortcut::build_subpart_division_det(*eng_, part_,
                                                   st_.diameter_bound);
  } else {
    st_.div = shortcut::build_subpart_division_random(*eng_, part_,
                                                      st_.diameter_bound, rng_);
  }
  st_.division_stats = eng_->since(snap);
}

void PaSolver::build_shortcut() {
  const auto snap = eng_->snap();
  const auto& g = eng_->graph();
  // Resume at the guess where the previous partition stopped. Every node
  // knows that guess (the loop moves all parts in lockstep and ends on one
  // global all-frozen test), so the start needs no agreement inside a part.
  // A singleton partition, where every node knows its part is itself,
  // restarts at 1: each part is one node, so it freezes there.
  const bool singletons = part_.num_parts == g.n();
  const int first_guess = singletons ? 1 : std::max(1, st_.final_guess);
  st_.sc = shortcut::Shortcut::empty(g.n());
  st_.trees = WaveTrees::none(g.n(), part_.num_parts);
  st_.frozen_at_guess.assign(part_.num_parts, 0);
  st_.final_guess = 0;
  if (cfg_.strategy == PaStrategy::NoShortcut) {
    st_.shortcut_stats = eng_->since(snap);
    return;
  }

  // Doubling trick over κ = max(b̂, ĉ): unfrozen parts retry at the doubled
  // guess; κ = n is a certain stop (no edge ever breaks, so every part's
  // claims merge into a single block at the root of T). Each guess runs the
  // claim → verify → freeze loop of Algorithm 4 (lines 3-6) or Algorithm 8
  // (lines 4-14) for at most kCoreFastItersPerGuess attempts; the two differ
  // only in the claim pass and in Algorithm 4's coins.
  const bool randomized = cfg_.mode == PaMode::Randomized;
  std::vector<char> frozen(part_.num_parts, 0);
  auto all_frozen = [&] {
    return std::all_of(frozen.begin(), frozen.end(), [](char c) { return c; });
  };
  for (int guess = first_guess; !all_frozen(); guess *= 2) {
    PW_CHECK_MSG(guess <= 4 * g.n(), "shortcut doubling failed to converge");
    // Algorithm 4 draws its coins and verification seeds from a stream of
    // its own per guess; Algorithm 8 draws nothing.
    Rng rng(randomized ? rng_.next_u64() ^ 0xC0FEFA57ULL : 0);
    // The start guess gets one attempt; a part it does not freeze gets every
    // attempt at twice the guess.
    const int attempts = guess == first_guess ? 1 : kCoreFastItersPerGuess;
    for (int attempt = 0; attempt < attempts && !all_frozen(); ++attempt) {
      // Unfrozen parts claim. After the first attempt a randomized part
      // joins with probability 1/2, the contention halving behind
      // [19, Lemma 4]'s progress guarantee.
      std::vector<char> participating(part_.num_parts, 0);
      bool any = false;
      for (int i = 0; i < part_.num_parts; ++i) {
        if (frozen[i]) continue;
        participating[i] = !randomized || attempt == 0 || rng.next_bool(0.5);
        any = any || participating[i];
      }
      if (!any) continue;
      const auto candidate =
          randomized ? corefast_claim(*eng_, part_, st_.div, st_.t,
                                      participating, guess)
                     : det_claim(*eng_, part_, st_.div, st_.t, st_.hp,
                                 participating, guess);

      // Verify the block parameter on the candidate (Algorithm 2) for the
      // participating parts only, and freeze the parts within 3·guess
      // blocks: they keep their candidate edges, and the wave tree their
      // verification built on those edges. A part left out of the
      // verification reports part_good = 0, so part_good is exactly the set
      // of newly frozen parts.
      PaGivenConfig vcfg;
      vcfg.mode = cfg_.mode;
      if (randomized) {
        vcfg.delay_range = guess;
        vcfg.seed = rng.next_u64();
      }
      auto verdict =
          verify_block_parameter(*eng_, part_, st_.div, st_.labels, candidate,
                                 st_.t, 3 * guess, vcfg, participating);
      for (int i = 0; i < part_.num_parts; ++i) {
        if (!verdict.part_good[i]) continue;
        frozen[i] = 1;
        st_.frozen_at_guess[i] = guess;
        st_.final_guess = guess;
      }
      shortcut::adopt_parts(st_.sc, candidate, verdict.part_good);
      st_.trees.adopt(std::move(verdict.trees), verdict.part_good);
    }
  }
  shortcut::annotate_block_roots(g, st_.t, st_.sc);
  st_.shortcut_stats = eng_->since(snap);
}

void PaSolver::set_partition(graph::Partition p) {
  PW_CHECK_MSG(p.has_leaders(),
               "PaSolver requires known leaders; use pa_noleader for the "
               "leaderless setting (Appendix B)");
  part_ = std::move(p);
  ensure_global();
  build_division();
  const auto snap = eng_->snap();
  st_.labels = announce_labels(*eng_, part_, st_.div);
  st_.labels_stats = eng_->since(snap);
  build_shortcut();
  partition_ready_ = true;
}

PaRunResult PaSolver::aggregate(const Agg& agg,
                                const std::vector<std::uint64_t>& values) {
  PW_CHECK_MSG(partition_ready_, "call set_partition first");
  const int n = eng_->graph().n();
  PW_CHECK_MSG(static_cast<int>(values.size()) == n,
               "PaSolver::aggregate: %zu values for a graph of %d nodes",
               values.size(), n);
  PaGivenConfig pc;
  pc.mode = cfg_.mode;
  pc.delay_range = std::max(1, shortcut::congestion(st_.sc));
  // Drawn whether or not a part waves, so later draws do not depend on it.
  pc.seed = rng_.next_u64();
  auto res = pa_given(*eng_, part_, st_.div, st_.labels, st_.sc, st_.t, agg,
                      values, pc, &st_.trees);
  for (int i = 0; i < part_.num_parts; ++i)
    PW_CHECK_MSG(res.part_covered[i],
                 "PA wave failed to cover part %d of %d (leader %d)", i,
                 part_.num_parts, part_.leader[i]);
  PaRunResult out;
  out.part_value = std::move(res.part_value);
  out.node_value = std::move(res.node_value);
  out.stats = res.total();
  return out;
}

}  // namespace pw::core
