#include "src/core/detshortcut.hpp"

#include <algorithm>
#include <cmath>

namespace pw::core {

namespace {

// Sorted-unique merge of b into a.
void merge_into(std::vector<int>& a, const std::vector<int>& b) {
  std::vector<int> out;
  out.reserve(a.size() + b.size());
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::back_inserter(out));
  a.swap(out);
}

}  // namespace

PathDoubleResult path_shortcut_double(
    const std::vector<std::vector<int>>& initial_sets, int congestion_cap) {
  const int len = static_cast<int>(initial_sets.size());
  PW_CHECK(len >= 1);
  PW_CHECK(congestion_cap >= 1);

  // Pad to a power of two; virtual positions > len sit physically at the
  // sink (position len), so moves beyond the top cross no physical edges.
  int padded = 1;
  while (padded < len) padded *= 2;

  // sets are 1-indexed by arithmetic position.
  std::vector<std::vector<int>> sets(padded + 1);
  for (int k = 0; k < len; ++k) {
    sets[k + 1] = initial_sets[k];
    std::sort(sets[k + 1].begin(), sets[k + 1].end());
    sets[k + 1].erase(std::unique(sets[k + 1].begin(), sets[k + 1].end()),
                      sets[k + 1].end());
  }

  PathDoubleResult out;
  out.claimed.assign(len, {});
  out.broken.assign(len, 0);

  auto physical = [&](int pos) { return std::min(pos, len); };

  for (int step = 1; step < padded; step *= 2) {
    std::uint64_t iter_rounds = 0;
    for (int v = step; v <= padded; v += 2 * step) {
      auto& s = sets[v];
      if (s.empty()) continue;
      // Line 5: congestion check applies at physical positions only (a
      // virtual position has no physical edge above it).
      if (v <= len && static_cast<int>(s.size()) >= 2 * congestion_cap) {
        if (v < len) out.broken[v - 1 + 1 - 1] = 1;  // edge above position v
        // (claims die; edges below stay claimed from earlier moves)
        s.clear();
        continue;
      }
      const int u = v + step;
      // Line 9: transfers blocked by broken edges between v and u stall.
      bool blocked = false;
      for (int w = physical(v); w < physical(u); ++w)
        if (out.broken[w - 1 + 1 - 1]) {  // edge above position w
          blocked = true;
          break;
        }
      if (blocked) continue;
      // Claim the physical edges crossed and account the pipelined cost.
      const int hops = physical(u) - physical(v);
      for (int w = physical(v); w < physical(u); ++w)
        merge_into(out.claimed[w - 1], s);
      if (hops > 0) {
        iter_rounds = std::max(
            iter_rounds, static_cast<std::uint64_t>(hops + s.size() - 1));
        out.messages += static_cast<std::uint64_t>(hops) * s.size();
      }
      merge_into(sets[u], s);
      s.clear();
    }
    out.rounds += iter_rounds;
  }

  // Everything that survived sits at the arithmetic sink.
  out.sink_set = sets[padded];
  // Residue stuck below broken edges stays where it stalled; it neither
  // crosses the light edge nor claims further edges.
  return out;
}

DetShortcutResult build_shortcut_det(sim::Engine& eng,
                                     const graph::Partition& p,
                                     const shortcut::SubPartDivision& d,
                                     const NeighborLabels& labels,
                                     const tree::SpanningForest& t,
                                     const tree::HeavyPaths& hp,
                                     const DetShortcutConfig& cfg) {
  const auto& g = eng.graph();
  labels.check_matches(g, p);
  const auto snap = eng.snap();

  int max_reps = cfg.max_repetitions;
  if (max_reps <= 0)
    max_reps = static_cast<int>(std::ceil(std::log2(std::max(2, g.n())))) + 4;

  DetShortcutResult out;
  out.sc = shortcut::Shortcut::empty(g.n());
  out.part_frozen.assign(p.num_parts, 0);
  out.frozen_at.assign(p.num_parts, -1);
  std::vector<char> settled(p.num_parts, 0);
  if (!cfg.skip_parts.empty()) {
    PW_CHECK(static_cast<int>(cfg.skip_parts.size()) == p.num_parts);
    settled = cfg.skip_parts;
  }
  auto all_settled = [&] {
    return std::all_of(settled.begin(), settled.end(),
                       [](char c) { return c != 0; });
  };

  // Paths grouped by scheduling level.
  std::vector<std::vector<int>> paths_by_level(hp.max_level + 1);
  for (int pth = 0; pth < static_cast<int>(hp.paths.size()); ++pth)
    paths_by_level[hp.level_of_path[pth]].push_back(pth);

  for (int rep = 0; rep < max_reps && !all_settled(); ++rep) {
    // Lines 4-8: seed claims at representatives of active parts.
    std::vector<std::vector<std::vector<int>>> seed(hp.paths.size());
    for (std::size_t pth = 0; pth < hp.paths.size(); ++pth)
      seed[pth].assign(hp.paths[pth].size(), {});
    for (int s = 0; s < d.num_subparts; ++s) {
      const int rep_node = d.rep_of_subpart[s];
      const int part = p.part_of[rep_node];
      if (settled[part]) continue;
      seed[hp.path_of[rep_node]][hp.pos_in_path[rep_node]].push_back(part);
    }

    // Candidate shortcut built this repetition.
    auto candidate = shortcut::Shortcut::empty(g.n());

    // Lines 9-13: process levels bottom-up; sinks push their surviving set
    // across their light edge into the parent path's seed.
    for (const auto& level : paths_by_level) {
      std::uint64_t level_rounds = 0, level_messages = 0;
      std::uint64_t cross_rounds = 0, cross_messages = 0;
      for (int pth : level) {
        const auto& nodes = hp.paths[pth];
        const auto run = path_shortcut_double(seed[pth], cfg.congestion_cap);
        level_rounds = std::max(level_rounds, run.rounds);
        level_messages += run.messages;
        // Claimed path edges: the edge above position k+1 is the parent
        // edge of node nodes[k].
        for (std::size_t k = 0; k + 1 < nodes.size(); ++k)
          if (!run.claimed[k].empty())
            merge_into(candidate.parts_on[nodes[k]], run.claimed[k]);
        if (run.sink_set.empty()) continue;
        const int head = nodes.back();
        if (t.parent[head] < 0) continue;  // reached the root of T
        // Line 12: cross the light edge (claiming it) into the parent path.
        merge_into(candidate.parts_on[head], run.sink_set);
        const int u = t.parent[head];
        auto& dest = seed[hp.path_of[u]][hp.pos_in_path[u]];
        dest.insert(dest.end(), run.sink_set.begin(), run.sink_set.end());
        cross_rounds = std::max(
            cross_rounds, static_cast<std::uint64_t>(run.sink_set.size()));
        cross_messages += run.sink_set.size();
      }
      // Lemma 6.6 schedule: paths of one level run in parallel; the light
      // edge hops pipeline behind them.
      eng.charge_rounds(level_rounds + cross_rounds);
      eng.charge_messages(level_messages + cross_messages);
    }

    shortcut::annotate_block_roots(g, t, candidate);

    // Line 14: verify and freeze (Algorithm 2, real traffic), for the
    // unsettled parts only; no other verdict is read.
    PaGivenConfig vcfg;
    vcfg.mode = cfg.mode;
    std::vector<char> unsettled(p.num_parts, 0);
    for (int i = 0; i < p.num_parts; ++i) unsettled[i] = !settled[i];
    const auto verdict = verify_block_parameter(
        eng, p, d, labels, candidate, t, 3 * cfg.block_target, vcfg,
        unsettled);
    std::vector<char> newly_frozen(p.num_parts, 0);
    for (int i = 0; i < p.num_parts; ++i) {
      if (!unsettled[i] || !verdict.part_good[i]) continue;
      settled[i] = 1;
      out.part_frozen[i] = 1;
      out.frozen_at[i] = rep;
      newly_frozen[i] = 1;
    }
    shortcut::adopt_parts(out.sc, candidate, newly_frozen);
  }

  shortcut::annotate_block_roots(g, t, out.sc);
  out.stats = eng.since(snap);
  return out;
}

}  // namespace pw::core
