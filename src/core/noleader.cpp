#include "src/core/noleader.hpp"

#include <algorithm>
#include <cmath>

namespace pw::core {

namespace {

enum : std::uint16_t { kPseudoId = 41 };

constexpr std::uint64_t kNone = ~0ULL;

}  // namespace

NoLeaderResult pa_noleader(PaSolver& solver, const graph::Partition& p,
                           const Agg& agg,
                           const std::vector<std::uint64_t>& values) {
  auto& eng = solver.engine();
  const auto& g = eng.graph();
  const auto snap = eng.snap();
  Rng rng(solver.config().seed ^ 0x9d2c5680ULL);

  // Pseudo-part label = its leader's node id (Appendix B lines 1-2).
  std::vector<int> pseudo(g.n());
  for (int v = 0; v < g.n(); ++v) pseudo[v] = v;

  std::vector<int> nbr_pseudo(g.num_arcs(), -1);
  std::vector<char> nbr_coin(g.num_arcs(), 0);

  const int cap = 4 * static_cast<int>(std::ceil(std::log2(std::max(2, g.n())))) + 8;
  int rounds_used = 0;
  for (int round = 0;; ++round) {
    PW_CHECK_MSG(round <= cap, "Algorithm 9 coarsening failed to converge");

    // Coins: the pseudo-part leader flips; the flip rides along with the id
    // announcement (one O(log n)-bit message per edge).
    std::vector<char> coin_of(g.n(), 0);  // indexed by pseudo id (= leader)
    for (int v = 0; v < g.n(); ++v)
      if (pseudo[v] == v) coin_of[v] = rng.next_bool(0.5) ? 1 : 0;

    // Announce (pseudo id, coin) to neighbors.
    {
      std::vector<char> sent(g.n(), 0);
      for (int v = 0; v < g.n(); ++v) eng.wake(v);
      eng.run([&](int v) {
        for (const auto& in : eng.inbox(v)) {
          if (in.msg.tag != kPseudoId) continue;
          nbr_pseudo[g.arc_id(v, in.port)] = static_cast<int>(in.msg.a);
          nbr_coin[g.arc_id(v, in.port)] = static_cast<char>(in.msg.b);
        }
        if (sent[v]) return;
        sent[v] = 1;
        for (int port = 0; port < g.degree(v); ++port)
          eng.send(v, port,
                   sim::Msg{kPseudoId, static_cast<std::uint64_t>(pseudo[v]),
                            static_cast<std::uint64_t>(coin_of[pseudo[v]]), 0});
      });
    }

    // Pseudo-partition with known leaders (the label IS the leader id).
    graph::Partition pp = graph::Partition::from_labels(pseudo);
    pp.leader.assign(pp.num_parts, -1);
    for (int v = 0; v < g.n(); ++v)
      if (pseudo[v] == v) pp.leader[pp.part_of[v]] = v;
    solver.set_partition(pp);

    // Line 5: tails pick an edge into an adjacent head pseudo-part of the
    // same input part (the coin-flip star joining). The candidate carries
    // the target pseudo id in its low word.
    std::vector<std::uint64_t> cand(g.n(), kNone);
    bool any_cross = false;
    for (int v = 0; v < g.n(); ++v) {
      for (int port = 0; port < g.degree(v); ++port) {
        const int a = g.arc_id(v, port);
        const int u = g.arcs(v)[port].to;
        if (p.part_of[u] != p.part_of[v]) continue;
        if (nbr_pseudo[a] == pseudo[v]) continue;
        any_cross = true;
        if (coin_of[pseudo[v]] != 0) continue;  // heads never join
        if (nbr_coin[a] == 0) continue;         // join heads only
        const std::uint64_t key =
            (static_cast<std::uint64_t>(g.arc_id(v, port)) << 32) |
            static_cast<std::uint32_t>(nbr_pseudo[a]);
        cand[v] = std::min(cand[v], key);
      }
    }
    if (!any_cross) break;  // pseudo-partition == input partition

    // Lines 6-9: the leader learns the chosen target (PA min) and the whole
    // pseudo-part adopts the target's id/leader (PA broadcast via scatter).
    const auto chosen = solver.aggregate(agg::min(), cand);
    std::vector<std::uint64_t> adopt(g.n(), kNone);
    for (int i = 0; i < pp.num_parts; ++i) {
      const int leader = pp.leader[i];
      if (chosen.part_value[i] == kNone) continue;
      adopt[leader] = chosen.part_value[i] & 0xffffffffULL;  // target pseudo id
    }
    // Broadcast the adoption decision within each pseudo-part: min over
    // (leader's decision, kNone elsewhere).
    const auto decision = solver.aggregate(agg::min(), adopt);
    for (int v = 0; v < g.n(); ++v)
      if (decision.node_value[v] != kNone)
        pseudo[v] = static_cast<int>(decision.node_value[v]);
    rounds_used = round + 1;
  }

  // Line 10: ordinary PA on the coarsened partition (= input partition,
  // with elected leaders). The loop always exits with it already installed
  // as its last pseudo-partition, and it stays installed for the caller.
  const auto res = solver.aggregate(agg, values);

  NoLeaderResult out;
  out.coarsening_rounds = rounds_used;
  out.node_value = res.node_value;
  out.part_value.assign(p.num_parts, agg.identity);
  out.elected_leader.assign(p.num_parts, -1);
  for (int v = 0; v < g.n(); ++v) {
    out.part_value[p.part_of[v]] = res.node_value[v];
    if (pseudo[v] == v) out.elected_leader[p.part_of[v]] = v;
  }
  out.stats = eng.since(snap);
  return out;
}

}  // namespace pw::core
