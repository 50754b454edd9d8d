#include "src/core/corefast.hpp"

#include <algorithm>

namespace pw::core {

namespace {

enum : std::uint16_t { kClaim = 1, kRootDepth = 2 };

}  // namespace

shortcut::Shortcut corefast_claim(sim::Engine& eng, const graph::Partition& p,
                                  const shortcut::SubPartDivision& d,
                                  const tree::SpanningForest& t,
                                  const std::vector<char>& participating,
                                  int congestion_cap) {
  const auto& g = eng.graph();
  PW_CHECK(congestion_cap >= 1);

  // Per node: distinct parts forwarded up the parent edge, whether the
  // parent edge broke, pending claims not yet forwarded (forwarded plus
  // queued stays <= cap), and — for the backflow — which child ports carried
  // each part's claim.
  std::vector<std::vector<int>> forwarded(g.n());
  std::vector<char> broken(g.n(), 0);
  std::vector<std::vector<int>> queue(g.n());  // parts awaiting the parent edge
  std::vector<std::vector<std::pair<int, int>>> claim_children(g.n());
  // Claims the node received but did not forward (it is their block root).
  std::vector<std::vector<int>> rooted(g.n());

  auto offer = [&](int v, int part) {
    // Dedup: drop if already forwarded, queued, or rooted here.
    auto& fwd = forwarded[v];
    if (std::find(fwd.begin(), fwd.end(), part) != fwd.end()) return;
    auto& q = queue[v];
    if (std::find(q.begin(), q.end(), part) != q.end()) return;
    auto& r = rooted[v];
    if (std::find(r.begin(), r.end(), part) != r.end()) return;
    // A queued part is already committed to the parent edge, so it counts
    // against the cap as much as a forwarded one.
    const bool saturated =
        static_cast<int>(fwd.size() + q.size()) >= congestion_cap;
    if (t.parent_port[v] < 0 || broken[v] || saturated) {
      if (t.parent_port[v] >= 0 && saturated)
        broken[v] = 1;  // the edge is saturated; nobody else may use it
      r.push_back(part);
      return;
    }
    q.push_back(part);
  };

  // Phase 1: representatives of participating parts inject claims; claims
  // climb with one message per edge per round (pipelined).
  for (int s = 0; s < d.num_subparts; ++s) {
    const int rep = d.rep_of_subpart[s];
    if (!participating[p.part_of[rep]]) continue;
    offer(rep, p.part_of[rep]);
    eng.wake(rep);
  }
  eng.run([&](int v) {
    for (const auto& in : eng.inbox(v)) {
      if (in.msg.tag != kClaim) continue;
      const int part = static_cast<int>(in.msg.a);
      claim_children[v].push_back({part, in.port});
      offer(v, part);
    }
    if (!queue[v].empty()) {
      const int part = queue[v].front();
      queue[v].erase(queue[v].begin());
      forwarded[v].push_back(part);
      eng.send(v, t.parent_port[v],
               sim::Msg{kClaim, static_cast<std::uint64_t>(part), 0, 0});
      if (!queue[v].empty()) eng.wake(v);
    }
  });

  // Phase 2: backflow — every block root pushes (part, its depth) down the
  // child edges that carried the part's claim, so each claimed edge learns
  // its block root's depth (consumed by Lemma 4.2 scheduling). O(depth)
  // rounds, one message per claimed edge.
  shortcut::Shortcut sc = shortcut::Shortcut::empty(g.n());
  for (int v = 0; v < g.n(); ++v) {
    sc.parts_on[v] = forwarded[v];
    std::sort(sc.parts_on[v].begin(), sc.parts_on[v].end());
    sc.block_root_depth_on[v].assign(sc.parts_on[v].size(), -1);
  }
  auto record_depth = [&](int v, int part, int depth) {
    const auto& parts = sc.parts_on[v];
    const auto it = std::lower_bound(parts.begin(), parts.end(), part);
    PW_CHECK(it != parts.end() && *it == part);
    sc.block_root_depth_on[v][it - parts.begin()] = depth;
  };
  // Per node: pending (part, root depth) notifications to push down.
  std::vector<std::vector<std::pair<int, int>>> notify(g.n());
  for (int v = 0; v < g.n(); ++v) {
    if (rooted[v].empty()) continue;
    for (int part : rooted[v]) notify[v].push_back({part, t.depth[v]});
    eng.wake(v);
  }
  eng.run([&](int v) {
    for (const auto& in : eng.inbox(v)) {
      if (in.msg.tag != kRootDepth) continue;
      const int part = static_cast<int>(in.msg.a);
      const int depth = static_cast<int>(in.msg.b);
      // This node forwarded the claim, so its parent edge is in Hi.
      record_depth(v, part, depth);
      notify[v].push_back({part, depth});
    }
    // Fan notifications out to the child ports that carried each claim; one
    // message per (edge, part) in total, batched one-per-port-per-round.
    std::vector<std::pair<int, std::pair<int, int>>> sends;  // port -> payload
    std::vector<char> port_used(g.degree(v), 0);
    auto& todo = notify[v];
    for (std::size_t k = 0; k < todo.size();) {
      const auto [part, depth] = todo[k];
      bool any_left = false;
      auto& kids = claim_children[v];
      for (std::size_t j = 0; j < kids.size();) {
        if (kids[j].first != part) {
          ++j;
          continue;
        }
        const int port = kids[j].second;
        if (port_used[port]) {
          ++j;
          any_left = true;
          continue;
        }
        port_used[port] = 1;
        sends.push_back({port, {part, depth}});
        kids.erase(kids.begin() + j);
      }
      if (any_left) {
        ++k;  // some children still pending (port conflict); retry next round
      } else {
        todo.erase(todo.begin() + k);
      }
    }
    for (const auto& [port, payload] : sends)
      eng.send(v, port,
               sim::Msg{kRootDepth, static_cast<std::uint64_t>(payload.first),
                        static_cast<std::uint64_t>(payload.second), 0});
    if (!todo.empty()) eng.wake(v);
  });

  // Every claimed edge must know its root depth now.
  for (int v = 0; v < g.n(); ++v)
    for (std::size_t k = 0; k < sc.parts_on[v].size(); ++k)
      PW_CHECK(sc.block_root_depth_on[v][k] >= 0);
  return sc;
}

}  // namespace pw::core
