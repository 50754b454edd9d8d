// Tiny synthetic engine workloads shared by the microbench and the engine
// allocation tests, so the workload the perf trajectory measures and the
// workload the zero-allocation guard protects are the same by construction.
#pragma once

#include <algorithm>
#include <vector>

#include "src/sim/engine.hpp"

namespace pw::bench {

// One flood phase from node 0: every node forwards on all ports the first
// time it is reached. `seen` is caller-owned scratch of size n, reused
// across phases so repeated floods allocate nothing.
inline void flood_workload(sim::Engine& eng, std::vector<char>& seen) {
  const auto& g = eng.graph();
  std::fill(seen.begin(), seen.end(), 0);
  seen[0] = 1;
  eng.wake(0);
  eng.run([&](int v) {
    bool fresh = v == 0 && eng.inbox(v).empty();
    if (!seen[v]) {
      seen[v] = 1;
      fresh = true;
    }
    if (!fresh) return;
    for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, sim::Msg{});
  });
}

// One skewed-activity phase: only the TOP n/skew_denom node ids are senders
// — they re-wake themselves and send on every port each of `rounds` rounds,
// while everything below just receives. With contiguous id-range shards the
// callback work of a round concentrates in the top shard(s) and the rest
// finish their sweeps almost immediately — the skewed regime of DESIGN.md
// §8, where every round's merges wait out the hot shard's whole sweep at the
// dispatch barrier. Defined purely in node-id terms, so the work is
// identical under every shard layout (the trace/drift guards rely on that). The final drain discards the hot set's last
// self-wakes so repeated phases do identical work.
//
// `skew_denom` sets the hot-band fraction (hot senders = n / skew_denom,
// at least 1): 8 is the historical default, larger values concentrate the
// sending into a thinner, hotter band, so the merges grow more lopsided.
// The microbench sweeps it via PW_BENCH_SKEW.
inline void skewed_flood_workload(sim::Engine& eng, int rounds,
                                  int skew_denom = 8) {
  const auto& g = eng.graph();
  if (skew_denom < 1) skew_denom = 1;
  const int hot_beg = g.n() - std::max(1, g.n() / skew_denom);
  for (int v = hot_beg; v < g.n(); ++v) eng.wake(v);
  eng.run(
      [&](int v) {
        if (v < hot_beg) return;  // cold band: receive only
        eng.wake(v);
        for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, sim::Msg{});
      },
      static_cast<std::uint64_t>(rounds));
  eng.drain();
}

}  // namespace pw::bench
