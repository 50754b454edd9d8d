// Differential trace fuzzing of the engine's execution-mode matrix (§7–§10).
//
// The determinism suites pin hand-picked workloads; this harness pins the
// space between them. Each iteration derives — from one seed — a random
// graph (family × size) and a random callback program (which ports each
// activation sends on, payloads, self-wakes, and a mid-run drain segment),
// then replays the identical program on the sequential engine and on every
// parallel configuration: {2,4} threads × {in-proc, shm-ring transport},
// plus a fault-policy sample of the whole matrix. Every replay must produce
// a bit-identical full observation trace (per-node inbox entries in order,
// totals, fault counters).
//
// Every failure message carries the iteration seed. Reproduce a CI failure
// locally with:
//   PW_FUZZ_SEED=<seed> PW_FUZZ_ITERS=1 ./engine_fuzz_test
// PW_FUZZ_SEED shifts the whole seed sequence; PW_FUZZ_ITERS (default 4)
// scales how many instances one run explores.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"
#include "src/util/rng.hpp"
#include "tests/policy_matrix.hpp"
#include "tests/trace_recorder.hpp"

namespace pw::sim {
namespace {

using graph::Graph;

// Counter-based mixing: every decision the fuzz program takes is a pure
// function of (seed, coordinates), so a program replays bit-identically on
// any engine configuration — the same trick the §9 fault plane uses.
std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

std::uint64_t h2(std::uint64_t a, std::uint64_t b) {
  return mix64(a * 0x9e3779b97f4a7c15ULL + b);
}

std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  const char* s = std::getenv(name);
  return s != nullptr && *s != '\0' ? std::strtoull(s, nullptr, 10) : fallback;
}

// The random instance: one of four families, 8..~160 nodes.
Graph make_graph(std::uint64_t seed) {
  Rng rng(h2(seed, 1));
  const int n = 8 + static_cast<int>(h2(seed, 2) % 150);
  switch (h2(seed, 3) % 4) {
    case 0: {
      const int m = n - 1 + static_cast<int>(h2(seed, 4) % (2 * n));
      return graph::gen::random_connected(n, m, rng);
    }
    case 1: {
      int side = 3;
      while ((side + 1) * (side + 1) <= n) ++side;
      return graph::gen::grid(side, side);
    }
    case 2: {
      int side = 3;
      while ((side + 1) * (side + 1) <= n) ++side;
      return graph::gen::torus(side, side);
    }
    default:
      return graph::gen::star(n);
  }
}

// One run of the seed's callback program on one engine configuration,
// returning the full observation trace. The program:
//   * starts from a seed-chosen wake set;
//   * on each activation, records the whole inbox, then — while the node's
//     activation budget lasts — sends on a seed-chosen subset of ports with
//     seed-derived payloads and maybe re-wakes itself;
//   * runs a capped first segment, then (seed-chosen) either drains the
//     in-flight remainder or lets it ride, re-wakes a fresh set, and runs to
//     quiescence.
// Activation budgets make quiescence unconditional: nothing sends past its
// budget, so traffic is finite in every segment.
TraceRecorder fuzz_trace(const Graph& g, std::uint64_t seed,
                         ExecutionPolicy policy, const FaultPolicy& faults) {
  Engine eng(g, policy, faults);
  const int n = g.n();
  TraceRecorder trace(n);
  std::vector<int> budget(static_cast<std::size_t>(n),
                          2 + static_cast<int>(h2(seed, 5) % 3));

  const auto callback = [&](int v) {
    trace.record(eng, v);
    std::uint64_t digest = h2(seed, 0xabcd0000ULL + static_cast<unsigned>(v));
    for (const auto& in : eng.inbox(v)) digest = h2(digest, in.msg.a);
    int& b = budget[static_cast<std::size_t>(v)];
    if (b <= 0) return;
    --b;
    const std::uint64_t act = h2(digest, static_cast<std::uint64_t>(b));
    for (int p = 0; p < g.degree(v); ++p) {
      const std::uint64_t hp = h2(act, static_cast<std::uint64_t>(p));
      if ((hp & 7) >= 5) continue;  // send on ~5/8 of the ports
      eng.send(v, p,
               Msg{static_cast<std::uint16_t>(hp >> 48), h2(hp, 1), 0, 0});
    }
    if ((act & 0x30) == 0 && b > 0) eng.wake(v);
  };

  const auto wake_some = [&](std::uint64_t salt) {
    const int count = 1 + static_cast<int>(h2(seed, salt) % 4);
    for (int i = 0; i < count; ++i)
      eng.wake(static_cast<int>(h2(seed, salt + 1 + static_cast<unsigned>(i)) %
                                static_cast<unsigned>(n)));
  };

  wake_some(100);
  eng.run(callback, /*max_rounds=*/2 + h2(seed, 6) % 3);
  if ((h2(seed, 7) & 1) != 0) eng.drain();  // discard the in-flight tail
  wake_some(200);
  eng.run(callback);
  EXPECT_TRUE(eng.idle());

  trace.note_totals(eng);
  trace.note_faults(eng.fault_stats());
  return trace;
}

// The fault-policy sample: fault-free, drop-only, mixed, and crash+mixed —
// one representative of each §9 verdict family.
std::vector<FaultPolicy> fault_sample(std::uint64_t seed, int n) {
  std::vector<FaultPolicy> out(4);
  for (std::size_t i = 0; i < out.size(); ++i) out[i].seed = h2(seed, 300 + i);
  out[1].drop_prob = 0.2;
  out[2].drop_prob = 0.1;
  out[2].delay_prob = 0.2;
  out[2].delay_rounds = 2;
  out[2].dup_prob = 0.1;
  out[3].drop_prob = 0.1;
  out[3].delay_prob = 0.1;
  out[3].delay_rounds = 1;
  // The two spans overlap in rounds ([1,3) vs [2,5)), and the fault plane
  // rejects overlapping spans on one node — so the victims must differ.
  const int first = static_cast<int>(h2(seed, 310) % static_cast<unsigned>(n));
  const int second =
      (first + 1 +
       static_cast<int>(h2(seed, 311) % static_cast<unsigned>(n - 1))) % n;
  out[3].crashes = {{first, 1, 3}, {second, 2, 5}};
  return out;
}

TEST(EngineFuzz, TraceIdenticalAcrossFullConfigMatrix) {
  const std::uint64_t base_seed = env_u64("PW_FUZZ_SEED", 0x5eedf00dULL);
  const std::uint64_t iters = env_u64("PW_FUZZ_ITERS", 4);
  std::uint64_t total_messages = 0;  // liveness: the matrix must carry traffic
  for (std::uint64_t it = 0; it < iters; ++it) {
    const std::uint64_t seed = h2(base_seed, it);
    SCOPED_TRACE("PW_FUZZ_SEED=" + std::to_string(base_seed) +
                 " iteration=" + std::to_string(it) +
                 " (derived seed " + std::to_string(seed) + ")");
    const Graph g = make_graph(seed);
    const auto faults = fault_sample(seed, g.n());
    for (std::size_t f = 0; f < faults.size(); ++f) {
      const auto reference =
          fuzz_trace(g, seed, kPolicies[0], faults[f]);
      total_messages += reference.noted("messages");
      const std::string where = " fault-config " + std::to_string(f) +
                                " n=" + std::to_string(g.n());
      for (ExecutionPolicy policy : kPolicies) {
        if (policy.num_threads == 1) continue;
        EXPECT_TRUE(SameTrace(reference, fuzz_trace(g, seed, policy, faults[f]),
                              policy_name(policy) + where));
        policy.transport = TransportKind::kShmRing;
        EXPECT_TRUE(SameTrace(reference, fuzz_trace(g, seed, policy, faults[f]),
                              policy_name(policy) + where));
        // Extra soak on the deepest configuration — 4 threads over the
        // in-place shm wire path stacks every protocol (parallel merges,
        // frame publish/retire), so it gets PW_FUZZ_SOAK_REPS more replays
        // than the rest of the matrix.
        if (policy.num_threads == 4) {
          const std::uint64_t reps = env_u64("PW_FUZZ_SOAK_REPS", 2);
          for (std::uint64_t r = 0; r < reps; ++r)
            EXPECT_TRUE(SameTrace(
                reference, fuzz_trace(g, seed, policy, faults[f]),
                policy_name(policy) + " soak rep " + std::to_string(r) +
                    where));
        }
      }
    }
  }
  // A seed set whose programs never send would vacuously pass everything
  // above; insist the explored instances moved real traffic.
  EXPECT_GT(total_messages, 0u);
}

}  // namespace
}  // namespace pw::sim
