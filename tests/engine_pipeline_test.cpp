// Engine::run's round close under the sharded engine (DESIGN.md §7): the
// callback sweep and the end-of-round merge run as two barriered dispatches
// per round. Everything observable must be BIT-IDENTICAL to the sequential
// engine: these tests pin that under adversarial fan-in, self-rewake with
// traffic, and mid-flight drains. The §7 contract death tests live in
// engine_parallel_test.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"
#include "tests/policy_matrix.hpp"
#include "tests/trace_recorder.hpp"

namespace pw::sim {
namespace {

using graph::Graph;

constexpr ExecutionPolicy kSharded{.num_threads = 4};

// Full delivery traces — every activation and inbox entry a callback
// observes, in order — must be identical to the sequential engine.
TEST(EngineRun, PerNodeDeliveryTraceMatchesSequential) {
  Rng rng(11);
  const Graph g = graph::gen::random_connected(512, 1536, rng);

  auto trace_with = [&](ExecutionPolicy policy) {
    Engine eng(g, policy);
    TraceRecorder trace(g.n());
    std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
    seen[0] = 1;
    eng.wake(0);
    eng.run([&](int v) {
      trace.record(eng, v);
      bool fresh = v == 0 && eng.inbox(v).empty();
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        fresh = true;
      }
      if (!fresh) return;
      for (int p = 0; p < g.degree(v); ++p)
        eng.send(v, p, Msg{7, static_cast<std::uint64_t>(v), 0, 0});
    });
    return trace;
  };

  const auto reference = trace_with(kPolicies[0]);
  for (const auto policy : kPolicies)
    EXPECT_TRUE(SameTrace(reference, trace_with(policy), policy_name(policy)));
}

// The hub of a star sits in shard 0 and its merge reads a bucket from every
// other shard; the leaves' shards each receive from shard 0 alone. The hub
// must still see one intact inbox in ascending sender order.
TEST(EngineRun, AdversarialFanInAcrossShards) {
  const Graph g = graph::gen::star(64);
  for (const auto policy : kPolicies) {
    Engine eng(g, policy);
    std::vector<std::uint64_t> hub_inbox;  // only node 0's callback writes this
    for (int v = 1; v < g.n(); ++v) eng.wake(v);
    eng.run([&](int v) {
      if (v == 0) {
        for (const auto& in : eng.inbox(v)) {
          EXPECT_EQ(in.msg.tag, 7);
          hub_inbox.push_back(in.msg.a);
        }
        return;
      }
      if (eng.inbox(v).empty())
        eng.send(v, 0, Msg{7, static_cast<std::uint64_t>(v), 0, 0});
    });
    ASSERT_EQ(hub_inbox.size(), 63u);
    for (std::size_t i = 0; i < hub_inbox.size(); ++i)
      EXPECT_EQ(hub_inbox[i], i + 1)
          << "ascending sender order broke at " << i << " under "
          << policy_name(policy);
  }
}

// Self-rewake plus neighbor traffic from inside parallel callbacks: the
// rewaking nodes span all shards, so every round has both fresh wakes (from
// callbacks) and merged deliveries (from the merge dispatch) landing in the
// same wake epoch.
TEST(EngineRun, SelfRewakeWithTrafficAcrossPolicies) {
  const Graph g = graph::gen::path(64);
  auto totals = [&](ExecutionPolicy policy) {
    Engine eng(g, policy);
    const int probes[] = {0, 17, 33, 63};  // one per shard
    std::array<std::atomic<int>, 64> activations{};
    for (int v : probes) eng.wake(v);
    eng.run([&](int v) {
      const int k = activations[static_cast<std::size_t>(v)].fetch_add(1) + 1;
      bool probe = false;
      for (int p : probes) probe = probe || p == v;
      if (probe && k < 5) {
        eng.wake(v);                // self-rewake
        eng.send(v, 0, Msg{1, 0, 0, 0});  // plus a neighbor poke
      }
    });
    for (int v : probes)
      EXPECT_EQ(activations[static_cast<std::size_t>(v)].load(), 5) << v;
    return std::pair{eng.rounds(), eng.messages()};
  };
  const auto reference = totals(kPolicies[0]);
  for (const auto policy : kPolicies)
    EXPECT_EQ(reference, totals(policy)) << policy_name(policy);
}

// drain() between run() phases: a budgeted run() exits with poison traffic
// mid-flight in every shard's buckets-already-merged state; drain must
// discard all of it and the next phase must see only its own traffic.
TEST(EngineRun, DrainDiscardsMidFlightTraffic) {
  Rng rng(9);
  const Graph g = graph::gen::random_connected(50, 150, rng);
  Engine eng(g, kSharded);

  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  eng.run(
      [&](int v) {
        for (int p = 0; p < g.degree(v); ++p) {
          // One poison message per arc per round; the stamp rule allows it
          // because each round is a fresh send.
          eng.send(v, p, Msg{66, 0xdead, 0, 0});
        }
      },
      2);  // exit with a full round of traffic still undelivered
  EXPECT_FALSE(eng.idle());
  eng.drain();
  EXPECT_TRUE(eng.idle());

  // Clean relay phase: only node 7's probe may be visible. The receipt
  // counter is shared across shards, so it must be atomic (§7 contract).
  eng.wake(7);
  std::atomic<int> received{0};
  eng.run([&](int v) {
    if (v == 7 && eng.inbox(v).empty()) {
      for (int p = 0; p < g.degree(7); ++p)
        eng.send(7, p, Msg{1, static_cast<std::uint64_t>(p), 0, 0});
      return;
    }
    for (const auto& in : eng.inbox(v)) {
      EXPECT_EQ(in.msg.tag, 1) << "stale message leaked to node " << v;
      EXPECT_EQ(in.from, 7);
      received.fetch_add(1);
    }
  });
  EXPECT_EQ(received.load(), g.degree(7));
  EXPECT_TRUE(eng.idle());
}

}  // namespace
}  // namespace pw::sim
