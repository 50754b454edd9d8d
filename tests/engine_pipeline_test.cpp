// Pipelined round close (DESIGN.md §8): with ExecutionPolicy::pipeline the
// callback and merge phases of a round overlap — a destination shard merges
// as soon as its incoming traffic is complete, while unrelated shards still
// run callbacks. Everything observable must be BIT-IDENTICAL to both the
// barriered sharded engine (§7) and the sequential engine: these tests pin
// that under adversarial fan-in, self-rewake, mid-flight drains, and the
// checked §7 contract violations, which must still abort while merge-stage
// tasks are in flight.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <cstdint>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"
#include "tests/policy_matrix.hpp"

namespace pw::sim {
namespace {

using graph::Graph;

constexpr ExecutionPolicy kPipelined{.num_threads = 4, .pipeline = true};
constexpr ExecutionPolicy kBarriered{.num_threads = 4, .pipeline = false};

TEST(EnginePipeline, PolicySelectsThePipelinedClose) {
  Graph g = graph::gen::path(64);
  EXPECT_TRUE(Engine(g, kPipelined).pipelined());
  EXPECT_FALSE(Engine(g, kBarriered).pipelined());
  // One shard has no phases to overlap: the flag degrades to sequential.
  constexpr ExecutionPolicy kOneShard{.num_threads = 1, .pipeline = true};
  EXPECT_FALSE(Engine(g, kOneShard).pipelined());
}

// Full per-node delivery traces — every (activation, from, port, payload)
// tuple a callback observes, in order — must be identical to the sequential
// engine. Per-node collection is §7-conforming: node v's callback appends
// only to trace[v].
TEST(EnginePipeline, PerNodeDeliveryTraceMatchesSequential) {
  Rng rng(11);
  const Graph g = graph::gen::random_connected(512, 1536, rng);

  auto trace_with = [&](ExecutionPolicy policy) {
    Engine eng(g, policy);
    std::vector<std::vector<std::uint64_t>> trace(
        static_cast<std::size_t>(g.n()));
    std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
    seen[0] = 1;
    eng.wake(0);
    eng.run([&](int v) {
      auto& t = trace[static_cast<std::size_t>(v)];
      t.push_back(0xa0a0a0a0ULL);  // activation marker
      for (const auto& in : eng.inbox(v)) {
        t.push_back(static_cast<std::uint64_t>(in.from) << 32 |
                    static_cast<std::uint32_t>(in.port));
        t.push_back(in.msg.a);
      }
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
    EXPECT_EQ(reference, trace_with(policy)) << policy_name(policy);
}

// The hub of a star sits in shard 0 and its merge depends on every other
// shard's callbacks; the leaves' shards merge with a single-entry dependency
// column. The hub must still see one intact inbox in ascending sender order.
TEST(EnginePipeline, AdversarialFanInAcrossShards) {
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

// Self-rewake plus neighbor traffic from inside pipelined callbacks: the
// rewaking nodes span all shards, so every round has both fresh wakes (from
// callbacks) and merged deliveries (from the overlapped stage) landing in
// the same wake epoch.
TEST(EnginePipeline, SelfRewakeWithTrafficAcrossModes) {
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

// drain() between pipelined phases: a budgeted run() exits with poison
// traffic mid-flight in every shard's buckets-already-merged state; drain
// must discard all of it and the next phase must see only its own traffic.
TEST(EnginePipeline, DrainDiscardsMidFlightPipelinedTraffic) {
  Rng rng(9);
  const Graph g = graph::gen::random_connected(50, 150, rng);
  Engine eng(g, kPipelined);

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

// Repeated phases on one pipelined engine: wake lists, bucket cursors, runs,
// and the dependency counters of the two-stage dispatch must all reset
// cleanly between rounds and phases.
TEST(EnginePipeline, PhasesRepeatIdentically) {
  Rng rng(5);
  const Graph g = graph::gen::random_connected(200, 500, rng);
  Engine eng(g, kPipelined);
  std::uint64_t first_phase_msgs = 0;
  for (int phase = 0; phase < 5; ++phase) {
    const auto snap = eng.snap();
    std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
    seen[static_cast<std::size_t>(phase)] = 1;
    eng.wake(phase);
    eng.run([&](int v) {
      bool fresh = v == phase && eng.inbox(v).empty();
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        fresh = true;
      }
      if (!fresh) return;
      for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{});
    });
    for (int v = 0; v < g.n(); ++v) EXPECT_TRUE(seen[static_cast<std::size_t>(v)]);
    const auto stats = eng.since(snap);
    if (phase == 0) {
      first_phase_msgs = stats.messages;
    } else {
      EXPECT_EQ(stats.messages, first_phase_msgs) << "phase " << phase;
    }
    EXPECT_TRUE(eng.idle());
  }
}

// Degenerate shard shapes: more threads than nodes still pipelines over the
// few shards that exist.
TEST(EnginePipeline, MoreThreadsThanNodes) {
  const Graph g = graph::gen::path(3);
  Engine eng(g, ExecutionPolicy{.num_threads = 16, .pipeline = true});
  eng.wake(0);
  std::atomic<int> deliveries{0};
  eng.run([&](int v) {
    if (v == 0 && eng.inbox(v).empty()) {
      eng.send(0, 0, Msg{7, 42, 0, 0});
      return;
    }
    for (const auto& in : eng.inbox(v)) {
      EXPECT_EQ(in.msg.tag, 7);
      deliveries.fetch_add(1);
    }
  });
  EXPECT_EQ(deliveries.load(), 1);
  EXPECT_EQ(eng.messages(), 1u);
}

// The §7 contract checks must keep firing while merge-stage tasks share the
// dispatch with callbacks: a cross-shard send from a pipelined callback
// aborts exactly like it does under the barriered dispatch. The whole engine
// lives inside EXPECT_DEATH so the worker pool spawns in the death-test
// child, not the forking parent.
TEST(EnginePipelineDeath, CrossShardSendFromPipelinedCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, kPipelined);
        eng.wake(40);  // shard 2; its neighbor 39 lives in shard 2 as well,
                       // but sending AS node 1 (shard 0) is cross-shard
        eng.run([&](int) { eng.send(1, 0, Msg{}); });
      },
      "outside its shard");
}

// Cross-shard inbox READS abort too: under the pipelined close the other
// shard's delivery region may already be merging for the next round, so the
// read that was mere nondeterminism under the barriered close would be a
// silent data race (§7 contract, checked in DataPlane::inbox).
TEST(EnginePipelineDeath, CrossShardInboxReadFromPipelinedCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, kPipelined);
        eng.wake(40);  // shard 2; node 1 lives in shard 0
        eng.run([&](int) { (void)eng.inbox(1).size(); });
      },
      "outside its shard");
}

// Accounting charges stay forbidden inside pipelined callbacks: the engine
// counters are global and the merge overlap makes the race window wider, not
// narrower (DESIGN.md §7).
TEST(EnginePipelineDeath, ChargeFromPipelinedCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, kPipelined);
        eng.wake(0);
        eng.run([&](int) { eng.charge_messages(1); });
      },
      "shard-parallel callback");
}

}  // namespace
}  // namespace pw::sim
