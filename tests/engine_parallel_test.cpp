// Shard-parallel engine semantics (DESIGN.md §7): everything the sequential
// engine guarantees must hold verbatim under ExecutionPolicy{k > 1} — the
// same drain hygiene, fan-in delivery, self-rewake scheduling, and phase
// reuse, with shard boundaries crossing right through the traffic patterns.
// Cross-thread-count count/trace equality is pinned by
// engine_determinism_test; this file covers the stateful corners and the
// checked §7 contract violations.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <set>

#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"

namespace pw::sim {
namespace {

using graph::Graph;

constexpr ExecutionPolicy kSharded{.num_threads = 4};

// Mirror of EngineStress.DrainDiscardsInFlightTrafficWithoutCorruptingLaterRounds
// with the data plane split into 4 shards: drain() must discard delivered-but-
// unread runs and wakeups in EVERY shard, and no stale run, offset, or count
// may leak into a later round's inboxes through the per-shard merge.
TEST(EngineParallel, DrainDiscardsUnderShards) {
  Rng rng(9);
  Graph g = graph::gen::random_connected(50, 150, rng);
  Engine eng(g, kSharded);

  // Phase 1: everybody sends a poison message on every port, then the phase
  // is aborted mid-flight.
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  eng.begin_round();
  for (int v : eng.active_nodes())
    for (int p = 0; p < g.degree(v); ++p)
      eng.send(v, p, Msg{66, 0xdead, 0, 0});
  eng.end_round();
  EXPECT_FALSE(eng.idle());
  eng.drain();
  EXPECT_TRUE(eng.idle());

  // Phase 2: a clean two-hop relay must see exactly its own traffic.
  eng.wake(7);
  eng.begin_round();
  ASSERT_EQ(eng.active_nodes().size(), 1u);
  EXPECT_TRUE(eng.inbox(7).empty());
  for (int p = 0; p < g.degree(7); ++p)
    eng.send(7, p, Msg{1, static_cast<std::uint64_t>(p), 0, 0});
  eng.end_round();

  eng.begin_round();
  int received = 0;
  for (int v : eng.active_nodes()) {
    for (const auto& in : eng.inbox(v)) {
      EXPECT_EQ(in.msg.tag, 1) << "stale message leaked to node " << v;
      EXPECT_EQ(in.from, 7);
      EXPECT_EQ(g.arcs(v)[in.port].to, 7);
      ++received;
    }
  }
  eng.end_round();
  EXPECT_EQ(received, g.degree(7));
  eng.drain();

  // Phase 3: drain() directly after a wake (nothing delivered).
  eng.wake(3);
  eng.drain();
  EXPECT_TRUE(eng.idle());
  eng.wake(3);
  eng.begin_round();
  EXPECT_TRUE(eng.inbox(3).empty());
  eng.end_round();
}

// The hub of a star sits in shard 0 while most senders live in other shards:
// the merge must combine all cross-shard buckets into one intact inbox, in
// ascending sender order.
TEST(EngineParallel, MaxFanInAcrossShards) {
  Graph g = graph::gen::star(64);
  Engine eng(g, kSharded);
  for (int v = 1; v < g.n(); ++v) eng.wake(v);
  eng.begin_round();
  for (int v : eng.active_nodes())
    eng.send(v, 0, Msg{7, static_cast<std::uint64_t>(v), 0, 0});
  eng.end_round();

  eng.begin_round();
  std::set<std::uint64_t> senders;
  int last = -1;
  for (const auto& in : eng.inbox(0)) {
    EXPECT_EQ(in.msg.tag, 7);
    EXPECT_LT(last, in.from) << "delivery order broke ascending sender order";
    last = in.from;
    senders.insert(in.msg.a);
  }
  eng.end_round();
  EXPECT_EQ(senders.size(), 63u);
}

// Self-rewake from inside shard-parallel callbacks (the one wake() the §7
// contract allows there), with the rewaking nodes spread over all shards.
TEST(EngineParallel, SelfRewakeInParallelCallbacks) {
  Graph g = graph::gen::path(64);
  Engine eng(g, kSharded);
  const int probes[] = {0, 17, 33, 63};  // one per shard
  std::array<std::atomic<int>, 64> activations{};
  for (int v : probes) eng.wake(v);
  eng.run([&](int v) {
    const int k = activations[static_cast<std::size_t>(v)].fetch_add(1) + 1;
    if (k < 5) eng.wake(v);  // self-rewake
  });
  for (int v : probes)
    EXPECT_EQ(activations[static_cast<std::size_t>(v)].load(), 5) << v;
  EXPECT_EQ(eng.rounds(), 5u);
}

// Repeated flood phases on one sharded engine must behave identically —
// shard wake lists, bucket cursors, and runs all reset cleanly.
TEST(EngineParallel, PhasesReuseCleanlyUnderShards) {
  Rng rng(5);
  Graph g = graph::gen::random_connected(200, 500, rng);
  Engine eng(g, kSharded);
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
    for (int v = 0; v < g.n(); ++v)
      EXPECT_TRUE(seen[static_cast<std::size_t>(v)]);
    const auto stats = eng.since(snap);
    if (phase == 0) {
      first_phase_msgs = stats.messages;
    } else {
      EXPECT_EQ(stats.messages, first_phase_msgs) << "phase " << phase;
    }
    EXPECT_TRUE(eng.idle());
  }
}

// idle() must answer identically mid-round at any shard count: the single-
// shard plane wakes receivers at send() time while the sharded one defers to
// the end_round() merge, but staged traffic counts as pending either way.
TEST(EngineParallel, MidRoundIdleMatchesSequential) {
  Graph g = graph::gen::path(64);
  for (const int threads : {1, 4}) {
    Engine eng(g, ExecutionPolicy{threads});
    eng.wake(0);
    EXPECT_FALSE(eng.idle()) << threads;
    eng.begin_round();
    EXPECT_TRUE(eng.idle()) << threads;  // wake consumed, nothing in flight
    eng.send(0, 0, Msg{});
    EXPECT_FALSE(eng.idle()) << threads;  // staged message is in flight
    eng.end_round();
    EXPECT_FALSE(eng.idle()) << threads;
    eng.drain();
    EXPECT_TRUE(eng.idle()) << threads;
  }
}

// A manual loop sending out of ascending sender order on a multi-shard
// engine would receive a different inbox order than the 1-thread engine
// (the merge reconstructs ascending-sender order) — it must abort, not
// silently diverge. The whole engine lives inside EXPECT_DEATH so the
// worker pool spawns in the death-test child, not the forking parent.
TEST(EngineParallelDeath, OutOfOrderManualSendAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Graph g = graph::gen::path(64);
  EXPECT_DEATH(
      {
        Engine eng(g, kSharded);
        eng.wake(1);
        eng.wake(40);
        eng.begin_round();
        eng.send(40, 0, Msg{});
        eng.send(1, 0, Msg{});
      },
      "non-decreasing sender");
}

// wake() is shard-local like send(): a parallel callback may wake same-shard
// siblings (their wake lists merge only after the shard's sweep) but never a
// node of another shard, whose list its owner may be mutating right now
// (§7 contract, checked in DataPlane::wake).
TEST(EngineParallelDeath, CrossShardWakeFromParallelCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, kSharded);
        eng.wake(40);  // shard 2; node 1 lives in shard 0
        eng.run([&](int) { eng.wake(1); });
      },
      "outside its shard");
}

// idle() reads every shard's wake list, so calling it from inside a parallel
// callback races with the other shards' sweeps — forbidden like every other
// cross-shard access (§7 contract, checked in DataPlane::pending).
TEST(EngineParallelDeath, IdleFromParallelCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, kSharded);
        eng.wake(40);
        eng.run([&](int) { (void)eng.idle(); });
      },
      "shard-parallel callback");
}

// The §7 contract checks fire from inside a shard-parallel callback: a
// cross-shard send aborts. The whole engine lives inside EXPECT_DEATH so the
// worker pool spawns in the death-test child, not the forking parent.
TEST(EngineParallelDeath, CrossShardSendFromParallelCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, kSharded);
        eng.wake(40);  // shard 2; its neighbor 39 lives in shard 2 as well,
                       // but sending AS node 1 (shard 0) is cross-shard
        eng.run([&](int) { eng.send(1, 0, Msg{}); });
      },
      "outside its shard");
}

// Cross-shard inbox READS abort too: what such a read sees would depend on
// the thread schedule, not on the model (§7 contract, checked in
// DataPlane::inbox).
TEST(EngineParallelDeath, CrossShardInboxReadFromParallelCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, kSharded);
        eng.wake(40);  // shard 2; node 1 lives in shard 0
        eng.run([&](int) { (void)eng.inbox(1).size(); });
      },
      "outside its shard");
}

// Accounting charges are forbidden inside parallel callbacks: the engine
// counters are global and unsynchronized (DESIGN.md §7).
TEST(EngineParallelDeath, ChargeFromParallelCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, kSharded);
        eng.wake(0);
        eng.run([&](int) { eng.charge_messages(1); });
      },
      "shard-parallel callback");
}

// A policy requesting more threads than the graph has nodes must degrade to
// one shard per node at most (and still work).
TEST(EngineParallel, MoreThreadsThanNodes) {
  Graph g = graph::gen::path(3);
  Engine eng(g, ExecutionPolicy{16});
  eng.wake(0);
  int deliveries = 0;
  eng.run([&](int v) {
    if (v == 0 && eng.inbox(v).empty()) {
      eng.send(0, 0, Msg{7, 42, 0, 0});
      return;
    }
    for (const auto& in : eng.inbox(v)) {
      EXPECT_EQ(in.msg.tag, 7);
      ++deliveries;
    }
  });
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(eng.messages(), 1u);
}

// A thread request above ExecutionPolicy::kMaxThreads is rejected before the data
// plane sizes its S² bucket table or the executor spawns a single worker, so
// the check itself starts no thread. The limit itself is accepted: on a
// 3-node graph it rounds down to at most 3 shards.
TEST(EngineParallelDeath, ThreadCountAboveLimitAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Graph g = graph::gen::path(3);
  EXPECT_DEATH({ Engine eng(g, ExecutionPolicy{ExecutionPolicy::kMaxThreads + 1}); },
               "exceeds the engine's limit of 1024 threads");
  EXPECT_DEATH({ Engine eng(g, ExecutionPolicy{100000}); },
               "num_threads = 100000 exceeds");
  Engine at_limit(g, ExecutionPolicy{ExecutionPolicy::kMaxThreads});
  EXPECT_LE(at_limit.num_threads(), 3);
}

}  // namespace
}  // namespace pw::sim
