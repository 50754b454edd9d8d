// Bucket-shape adversaries of the sharded round close (DESIGN.md §7).
//
// A sender shard's buckets are final when the callback dispatch returns, and
// destination d's merge reads every bucket feeding d. Every observable must
// stay BIT-IDENTICAL to the sequential engine across the shared policy
// matrix ({1, 2, 4} threads). These tests pin that under the shapes that
// stress the bucket/merge handoff — a hot sender shard whose one
// cross-shard feeder runs first vs last in the sweep, buckets with capacity
// but zero staged traffic, rounds whose traffic never crosses a shard
// boundary — plus the stamp/epoch wraps and the hardened drain() protocol.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"
#include "tests/policy_matrix.hpp"
#include "tests/trace_recorder.hpp"

namespace pw::sim {
namespace {

using graph::Graph;

// The delivery trace `drive` produces on a fresh engine under `policy`,
// with the accounting totals pinned alongside.
template <class Drive>
TraceRecorder trace_of(const Graph& g, ExecutionPolicy policy, Drive&& drive) {
  Engine eng(g, policy);
  TraceRecorder trace(g.n());
  drive(eng, trace);
  trace.note_totals(eng);
  return trace;
}

template <class Drive>
void expect_trace_equal_across_policies(const Graph& g, Drive&& drive) {
  const auto reference = trace_of(g, kPolicies[0], drive);
  for (const auto policy : kPolicies) {
    if (policy.num_threads == 1) continue;
    EXPECT_TRUE(
        SameTrace(reference, trace_of(g, policy, drive), policy_name(policy)));
  }
}

// Flood driver: every node forwards on all ports the first time it is
// reached; callbacks record their whole inbox.
void flood_drive(Engine& eng, TraceRecorder& trace) {
  const auto& g = eng.graph();
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
}

// 64 nodes; under ExecutionPolicy{4} shards are {0..15}, {16..31}, {32..47},
// {48..63}. The top shard runs a long busy chain every round, and its ONLY
// arc into the bottom shard leaves from `feeder` — at the front of the sweep
// (48) or at the back (63), so bucket (3 → 0) is complete early or late in
// its shard's sweep. Chains in the other shards give every bucket pair some
// capacity to exercise empty buckets too.
Graph skewed_star(int feeder) {
  std::vector<graph::Edge> es;
  es.push_back({0, feeder, 1});
  for (int v = 0; v < 63; ++v) es.push_back({v, v + 1, 1});
  return Graph::from_edges(64, es);
}

// Wakes the whole top shard (48..63) every round so its sweep is long, while
// the hub (node 0) just records what arrives. The workload is defined purely
// in node-id terms, so it is identical under every shard layout.
void skewed_drive(Engine& eng, TraceRecorder& trace) {
  const auto& g = eng.graph();
  for (int v = 48; v < 64; ++v) eng.wake(v);
  std::vector<int> rounds_left(static_cast<std::size_t>(g.n()), 3);
  eng.run([&](int v) {
    trace.record(eng, v);
    if (v < 48) return;  // below the hot band: receive only
    if (--rounds_left[static_cast<std::size_t>(v)] <= 0) return;
    eng.wake(v);
    for (int p = 0; p < g.degree(v); ++p)
      eng.send(v, p, Msg{9, static_cast<std::uint64_t>(v), 0, 0});
  });
}

TEST(EngineSeal, SkewedStarLastFeederFirstInSweep) {
  expect_trace_equal_across_policies(skewed_star(48), skewed_drive);
}

TEST(EngineSeal, SkewedStarLastFeederLastInSweep) {
  expect_trace_equal_across_policies(skewed_star(63), skewed_drive);
}

TEST(EngineSeal, PlainFloodOnSkewedStar) {
  expect_trace_equal_across_policies(skewed_star(48), flood_drive);
  expect_trace_equal_across_policies(skewed_star(63), flood_drive);
}

// Buckets with CAPACITY but zero staged traffic: the path edges carry the
// flood while the long-range chords never carry a message — their buckets
// reach the merge with no staged entry.
TEST(EngineSeal, CapacityCarryingBucketWithZeroStagedMessages) {
  std::vector<graph::Edge> es;
  for (int v = 0; v < 63; ++v) es.push_back({v, v + 1, 1});
  // Chords spanning every shard pair under both the 2- and 4-shard layouts.
  es.push_back({0, 33, 1});
  es.push_back({10, 50, 1});
  es.push_back({20, 60, 1});
  es.push_back({5, 18, 1});
  const Graph g = Graph::from_edges(64, es);
  expect_trace_equal_across_policies(g, [](Engine& eng, auto& trace) {
    const auto& gg = eng.graph();
    std::vector<char> seen(static_cast<std::size_t>(gg.n()), 0);
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
      // Forward only along path edges (|v - w| == 1): the chord ports stay
      // silent although their buckets have capacity.
      const auto arcs = gg.arcs(v);
      for (int p = 0; p < gg.degree(v); ++p) {
        const int w = arcs[static_cast<std::size_t>(p)].to;
        if (w == v + 1 || w == v - 1)
          eng.send(v, p, Msg{3, static_cast<std::uint64_t>(v), 0, 0});
      }
    });
  });
}

// A round whose traffic never crosses a shard boundary: nodes 5..10 poke
// their path neighbors (all of 4..11 sit inside the lowest shard under both
// the 2- and 4-shard layouts), so every cross-shard bucket is empty and
// every shard but the lowest merges nothing.
TEST(EngineSeal, SelfEdgeOnlyRound) {
  const Graph g = graph::gen::path(64);
  expect_trace_equal_across_policies(g, [](Engine& eng, auto& trace) {
    const auto& gg = eng.graph();
    for (int v = 5; v <= 10; ++v) eng.wake(v);
    eng.run([&](int v) {
      trace.record(eng, v);
      if (v < 5 || v > 10 || !eng.inbox(v).empty()) return;
      for (int p = 0; p < gg.degree(v); ++p)
        eng.send(v, p, Msg{4, static_cast<std::uint64_t>(v), 0, 0});
    });
  });
}

// The once-per-2^32-rounds stamp wrap clears the arc and run stamps inside
// one round close mid-run; the rounds after it must deliver exactly as
// before. Forced via the debug_set_wrap_state test hook a few rounds before
// the wrap.
TEST(EngineSeal, ForcedRoundIdWrapMidRun) {
  Rng rng(21);
  const Graph g = graph::gen::random_connected(256, 768, rng);
  auto drive = [](Engine& eng, TraceRecorder& tr) {
    eng.debug_set_wrap_state(std::numeric_limits<std::uint32_t>::max() - 2, 5);
    flood_drive(eng, tr);
  };
  expect_trace_equal_across_policies(g, drive);
}

// Same for the once-per-2^40 wake-epoch wrap (clears every wake word).
TEST(EngineSeal, ForcedWakeEpochWrapMidRun) {
  Rng rng(22);
  const Graph g = graph::gen::random_connected(256, 768, rng);
  auto drive = [](Engine& eng, TraceRecorder& tr) {
    eng.debug_set_wrap_state(100, (1ULL << 40) - 3);
    flood_drive(eng, tr);
  };
  expect_trace_equal_across_policies(g, drive);
}

// Both wraps armed at once, crossing within a few rounds of each other.
TEST(EngineSeal, ForcedDoubleWrapMidRun) {
  Rng rng(23);
  const Graph g = graph::gen::random_connected(256, 768, rng);
  auto drive = [](Engine& eng, TraceRecorder& tr) {
    eng.debug_set_wrap_state(std::numeric_limits<std::uint32_t>::max() - 3,
                             (1ULL << 40) - 2);
    flood_drive(eng, tr);
  };
  expect_trace_equal_across_policies(g, drive);
}

// drain() between budgeted run() segments: the first segment exits
// with a full round of traffic delivered-but-unread and the whole hot band
// re-woken; drain must discard all of it, and the next begin_round() must
// see no leaked cursor state (begin_round PW_CHECKs the staging buckets are
// empty, and an empty round trip must move no messages).
TEST(EngineSeal, DrainBetweenRunSegmentsLeaksNothing) {
  Rng rng(31);
  const Graph g = graph::gen::random_connected(96, 288, rng);
  constexpr ExecutionPolicy kSharded{.num_threads = 4};
  Engine eng(g, kSharded);

  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  eng.run(
      [&](int v) {
        eng.wake(v);  // keep every shard hot past the budget
        for (int p = 0; p < g.degree(v); ++p)
          eng.send(v, p, Msg{66, 0xdead, 0, 0});
      },
      2);
  EXPECT_FALSE(eng.idle());
  eng.drain();
  EXPECT_TRUE(eng.idle());

  // No leaked cursors or actives: an empty round trip is truly empty.
  const auto snap = eng.snap();
  eng.begin_round();
  EXPECT_TRUE(eng.active_nodes().empty());
  eng.end_round();
  EXPECT_EQ(eng.since(snap).messages, 0u);

  // A clean probe phase on the drained engine matches a fresh engine.
  auto probe = [&](Engine& e) {
    std::atomic<std::uint64_t> received{0};
    e.wake(7);
    e.run([&](int v) {
      if (v == 7 && e.inbox(v).empty()) {
        for (int p = 0; p < g.degree(7); ++p)
          e.send(7, p, Msg{1, static_cast<std::uint64_t>(p), 0, 0});
        return;
      }
      for (const auto& in : e.inbox(v)) {
        EXPECT_EQ(in.msg.tag, 1) << "stale message leaked to node " << v;
        received.fetch_add(in.msg.a + 1);
      }
    });
    return received.load();
  };
  Engine fresh(g, kSharded);
  const auto fresh_snap = fresh.snap();
  const auto drained_snap = eng.snap();
  const auto fresh_sum = probe(fresh);
  EXPECT_EQ(probe(eng), fresh_sum);
  EXPECT_EQ(eng.since(drained_snap).messages,
            fresh.since(fresh_snap).messages);
}

// drain() from INSIDE an open round must abort: sibling shards may still be
// sweeping (§7), so discarding wake lists here would race with the
// callbacks writing them.
TEST(EngineSealDeath, DrainFromInsideParallelRoundAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(
      {
        Graph g = graph::gen::path(64);
        Engine eng(g, ExecutionPolicy{.num_threads = 4});
        eng.wake(40);
        eng.run([&](int) { eng.drain(); });
      },
      "inside an open round");
}

// A parallel callback may send only AS the node it was invoked on (§7): a
// send on behalf of a SAME-SHARD sibling (here: node 41's callback sending
// as its neighbor 40) aborts.
TEST(EngineSealDeath, SiblingProxySendFromParallelCallbackAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  for (const auto policy : kPolicies) {
    if (policy.num_threads != 4) continue;
    EXPECT_DEATH(
        {
          Graph g = graph::gen::path(64);
          Engine eng(g, policy);
          eng.wake(41);  // shard 2; neighbor 40 shares the shard
          eng.run([&](int v) {
            if (v == 41) eng.send(40, 0, Msg{});
          });
        },
        "only for the invoked node");
  }
}

}  // namespace
}  // namespace pw::sim
