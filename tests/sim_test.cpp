#include <gtest/gtest.h>

#include <cstdint>
#include <limits>

#include "src/graph/generators.hpp"
#include "src/sim/data_plane.hpp"
#include "src/sim/engine.hpp"

namespace pw::sim {
namespace {

using graph::Graph;

TEST(Engine, DeliversNextRound) {
  Graph g = graph::gen::path(3);  // 0-1-2
  Engine eng(g);
  eng.wake(0);

  int deliveries = 0;
  eng.run([&](int v) {
    if (v == 0 && eng.inbox(v).empty()) {
      eng.send(0, 0, Msg{7, 42, 0, 0});
      return;
    }
    for (const auto& in : eng.inbox(v)) {
      EXPECT_EQ(v, 1);
      EXPECT_EQ(in.from, 0);
      EXPECT_EQ(in.msg.tag, 7);
      EXPECT_EQ(in.msg.a, 42u);
      // The port points back at the sender.
      EXPECT_EQ(eng.graph().arcs(v)[in.port].to, 0);
      ++deliveries;
    }
  });
  EXPECT_EQ(deliveries, 1);
  EXPECT_EQ(eng.messages(), 1u);
  EXPECT_EQ(eng.rounds(), 2u);  // send round + delivery round
}

TEST(Engine, OneMessagePerArcPerRoundEnforced) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  Graph g = graph::gen::path(2);
  Engine eng(g);
  eng.wake(0);
  EXPECT_DEATH(
      {
        eng.begin_round();
        eng.send(0, 0, Msg{});
        eng.send(0, 0, Msg{});
      },
      "two messages");
}

TEST(Engine, BothDirectionsSameRoundAllowed) {
  Graph g = graph::gen::path(2);
  Engine eng(g);
  eng.wake(0);
  eng.wake(1);
  eng.begin_round();
  eng.send(0, 0, Msg{1, 0, 0, 0});
  eng.send(1, 0, Msg{2, 0, 0, 0});
  eng.end_round();
  EXPECT_EQ(eng.messages(), 2u);

  eng.begin_round();
  int got = 0;
  for (int v : eng.active_nodes())
    for (const auto& in : eng.inbox(v)) {
      got += in.msg.tag;
    }
  eng.end_round();
  EXPECT_EQ(got, 3);
}

TEST(Engine, IdleWithoutTraffic) {
  Graph g = graph::gen::cycle(4);
  Engine eng(g);
  EXPECT_TRUE(eng.idle());
  eng.wake(2);
  EXPECT_FALSE(eng.idle());
  const auto executed = eng.run([&](int) {});
  EXPECT_EQ(executed, 1u);
  EXPECT_TRUE(eng.idle());
}

TEST(Engine, DrainDropsPendingTraffic) {
  Graph g = graph::gen::path(2);
  Engine eng(g);
  eng.wake(0);
  eng.begin_round();
  eng.send(0, 0, Msg{9, 0, 0, 0});
  eng.end_round();
  EXPECT_FALSE(eng.idle());
  eng.drain();
  EXPECT_TRUE(eng.idle());
  // The dropped message stays counted: it was sent.
  EXPECT_EQ(eng.messages(), 1u);
}

TEST(Engine, FloodingVisitsEveryNodeOnceWithinEccRounds) {
  Rng rng(5);
  Graph g = graph::gen::random_connected(200, 500, rng);
  Engine eng(g);
  std::vector<char> visited(g.n(), 0);
  visited[0] = 1;
  eng.wake(0);
  eng.run([&](int v) {
    bool fresh = v == 0 && eng.inbox(v).empty();
    if (!visited[v]) {
      visited[v] = 1;
      fresh = true;
    }
    if (!fresh) return;
    for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{});
  });
  for (int v = 0; v < g.n(); ++v) EXPECT_TRUE(visited[v]) << v;
  // Every arc carries at most one flood message.
  EXPECT_LE(eng.messages(), static_cast<std::uint64_t>(g.num_arcs()));
}

// Pins the intended (and documented, engine.hpp) semantics of run() vs
// charge_rounds(): run() returns the number of round-loop iterations it
// EXECUTED and budgets max_rounds on that count alone, while rounds() also
// absorbs any analytic charge_rounds() the callbacks issue mid-run. The two
// deliberately drift — a charge is extra simulated time inside an executed
// round, not an executed round.
TEST(Engine, RunExecutedCountIgnoresMidRunCharges) {
  Graph g = graph::gen::path(2);
  Engine eng(g);
  eng.wake(0);
  const auto snap = eng.snap();
  const auto executed = eng.run(
      [&](int v) {
        eng.charge_rounds(5);  // e.g. a pipelined phase's analytic flush gap
        eng.wake(v);           // keep the loop alive
      },
      3);
  EXPECT_EQ(executed, 3u);                    // loop iterations only
  EXPECT_EQ(eng.since(snap).rounds, 3u * 6);  // 1 executed + 5 charged each
  eng.drain();
}

TEST(Engine, ChargesAccumulate) {
  Graph g = graph::gen::path(2);
  Engine eng(g);
  eng.charge_rounds(10);
  eng.charge_messages(123);
  EXPECT_EQ(eng.rounds(), 10u);
  EXPECT_EQ(eng.messages(), 123u);
  const auto snap = eng.snap();
  eng.charge_rounds(5);
  EXPECT_EQ(eng.since(snap).rounds, 5u);
  EXPECT_EQ(eng.since(snap).messages, 0u);
}

TEST(Engine, ActiveNodesSorted) {
  Graph g = graph::gen::complete(5);
  Engine eng(g);
  eng.wake(4);
  eng.wake(1);
  eng.wake(3);
  eng.begin_round();
  const auto active = eng.active_nodes();
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0], 1);
  EXPECT_EQ(active[1], 3);
  EXPECT_EQ(active[2], 4);
  eng.end_round();
}

TEST(DataPlaneDeathTest, DeliveryArenaOverflowAborts) {
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  // Under faults the arena holds 3 entries per arc, indexed by int: the
  // largest admissible arc count is INT_MAX / 3, one more overflows.
  constexpr std::int64_t kMax = std::numeric_limits<int>::max();
  DataPlane::check_delivery_size(kMax, 1);
  DataPlane::check_delivery_size(kMax / 3, 3);
  EXPECT_DEATH(DataPlane::check_delivery_size(kMax / 3 + 1, 3),
               "delivery arena too large: 715827883 arcs x 3");
}

}  // namespace
}  // namespace pw::sim
