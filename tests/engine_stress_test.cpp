// Stress and semantics tests for the CONGEST engine beyond the basics in
// sim_test.cpp: phase reuse, ordering determinism, fan-in limits, and the
// exact delivery timing the algorithms rely on.
#include <gtest/gtest.h>

#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"
#include "tests/trace_recorder.hpp"

namespace pw::sim {
namespace {

using graph::Graph;

TEST(EngineStress, PhasesReuseCleanly) {
  Graph g = graph::gen::cycle(16);
  Engine eng(g);
  // Ten independent flood phases; each must behave identically.
  std::uint64_t first_phase_msgs = 0;
  for (int phase = 0; phase < 10; ++phase) {
    const auto snap = eng.snap();
    std::vector<char> seen(g.n(), 0);
    seen[phase] = 1;
    eng.wake(phase);
    eng.run([&](int v) {
      bool fresh = v == phase && eng.inbox(v).empty();
      if (!seen[v]) {
        seen[v] = 1;
        fresh = true;
      }
      if (!fresh) return;
      for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{});
    });
    for (int v = 0; v < g.n(); ++v) EXPECT_TRUE(seen[v]);
    const auto stats = eng.since(snap);
    if (phase == 0) {
      first_phase_msgs = stats.messages;
    } else {
      EXPECT_EQ(stats.messages, first_phase_msgs) << "phase " << phase;
    }
    EXPECT_TRUE(eng.idle());
  }
}

TEST(EngineStress, DeliveryIsExactlyOneRoundLater) {
  Graph g = graph::gen::path(5);
  Engine eng(g);
  // A token relays 0 -> 1 -> 2 -> 3 -> 4; node k must hear it at round k+1.
  std::vector<std::uint64_t> heard_at(g.n(), 0);
  std::uint64_t round = 0;
  eng.wake(0);
  while (!eng.idle()) {
    eng.begin_round();
    ++round;
    for (int v : eng.active_nodes()) {
      if (v == 0 && eng.inbox(v).empty()) {
        eng.send(0, g.port_to(0, 1), Msg{1, 0, 0, 0});
        continue;
      }
      for (const auto& in : eng.inbox(v)) {
        if (in.msg.tag != 1) continue;
        heard_at[v] = round;
        if (v + 1 < g.n()) eng.send(v, g.port_to(v, v + 1), Msg{1, 0, 0, 0});
      }
    }
    eng.end_round();
  }
  for (int v = 1; v < g.n(); ++v)
    EXPECT_EQ(heard_at[v], static_cast<std::uint64_t>(v + 1));
}

TEST(EngineStress, MaxFanInDeliveredIntact) {
  // Everybody messages the hub in the same round; all arrive next round.
  Graph g = graph::gen::star(64);
  Engine eng(g);
  for (int v = 1; v < g.n(); ++v) eng.wake(v);
  eng.begin_round();
  for (int v : eng.active_nodes())
    eng.send(v, 0, Msg{7, static_cast<std::uint64_t>(v), 0, 0});
  eng.end_round();

  eng.begin_round();
  std::set<std::uint64_t> senders;
  for (const auto& in : eng.inbox(0)) {
    EXPECT_EQ(in.msg.tag, 7);
    senders.insert(in.msg.a);
  }
  eng.end_round();
  EXPECT_EQ(senders.size(), 63u);
}

TEST(EngineStress, InboxPortsIdentifySenders) {
  Rng rng(3);
  Graph g = graph::gen::random_connected(60, 200, rng);
  Engine eng(g);
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  eng.begin_round();
  for (int v : eng.active_nodes())
    for (int p = 0; p < g.degree(v); ++p)
      eng.send(v, p, Msg{1, static_cast<std::uint64_t>(v), 0, 0});
  eng.end_round();
  eng.begin_round();
  for (int v : eng.active_nodes())
    for (const auto& in : eng.inbox(v)) {
      EXPECT_EQ(g.arcs(v)[in.port].to, in.from);
      EXPECT_EQ(in.msg.a, static_cast<std::uint64_t>(in.from));
    }
  eng.end_round();
}

TEST(EngineStress, WakeDuringRoundSchedulesNextRound) {
  Graph g = graph::gen::path(2);
  Engine eng(g);
  eng.wake(0);
  int activations = 0;
  eng.run(
      [&](int v) {
        if (v != 0) return;
        ++activations;
        if (activations < 5) eng.wake(0);  // self-rewake
      });
  EXPECT_EQ(activations, 5);
  EXPECT_EQ(eng.rounds(), 5u);
}

TEST(EngineStress, RunRespectsMaxRounds) {
  Graph g = graph::gen::path(2);
  Engine eng(g);
  eng.wake(0);
  const auto executed = eng.run([&](int v) { eng.wake(v); }, 7);
  EXPECT_EQ(executed, 7u);
  EXPECT_FALSE(eng.idle());
  eng.drain();
  EXPECT_TRUE(eng.idle());
}

TEST(EngineStress, SendingOnEveryPortEveryRound) {
  // Dense all-to-all chatter on K12 for 20 rounds: counts must be exact.
  Graph g = graph::gen::complete(12);
  Engine eng(g);
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  for (int r = 0; r < 20; ++r) {
    eng.begin_round();
    for (int v : eng.active_nodes())
      for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{});
    eng.end_round();
  }
  EXPECT_EQ(eng.messages(), 20u * 12 * 11);
  EXPECT_EQ(eng.rounds(), 20u);
  eng.drain();
}

TEST(EngineStress, DrainDiscardsInFlightTrafficWithoutCorruptingLaterRounds) {
  // Regression test for the arena engine: drain() must discard BOTH
  // delivered-but-unread messages and scheduled wakeups, and the next phase
  // must see exactly its own traffic — no stale run, offset, or count from
  // the drained phase may leak into a later round's inboxes.
  Rng rng(9);
  Graph g = graph::gen::random_connected(50, 150, rng);
  Engine eng(g);

  // Phase 1: everybody sends a poison message on every port, then the phase
  // is aborted mid-flight (after end_round the messages sit delivered but
  // unread).
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  eng.begin_round();
  for (int v : eng.active_nodes())
    for (int p = 0; p < g.degree(v); ++p)
      eng.send(v, p, Msg{66, 0xdead, 0, 0});
  eng.end_round();
  EXPECT_FALSE(eng.idle());
  eng.drain();
  EXPECT_TRUE(eng.idle());

  // Phase 2: a clean two-hop relay. Every inbox observed must contain only
  // phase-2 messages, with exact counts and payloads.
  eng.wake(7);
  eng.begin_round();
  ASSERT_EQ(eng.active_nodes().size(), 1u);
  EXPECT_TRUE(eng.inbox(7).empty());  // the poison wave must be gone
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

  // Phase 3: drain() directly after a wake (nothing delivered) must also
  // leave a clean engine.
  eng.wake(3);
  eng.drain();
  EXPECT_TRUE(eng.idle());
  eng.wake(3);
  eng.begin_round();
  EXPECT_TRUE(eng.inbox(3).empty());
  eng.end_round();
}

TEST(EngineStress, DeterministicAcrossIdenticalRuns) {
  Rng rng(17);
  Graph g = graph::gen::random_connected(100, 300, rng);
  auto run_trace = [&] {
    Engine eng(g);
    TraceRecorder trace(g.n());
    eng.wake(42);
    std::vector<char> seen(g.n(), 0);
    seen[42] = 1;
    eng.run([&](int v) {
      trace.record(eng, v);
      bool fresh = v == 42 && eng.inbox(v).empty();
      if (!seen[v]) {
        seen[v] = 1;
        fresh = true;
      }
      if (!fresh) return;
      for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{});
    });
    trace.note_totals(eng);
    return trace;
  };
  EXPECT_TRUE(SameTrace(run_trace(), run_trace(), "sequential rerun"));
}

}  // namespace
}  // namespace pw::sim
