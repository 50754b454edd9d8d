// The deterministic fault plane and the executor watchdog (DESIGN.md §9).
//
// The fault plane turns the engine into a chaos harness: messages are
// dropped, delayed, and duplicated by a counter-based hash of
// (seed, round, receiver-side arc), nodes crash and reboot on a fixed
// schedule. Because every verdict is a pure function of that triple, a fixed
// seed must produce BIT-IDENTICAL delivery traces across every execution
// policy — {1, 2, 4} threads, the sharded ones over both transports —
// including under the forced round-id / wake-epoch wraps. These tests pin
// that, the exact drop/delay/dup/crash semantics on tiny graphs where the
// schedule can be computed by hand, the ARQ workload's completion guarantee
// under chaos, and the §9 watchdog: a callback that never returns must
// abort the wedged round with a per-thread, per-bucket, and per-ring dump
// instead of hanging forever.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "src/apps/arq.hpp"
#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"
#include "tests/policy_matrix.hpp"
#include "tests/trace_recorder.hpp"

namespace pw::sim {
namespace {

using graph::Graph;

// The default 60 s watchdog stays armed in the shared policy matrix, so
// every parallel test here doubles as "an armed watchdog never fires on a
// live engine". The exact-semantics tests below run on the sequential engine.
constexpr ExecutionPolicy kSequential{.num_threads = 1};

// Full delivery trace of a faulty run, plus the engine totals AND the fault
// accounting — so trace equality across policies pins the fault plane's
// verdicts, the delayed-delivery order, and the counters all at once.
template <class Drive>
TraceRecorder fault_trace_of(const Graph& g, ExecutionPolicy policy,
                             const FaultPolicy& faults, Drive&& drive) {
  Engine eng(g, policy, faults);
  TraceRecorder trace(g.n());
  drive(eng, trace);
  trace.note_totals(eng);
  trace.note_faults(eng.fault_stats());
  return trace;
}

template <class Drive>
void expect_fault_trace_equal_across_policies(const Graph& g,
                                              const FaultPolicy& faults,
                                              Drive&& drive) {
  const auto reference = fault_trace_of(g, kPolicies[0], faults, drive);
  for (auto policy : kPolicies) {
    if (policy.num_threads == 1) continue;
    EXPECT_TRUE(SameTrace(reference, fault_trace_of(g, policy, faults, drive),
                          policy_name(policy)));
    // The §9 verdicts apply at the merge's receive views, so swapping the
    // §10 transport under the same policy must not move a single fate.
    policy.transport = TransportKind::kShmRing;
    EXPECT_TRUE(SameTrace(reference, fault_trace_of(g, policy, faults, drive),
                          policy_name(policy)));
  }
}

// Flood driver: every node forwards on all ports the first time it is
// reached; callbacks record their whole inbox. Under lossy policies some
// nodes may never be reached — the trace records exactly who was.
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

// Chatter driver: every node broadcasts a fresh payload on all ports for its
// first `kChatterRounds` activations and keeps itself awake that long, so
// traffic spans enough rounds for delays, duplicates, and mid-run crash
// spans to interleave.
constexpr int kChatterRounds = 6;

void chatter_drive(Engine& eng,
                   TraceRecorder& trace) {
  const auto& g = eng.graph();
  std::vector<int> left(static_cast<std::size_t>(g.n()), kChatterRounds);
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  eng.run([&](int v) {
    trace.record(eng, v);
    int& r = left[static_cast<std::size_t>(v)];
    if (r <= 0) return;
    --r;
    const auto payload =
        static_cast<std::uint64_t>(v) << 8 | static_cast<std::uint64_t>(r);
    for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{1, payload, 0, 0});
    if (r > 0) eng.wake(v);
  });
}

// --- cross-policy determinism ----------------------------------------------

TEST(FaultTrace, DropOnlyIdenticalAcrossPolicies) {
  Rng rng(7);
  const Graph g = graph::gen::random_connected(96, 220, rng);
  FaultPolicy faults;
  faults.seed = 42;
  faults.drop_prob = 0.3;
  expect_fault_trace_equal_across_policies(g, faults, flood_drive);
  expect_fault_trace_equal_across_policies(g, faults, chatter_drive);
}

TEST(FaultTrace, MixedFaultsIdenticalAcrossPolicies) {
  const Graph g = graph::gen::grid(8, 8);
  FaultPolicy faults;
  faults.seed = 0xfeedface;
  faults.drop_prob = 0.15;
  faults.delay_prob = 0.2;
  faults.dup_prob = 0.15;
  faults.delay_rounds = 2;
  expect_fault_trace_equal_across_policies(g, faults, flood_drive);
  expect_fault_trace_equal_across_policies(g, faults, chatter_drive);
}

TEST(FaultTrace, CrashScheduleIdenticalAcrossPolicies) {
  const Graph g = graph::gen::torus(8, 8);
  FaultPolicy faults;
  faults.seed = 3;
  faults.drop_prob = 0.1;
  faults.crashes = {{5, 0, 3}, {17, 2, 5}, {17, 7, CrashSpan::kNever},
                    {40, 1, 4}, {63, 0, CrashSpan::kNever}};
  expect_fault_trace_equal_across_policies(g, faults, chatter_drive);
}

TEST(FaultTrace, IdenticalUnderForcedWraps) {
  const Graph g = graph::gen::grid(8, 8);
  FaultPolicy faults;
  faults.seed = 11;
  faults.drop_prob = 0.1;
  faults.delay_prob = 0.2;
  faults.delay_rounds = 3;
  faults.crashes = {{9, 2, 4}};
  // Jump both counters to just below their wrap points before driving: the
  // stamp wrap and the wake-epoch wrap then happen mid-chatter, and the
  // fault plane's own 64-bit round clock must sail through both.
  const auto wrap_drive = [&](Engine& eng,
                              TraceRecorder& trace) {
    eng.debug_set_wrap_state(std::numeric_limits<std::uint32_t>::max() - 2,
                             (1ULL << 40) - 2);
    chatter_drive(eng, trace);
  };
  expect_fault_trace_equal_across_policies(g, faults, wrap_drive);
}

// The merge is the fault plane's single choke point, and the per-destination
// merges run in parallel, so each per-destination delay queue fills
// concurrently with the other destinations'. Seven fault configurations
// spanning every verdict type — and their compositions — must produce
// bit-identical traces AND fault counters at {2,4} threads, on both
// transports, vs the sequential reference.
TEST(FaultTrace, SevenFaultConfigsIdenticalAcrossPolicies) {
  const Graph g = graph::gen::grid(8, 8);
  std::vector<FaultPolicy> configs(7);
  for (std::size_t i = 0; i < configs.size(); ++i)
    configs[i].seed = 0x5eed0 + i;
  configs[0].drop_prob = 0.25;                                  // drop only
  configs[1].delay_prob = 0.3;                                  // delay only
  configs[1].delay_rounds = 2;
  configs[2].dup_prob = 0.3;                                    // dup only
  configs[3].crashes = {{5, 0, 3}, {30, 2, 5}, {60, 1, 4}};     // crash only
  configs[4].drop_prob = 0.15;                                  // drop+delay
  configs[4].delay_prob = 0.2;
  configs[4].delay_rounds = 3;
  configs[5].drop_prob = 0.1;                                   // drop+delay+dup
  configs[5].delay_prob = 0.15;
  configs[5].dup_prob = 0.15;
  configs[5].delay_rounds = 2;
  configs[6].drop_prob = 0.1;                                   // everything
  configs[6].delay_prob = 0.1;
  configs[6].dup_prob = 0.1;
  configs[6].delay_rounds = 2;
  configs[6].crashes = {{9, 1, 4}, {41, 3, 6}};
  for (std::size_t i = 0; i < configs.size(); ++i) {
    const auto reference =
        fault_trace_of(g, kPolicies[0], configs[i], chatter_drive);
    for (auto policy : kPolicies) {
      if (policy.num_threads == 1) continue;
      const std::string label = "config " + std::to_string(i) + " ";
      EXPECT_TRUE(SameTrace(reference,
                            fault_trace_of(g, policy, configs[i], chatter_drive),
                            label + policy_name(policy)));
      policy.transport = TransportKind::kShmRing;
      EXPECT_TRUE(SameTrace(reference,
                            fault_trace_of(g, policy, configs[i], chatter_drive),
                            label + policy_name(policy)));
    }
  }
}

TEST(FaultTrace, SameSeedReproducesDifferentSeedDiverges) {
  const Graph g = graph::gen::grid(6, 6);
  FaultPolicy faults;
  faults.seed = 1234;
  faults.drop_prob = 0.5;
  const auto a = fault_trace_of(g, kPolicies[0], faults, flood_drive);
  const auto b = fault_trace_of(g, kPolicies[0], faults, flood_drive);
  EXPECT_TRUE(SameTrace(a, b, "same seed"));
  faults.seed = 1235;
  const auto c = fault_trace_of(g, kPolicies[0], faults, flood_drive);
  EXPECT_FALSE(SameTrace(a, c, "other seed"));
}

// --- exact single-fault semantics ------------------------------------------

// One message on a two-node path, delay_prob == 1: it must arrive exactly
// delay_rounds late, and the run must stretch by exactly that much.
TEST(FaultSemantics, DelayArrivesExactlyLate) {
  const Graph g = graph::gen::path(2);
  const auto rounds_with = [&](const FaultPolicy& faults) {
    Engine eng(g, kSequential, faults);
    std::uint64_t seen_at = 0;
    eng.wake(0);
    const std::uint64_t executed = eng.run([&](int v) {
      if (v == 0 && eng.inbox(v).empty())
        eng.send(v, 0, Msg{1, 99, 0, 0});
      if (v == 1) {
        EXPECT_EQ(eng.inbox(v).size(), 1u);
        EXPECT_EQ(eng.inbox(v)[0].msg.a, 99u);
        seen_at = eng.rounds();
      }
    });
    EXPECT_GT(seen_at, 0u);
    return executed;
  };
  const std::uint64_t plain = rounds_with(FaultPolicy{});
  FaultPolicy delayed;
  delayed.delay_prob = 1.0;
  delayed.delay_rounds = 3;
  Engine probe(g, kSequential, delayed);
  EXPECT_TRUE(probe.faulty());
  EXPECT_EQ(rounds_with(delayed), plain + 3);
}

// dup_prob == 1: the receiver sees the same message twice, back to back, and
// the duplicate is accounted but NOT counted as a send.
TEST(FaultSemantics, DupDeliversTwice) {
  const Graph g = graph::gen::path(2);
  FaultPolicy faults;
  faults.dup_prob = 1.0;
  Engine eng(g, kSequential, faults);
  std::size_t seen = 0;
  eng.wake(0);
  eng.run([&](int v) {
    if (v == 0 && eng.inbox(v).empty()) eng.send(v, 0, Msg{1, 7, 0, 0});
    if (v == 1) {
      seen = eng.inbox(v).size();
      for (const auto& in : eng.inbox(v)) EXPECT_EQ(in.msg.a, 7u);
    }
  });
  EXPECT_EQ(seen, 2u);
  EXPECT_EQ(eng.messages(), 1u);
  EXPECT_EQ(eng.fault_stats().messages_duplicated, 1u);
}

// drop_prob == 1: the hub's sends are all dropped, no leaf ever runs, and
// the run still terminates (an all-lossy network is just an idle one).
TEST(FaultSemantics, DropEverythingTerminates) {
  const Graph g = graph::gen::star(9);
  FaultPolicy faults;
  faults.drop_prob = 1.0;
  Engine eng(g, kSequential, faults);
  std::vector<char> ran(static_cast<std::size_t>(g.n()), 0);
  eng.wake(0);
  eng.run([&](int v) {
    ran[static_cast<std::size_t>(v)] = 1;
    if (v == 0 && eng.inbox(v).empty())
      for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{1, 0, 0, 0});
  });
  for (int v = 1; v < g.n(); ++v) EXPECT_EQ(ran[static_cast<std::size_t>(v)], 0);
  EXPECT_EQ(eng.messages(), 8u);  // sends are still counted (drain convention)
  EXPECT_EQ(eng.fault_stats().messages_dropped, 8u);
}

// A crash span [from, until): no callback while down, inbound deliveries
// shed, wakes suppressed, and the fault plane reboots the node at `until`.
TEST(FaultSemantics, CrashShedsAndReboots) {
  const Graph g = graph::gen::path(2);
  FaultPolicy faults;
  faults.crashes = {{1, 0, 4}};  // node 1 down for rounds 0..3, up at 4
  Engine eng(g, kSequential, faults);
  std::vector<std::uint64_t> node1_rounds;
  int node0_left = 5;
  eng.wake(1);  // targets round 0, node down -> suppressed
  eng.wake(0);
  eng.run([&](int v) {
    if (v == 1) {
      node1_rounds.push_back(eng.rounds());
      return;
    }
    if (node0_left-- <= 0) return;
    eng.send(v, 0, Msg{1, static_cast<std::uint64_t>(node0_left), 0, 0});
    if (node0_left > 0) eng.wake(v);
  });
  // Node 0 sends in rounds 0..4, targeting deliveries in rounds 1..5. The
  // first three land in down rounds and are shed; the reboot wakes node 1
  // for round 4, where the round-3 send arrives, and the round-4 send
  // follows in round 5.
  ASSERT_EQ(node1_rounds.size(), 2u);
  EXPECT_EQ(node1_rounds[0], 4u);
  EXPECT_EQ(node1_rounds[1], 5u);
  const FaultStats fs = eng.fault_stats();
  EXPECT_EQ(fs.messages_shed_crashed, 3u);
  EXPECT_EQ(fs.wakes_suppressed, 1u);
  ASSERT_EQ(eng.crash_epochs(1).size(), 1u);
  EXPECT_EQ(eng.crash_epochs(1)[0].from, 0u);
  EXPECT_EQ(eng.crash_epochs(1)[0].until, 4u);
  EXPECT_TRUE(eng.crash_epochs(0).empty());
}

TEST(FaultSemantics, FaultFreeEngineReportsNothing) {
  const Graph g = graph::gen::path(4);
  Engine eng(g, kSequential);
  EXPECT_FALSE(eng.faulty());
  const FaultStats fs = eng.fault_stats();
  EXPECT_EQ(fs.messages_dropped, 0u);
  EXPECT_EQ(fs.wakes_suppressed, 0u);
  EXPECT_TRUE(eng.crash_epochs(0).empty());
}

// drain() must discard parked delayed traffic too, so a drained faulty
// engine is quiescent enough for phase changes and the wrap test hook.
TEST(FaultSemantics, DrainClearsDelayedTraffic) {
  const Graph g = graph::gen::path(2);
  FaultPolicy faults;
  faults.delay_prob = 1.0;
  faults.delay_rounds = 5;
  Engine eng(g, kSequential, faults);
  eng.wake(0);
  eng.run([&](int v) { eng.send(v, 0, Msg{1, 0, 0, 0}); }, 1);
  EXPECT_FALSE(eng.idle());  // the message is parked in a delay queue
  eng.drain();
  EXPECT_TRUE(eng.idle());
  eng.debug_set_wrap_state(1000, 1000);  // legal again: engine is quiescent
}

// --- the ARQ workload under chaos ------------------------------------------

// Shared check: the flood completes, every node holds the token, and the
// whole result (rounds, sends, retransmissions) is identical across every
// policy in the matrix.
void expect_arq_converges(const Graph& g, const FaultPolicy& faults,
                          std::uint64_t min_retransmissions) {
  apps::ArqResult ref;
  bool have_ref = false;
  for (const auto policy : kPolicies) {
    Engine eng(g, policy, faults);
    const apps::ArqResult r = apps::arq_flood(eng, 0, 0xabcdef);
    EXPECT_TRUE(r.completed) << policy_name(policy);
    apps::validate_arq(g, r, 0xabcdef);
    EXPECT_GE(r.retransmissions, min_retransmissions) << policy_name(policy);
    if (!have_ref) {
      ref = r;
      have_ref = true;
      continue;
    }
    EXPECT_EQ(ref.token, r.token) << policy_name(policy);
    EXPECT_EQ(ref.executed_rounds, r.executed_rounds) << policy_name(policy);
    EXPECT_EQ(ref.data_sends, r.data_sends) << policy_name(policy);
    EXPECT_EQ(ref.retransmissions, r.retransmissions) << policy_name(policy);
  }
}

// Fault-free, the default RTO equals the ACK round trip exactly: the flood
// must not retransmit a single frame on any policy.
TEST(Arq, FaultFreeNeverRetransmits) {
  const Graph g = graph::gen::grid(6, 6);
  for (const auto policy : kPolicies) {
    Engine eng(g, policy);
    const apps::ArqResult r = apps::arq_flood(eng, 0, 42);
    EXPECT_TRUE(r.completed) << policy_name(policy);
    apps::validate_arq(g, r, 42);
    EXPECT_EQ(r.retransmissions, 0u) << policy_name(policy);
  }
}

TEST(Arq, CompletesUnderFivePercentDrop) {
  const Graph g = graph::gen::grid(6, 6);
  FaultPolicy faults;
  faults.seed = 21;
  faults.drop_prob = 0.05;
  expect_arq_converges(g, faults, 0);
}

TEST(Arq, CompletesUnderTwentyPercentDrop) {
  Rng rng(5);
  const Graph g = graph::gen::random_connected(64, 160, rng);
  FaultPolicy faults;
  faults.seed = 22;
  faults.drop_prob = 0.2;
  // At 20% loss over 320 arcs some DATA or ACK is certainly lost (pinned by
  // the fixed seed), so the protocol must visibly earn its keep.
  expect_arq_converges(g, faults, 1);
}

TEST(Arq, CompletesUnderMixedChaosWithCrashes) {
  const Graph g = graph::gen::torus(6, 6);
  FaultPolicy faults;
  faults.seed = 77;
  faults.drop_prob = 0.1;
  faults.delay_prob = 0.1;
  faults.dup_prob = 0.1;
  faults.delay_rounds = 2;
  faults.crashes = {{7, 2, 6}, {20, 0, 9}, {33, 4, 5}};
  expect_arq_converges(g, faults, 1);
}

// drop_prob == 1 can never complete; the round budget must terminate the
// run and the engine must come back quiescent (the arcs stay unacked).
TEST(Arq, TotalLossTerminatesOnBudget) {
  const Graph g = graph::gen::cycle(8);
  FaultPolicy faults;
  faults.drop_prob = 1.0;
  Engine eng(g, kSequential, faults);
  apps::ArqConfig cfg;
  cfg.max_rounds = 64;
  const apps::ArqResult r = apps::arq_flood(eng, 0, 9, cfg);
  EXPECT_FALSE(r.completed);
  EXPECT_EQ(r.executed_rounds, 64u);
  EXPECT_GT(r.retransmissions, 0u);
  EXPECT_TRUE(eng.idle());
}

// CI's chaos job re-runs the convergence sweep under a per-run randomized
// seed (PW_CHAOS_SEED, echoed below for replay); locally it uses a default.
TEST(Arq, ChaosSeedSweep) {
  std::uint64_t seed = 0xc0ffee;
  if (const char* e = std::getenv("PW_CHAOS_SEED"))
    seed = std::strtoull(e, nullptr, 0);
  std::printf("PW_CHAOS_SEED=%llu (set this env var to replay)\n",
              static_cast<unsigned long long>(seed));
  const Graph g = graph::gen::grid(6, 6);
  FaultPolicy faults;
  faults.seed = seed;
  faults.drop_prob = 0.15;
  faults.delay_prob = 0.1;
  faults.dup_prob = 0.05;
  expect_arq_converges(g, faults, 0);
}

// --- the §9 watchdog --------------------------------------------------------

// A tightly armed watchdog must never fire while the engine is making
// progress, even on a long multi-round parallel run.
TEST(Watchdog, ArmedRunCompletes) {
  const Graph g = graph::gen::grid(8, 8);
  for (const auto base : kPolicies) {
    if (base.num_threads == 1) continue;
    ExecutionPolicy policy = base;
    policy.watchdog_ms = 200;
    Engine eng(g, policy);
    TraceRecorder trace(g.n());
    chatter_drive(eng, trace);
    EXPECT_GT(eng.rounds(), 0u) << policy_name(policy);
  }
}

#if defined(__SANITIZE_THREAD__)  // GCC
#define PW_UNDER_TSAN 1
#elif defined(__has_feature)  // Clang
#if __has_feature(thread_sanitizer)
#define PW_UNDER_TSAN 1
#endif
#endif

// A callback that never returns wedges its round: thread 0 finishes its own
// shard and parks in the watched dispatch-barrier wait, the progress
// signature freezes, and the watchdog must abort with its dump instead of
// hanging. The stuck node lives in shard 1, so the thread parked in the
// watched wait is thread 0 and the dump shows thread 1 mid-sweep. Under the
// shm transport the dump ends with the per-ring liveness lines: no frame of
// the wedged round was published, so the rings read "awaiting publish".
[[maybe_unused]] void run_with_wedged_callback(const Graph& g) {
  const ExecutionPolicy policy{.num_threads = 4,
                               .watchdog_ms = 1000,
                               .transport = TransportKind::kShmRing};
  Engine eng(g, policy);
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  eng.run([&](int v) {
    if (v == 20)  // shard 1 of grid(8, 8) under 4 shards: nodes 16..31
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{1, 1, 0, 0});
  });
}

// The same wedge in shard 0, whose callbacks the dispatching thread runs
// itself: the workers finish their shards, the last of them parks in the
// watched wait on task 0, and the dump shows thread 0 mid-sweep.
[[maybe_unused]] void run_with_wedged_shard_zero_callback(const Graph& g) {
  const ExecutionPolicy policy{.num_threads = 4, .watchdog_ms = 1000};
  Engine eng(g, policy);
  for (int v = 0; v < g.n(); ++v) eng.wake(v);
  eng.run([&](int v) {
    if (v == 3)  // shard 0 of grid(8, 8) under 4 shards: nodes 0..15
      for (;;) std::this_thread::sleep_for(std::chrono::hours(1));
    for (int p = 0; p < g.degree(v); ++p) eng.send(v, p, Msg{1, 1, 0, 0});
  });
}

TEST(Watchdog, WedgedShardZeroCallbackAbortsWithDiagnostics) {
#ifdef PW_UNDER_TSAN
  GTEST_SKIP() << "death test forks after threads exist; the watchdog dump "
                  "intentionally reads racing counters TSan would flag";
#else
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const Graph g = graph::gen::grid(8, 8);
  EXPECT_DEATH(run_with_wedged_shard_zero_callback(g),
               "PW_WATCHDOG: no executor progress.*thread [123] wedged in "
               "barrier-wait.*thread 0: phase=stage1-sweep task=0");
#endif
}

TEST(Watchdog, WedgedCallbackAbortsWithDiagnostics) {
#ifdef PW_UNDER_TSAN
  GTEST_SKIP() << "death test forks after threads exist; the watchdog dump "
                  "intentionally reads racing counters TSan would flag";
#else
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  const Graph g = graph::gen::grid(8, 8);
  EXPECT_DEATH(run_with_wedged_callback(g),
               "PW_WATCHDOG: no executor progress.*thread 0 wedged in "
               "barrier-wait.*thread 1: phase=stage1-sweep task=1.*"
               "ring \\(1 -> 0\\).*stalled: awaiting publish");
#endif
}

}  // namespace
}  // namespace pw::sim
