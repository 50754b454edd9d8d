// The §10 transport layer: in-place wire format, SPSC ring protocol, and the
// shared-memory ring backend's bit-identical delivery guarantee.
//
// The transport swap is the largest observable-behavior risk in the engine:
// every cross-shard message is staged directly into a ring's frame region,
// published by a release bump, and read in place by the merge — no copy on
// either side of the link. These tests pin (a) the in-place stage → publish
// → drain round trip and the one-frame-per-round ring protocol in isolation,
// (b) full delivery traces bit-identical between InProcTransport and
// ShmRingTransport across {2,4} threads — for both the manual end_round()
// loop and run() — (c) the single-shard degeneration to kInProc, and (d) the
// multi-process runner: forked shard workers over the same rings produce
// traces matching a sequential engine, and a killed worker is named — with
// its stalled rings — by the parent's watchdog report. The in-engine
// watchdog's per-ring liveness lines are pinned by engine_fault_test
// (Watchdog.WedgedCallbackAbortsWithDiagnostics).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/transport.hpp"
#include "src/util/rng.hpp"
#include "tests/policy_matrix.hpp"
#include "tests/trace_recorder.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <unistd.h>
#define PW_HAVE_POPEN 1
#endif

namespace pw::sim {
namespace {

using graph::Graph;
using pw::Rng;

// --- wire format ------------------------------------------------------------

// The frame regions must tile the ring slice exactly as documented:
// [RingHdr | Incoming inc[cap] | int to[cap]], header on its own cache line,
// id run immediately after the payload run. A layout drift here is a silent
// cross-process protocol break, so it is pinned as a test, not just a
// comment.
TEST(WireFormat, FrameRegionsFollowTheDocumentedLayout) {
  constexpr int kCap = 8;
  alignas(64) unsigned char mem[SpscRing::bytes(kCap)] = {};
  SpscRing ring(mem, kCap, /*create=*/true);
  EXPECT_EQ(reinterpret_cast<unsigned char*>(ring.inc()),
            mem + sizeof(RingHdr));
  EXPECT_EQ(reinterpret_cast<unsigned char*>(ring.to()),
            mem + sizeof(RingHdr) + kCap * sizeof(Incoming));
  // The region byte count covers both runs (plus the header) and is padded
  // to a cache line so adjacent rings in a segment never share one.
  EXPECT_GE(SpscRing::bytes(kCap),
            sizeof(RingHdr) + kCap * (sizeof(Incoming) + sizeof(int)));
  EXPECT_EQ(SpscRing::bytes(kCap) % 64, 0u);
}

// --- ring protocol ----------------------------------------------------------

TEST(SpscRing, PublishDrainCycleAdvancesFrameCounters) {
  constexpr int kCap = 8;
  std::vector<unsigned char> mem(SpscRing::bytes(kCap) + 64);
  void* base = mem.data() + (64 - reinterpret_cast<std::uintptr_t>(mem.data()) % 64) % 64;
  SpscRing ring(base, kCap, /*create=*/true);
  ASSERT_TRUE(ring.attached());
  EXPECT_EQ(ring.capacity(), kCap);
  EXPECT_FALSE(ring.frame_ready());

  // Three full stage/publish/drain rounds, one with an empty frame: records
  // are staged IN PLACE through the frame-region pointers, the counters
  // advance one frame per round, and the payload is read back from the very
  // bytes the producer wrote (zero-copy §10 path).
  for (std::uint64_t round = 0; round < 3; ++round) {
    const int count = round == 1 ? 0 : 5;
    for (int i = 0; i < count; ++i) {
      ring.to()[i] = 100 + i;
      ring.inc()[i] =
          Incoming{i, i * 2, Msg{7, static_cast<std::uint64_t>(i) + round, 0, 0}};
    }
    ring.publish(count);
    EXPECT_EQ(ring.pub_seq(), round + 1);
    ASSERT_TRUE(ring.frame_ready());
    ASSERT_EQ(ring.frame_count(), count);
    for (int i = 0; i < count; ++i) {
      EXPECT_EQ(ring.to()[i], 100 + i);
      EXPECT_EQ(ring.inc()[i].from, i);
      EXPECT_EQ(ring.inc()[i].port, i * 2);
      EXPECT_EQ(ring.inc()[i].msg.tag, 7);
      EXPECT_EQ(ring.inc()[i].msg.a, static_cast<std::uint64_t>(i) + round);
    }
    ring.consume();
    EXPECT_EQ(ring.cons_seq(), round + 1);
    EXPECT_FALSE(ring.frame_ready());
  }
}

// --- in-engine trace equality ----------------------------------------------

// Full delivery trace of a BFS flood via the MANUAL round loop: the caller
// thread sends, and end_round() publishes and merges.
TraceRecorder manual_loop_trace(const Graph& g, ExecutionPolicy policy) {
  Engine eng(g, policy);
  TraceRecorder trace(g.n());
  std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
  seen[0] = 1;
  eng.wake(0);
  while (!eng.idle()) {
    eng.begin_round();
    for (const int v : eng.active_nodes()) {
      trace.record(eng, v);
      bool fresh = v == 0 && eng.inbox(v).empty();
      if (!seen[static_cast<std::size_t>(v)]) {
        seen[static_cast<std::size_t>(v)] = 1;
        fresh = true;
      }
      if (!fresh) continue;
      for (int p = 0; p < g.degree(v); ++p)
        eng.send(v, p, Msg{7, static_cast<std::uint64_t>(v), 0, 0});
    }
    eng.end_round();
  }
  trace.note_totals(eng);
  return trace;
}

// Full delivery trace of a chatter run through run(): the sends come from
// shard-parallel callbacks.
TraceRecorder run_trace(const Graph& g, ExecutionPolicy policy) {
  Engine eng(g, policy);
  TraceRecorder trace(g.n());
  std::vector<int> left(static_cast<std::size_t>(g.n()), 5);
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
  trace.note_totals(eng);
  return trace;
}

TEST(ShmTransport, ManualLoopTraceIdenticalToInProc) {
  Rng rng(17);
  const Graph g = graph::gen::random_connected(300, 900, rng);
  const auto reference = manual_loop_trace(g, kPolicies[0]);
  ASSERT_GT(reference.events().size(), 4u);
  for (ExecutionPolicy policy : kPolicies) {
    if (policy.num_threads == 1) continue;
    policy.transport = TransportKind::kShmRing;
    EXPECT_TRUE(SameTrace(reference, manual_loop_trace(g, policy),
                          policy_name(policy)));
  }
}

TEST(ShmTransport, RunTraceIdenticalToInProc) {
  const Graph g = graph::gen::torus(8, 8);
  const auto reference = run_trace(g, kPolicies[0]);
  for (ExecutionPolicy policy : kPolicies) {
    if (policy.num_threads == 1) continue;
    EXPECT_TRUE(
        SameTrace(reference, run_trace(g, policy), policy_name(policy)));
    policy.transport = TransportKind::kShmRing;
    EXPECT_TRUE(
        SameTrace(reference, run_trace(g, policy), policy_name(policy)));
  }
}

TEST(ShmTransport, ReportsArmedKindAndSingleShardDegenerates) {
  const Graph g = graph::gen::grid(6, 6);
  ExecutionPolicy shm{.num_threads = 4, .transport = TransportKind::kShmRing};
  Engine multi(g, shm);
  EXPECT_EQ(multi.transport_kind(), TransportKind::kShmRing);

  // A single shard has no cross-shard links to carry: the request degrades
  // to the identity transport, visibly.
  shm.num_threads = 1;
  Engine single(g, shm);
  EXPECT_EQ(single.transport_kind(), TransportKind::kInProc);

  Engine def(g, ExecutionPolicy{.num_threads = 4});
  EXPECT_EQ(def.transport_kind(), TransportKind::kInProc);
}

// Star from the hub: every round's cross-shard traffic is maximally skewed
// (shard 0 feeds everyone); a good stress of empty vs full frames since the
// leaf shards publish empty buckets every round.
TEST(ShmTransport, SkewedTrafficIdenticalToInProc) {
  const Graph g = graph::gen::star(257);
  const auto reference = manual_loop_trace(g, kPolicies[0]);
  for (ExecutionPolicy policy : kPolicies) {
    if (policy.num_threads == 1) continue;
    policy.transport = TransportKind::kShmRing;
    EXPECT_TRUE(SameTrace(reference, manual_loop_trace(g, policy),
                          policy_name(policy)));
  }
}

// --- the multi-process runner ------------------------------------------------

#ifdef PW_HAVE_POPEN

struct CmdResult {
  std::string out;
  int exit_code = -1;  // -1: did not exit normally
};

CmdResult run_cmd(const std::string& cmd) {
  CmdResult r;
  FILE* p = popen((cmd + " 2>&1").c_str(), "r");
  if (p == nullptr) return r;
  char buf[4096];
  std::size_t got = 0;
  while ((got = fread(buf, 1, sizeof buf, p)) > 0) r.out.append(buf, got);
  const int status = pclose(p);
  if (WIFEXITED(status)) r.exit_code = WEXITSTATUS(status);
  return r;
}

// ctest runs tests from the build directory, where the runner binary lands.
bool runner_available() { return access("./partwise_shard", X_OK) == 0; }

TEST(ShardRunner, ForkedWorkersMatchSequentialReferenceTwoShards) {
  if (!runner_available())
    GTEST_SKIP() << "partwise_shard not in CWD (run via ctest)";
  const auto r = run_cmd(
      "./partwise_shard --family grid --n 64 --shards 2 --verify");
  EXPECT_EQ(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("PW_SHARD_TRACES_MATCH"), std::string::npos) << r.out;
}

TEST(ShardRunner, ForkedWorkersMatchSequentialReferenceFourShards) {
  if (!runner_available())
    GTEST_SKIP() << "partwise_shard not in CWD (run via ctest)";
  for (const char* extra :
       {"--family random --n 128 --seed 9", "--family star --n 101"}) {
    const auto r = run_cmd(std::string("./partwise_shard --shards 4 --verify ") +
                           extra);
    EXPECT_EQ(r.exit_code, 0) << extra << "\n" << r.out;
    EXPECT_NE(r.out.find("PW_SHARD_TRACES_MATCH"), std::string::npos)
        << extra << "\n" << r.out;
  }
}

// Kill shard 1 at round 2: the parent's watchdog report must name the dead
// peer and list its stalled rings, and the run must fail.
TEST(ShardRunner, PeerCrashNamesDeadPeerAndStalledRings) {
  if (!runner_available())
    GTEST_SKIP() << "partwise_shard not in CWD (run via ctest)";
  const auto r = run_cmd(
      "./partwise_shard --family grid --n 64 --shards 4 "
      "--kill-shard 1 --kill-round 2 --watchdog-ms 1500");
  EXPECT_NE(r.exit_code, 0) << r.out;
  EXPECT_NE(r.out.find("PW_SHARD_WATCHDOG: dead peer shard 1"),
            std::string::npos)
      << r.out;
  EXPECT_NE(r.out.find("stalled ring"), std::string::npos) << r.out;
}

#endif  // PW_HAVE_POPEN

}  // namespace
}  // namespace pw::sim
