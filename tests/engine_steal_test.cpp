// Merge claims (DESIGN.md §8): publishing a stage-2 task flips its publish
// slot to published; a free thread walks the <= num_threads slots starting
// at its own index and CASes the first published one to claimed — the CAS
// is the exactly-once arbiter. These tests drive the Executor directly:
// exactly-once stage-2 execution under repeated all-to-all dispatches (every
// claimer racing for the same burst of publishes), surplus threads that only
// claim, the park/retry path (one slow publisher forces every other thread
// to find no published slot and park until its seals land), the degenerate
// inline dispatch, and the watchdog dump naming the starved task when a
// withheld seal wedges the claim loop. The TSan CI job runs this file (name
// matches its -R filter) — the claim CAS and the park handshake are exactly
// what it exists to check.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <vector>

#include "src/sim/executor.hpp"

namespace pw::sim {
namespace {

// All-to-all dependency graph over `t` tasks: every stage-1 task feeds every
// stage-2 task, so nothing publishes before the last seal and the claim
// traffic all lands at once — the worst case for the claim CAS.
struct AllToAll {
  explicit AllToAll(int t) : out_beg(static_cast<std::size_t>(t) + 1) {
    for (int s = 0; s <= t; ++s)
      out_beg[static_cast<std::size_t>(s)] = s * t;
    for (int s = 0; s < t; ++s)
      for (int d = 0; d < t; ++d) out.push_back(d);
    dep_count.assign(static_cast<std::size_t>(t), t);
  }
  Executor::PipelineDeps deps() const {
    return {out_beg.data(), out.data(), dep_count.data()};
  }
  std::vector<int> out_beg, out, dep_count;
};

// Identity graph: task s feeds only stage-2 task s, so publishes trickle in
// one at a time and fast threads repeatedly find nothing published and park.
struct Identity {
  explicit Identity(int t) : out_beg(static_cast<std::size_t>(t) + 1) {
    for (int s = 0; s <= t; ++s) out_beg[static_cast<std::size_t>(s)] = s;
    for (int s = 0; s < t; ++s) out.push_back(s);
    dep_count.assign(static_cast<std::size_t>(t), 1);
  }
  Executor::PipelineDeps deps() const {
    return {out_beg.data(), out.data(), dep_count.data()};
  }
  std::vector<int> out_beg, out, dep_count;
};

struct ClaimCtx {
  std::vector<std::atomic<int>> runs;  // per stage-2 task
  int slow_task = -1;                  // stage-1 task that busy-waits
  explicit ClaimCtx(int t) : runs(static_cast<std::size_t>(t)) {}
  void reset() {
    for (auto& r : runs) r.store(0, std::memory_order_relaxed);
  }
};

void stage1(void* ctx, int task) {
  auto* c = static_cast<ClaimCtx*>(ctx);
  if (task == c->slow_task) {
    // Long enough that on real cores the siblings claim what is published
    // and park before this thread's seals publish anything new.
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(2);
    while (std::chrono::steady_clock::now() < until) {
    }
  }
}

void stage2(void* ctx, int task) {
  static_cast<ClaimCtx*>(ctx)
      ->runs[static_cast<std::size_t>(task)]
      .fetch_add(1, std::memory_order_relaxed);
}

// Every publish slot is contended: the all-to-all graph publishes all tasks
// from whichever thread seals last, so every claimer's walk races the
// others' over the same burst. Repeats shake the interleavings; each
// dispatch must run each stage-2 task exactly once (a double claim would
// double-count, a lost task would hang the dispatch).
TEST(MergeClaims, ExactlyOnceUnderRepeatedSkewedDispatches) {
  const int kThreads = 4;
  Executor ex(kThreads, /*watchdog_ms=*/60000);
  AllToAll graph(kThreads);
  ClaimCtx ctx(kThreads);
  for (int rep = 0; rep < 300; ++rep) {
    ctx.reset();
    ex.pipeline(kThreads, stage1, stage2, graph.deps(), &ctx);
    for (int d = 0; d < kThreads; ++d)
      ASSERT_EQ(ctx.runs[static_cast<std::size_t>(d)].load(), 1)
          << "rep " << rep << " task " << d;
  }
}

// Fewer tasks than threads: the surplus threads skip stage 1 entirely and
// live in the claim loop; their walks start at idx mod kTasks, on the same
// slots the publishers claim first.
TEST(MergeClaims, SurplusThreadsOnlyClaim) {
  const int kThreads = 4;
  const int kTasks = 2;
  Executor ex(kThreads, /*watchdog_ms=*/60000);
  AllToAll graph(kTasks);
  ClaimCtx ctx(kTasks);
  for (int rep = 0; rep < 300; ++rep) {
    ctx.reset();
    ex.pipeline(kTasks, stage1, stage2, graph.deps(), &ctx);
    for (int d = 0; d < kTasks; ++d)
      ASSERT_EQ(ctx.runs[static_cast<std::size_t>(d)].load(), 1)
          << "rep " << rep << " task " << d;
  }
}

// One slow stage-1 task under the identity graph: the fast threads run their
// own stage-2 task immediately (the first slot of their walk), find no
// other slot published, and park; the slow thread's eventual publish must
// wake a parked claimer, and the final claim's broadcast must release the
// rest. A missed wake here is a hang, which the armed watchdog converts into
// a loud failure.
TEST(MergeClaims, EmptyWalkParksUntilSlowPublisherSeals) {
  const int kThreads = 4;
  Executor ex(kThreads, /*watchdog_ms=*/60000);
  Identity graph(kThreads);
  ClaimCtx ctx(kThreads);
  ctx.slow_task = kThreads - 1;
  for (int rep = 0; rep < 50; ++rep) {
    ctx.reset();
    ex.pipeline(kThreads, stage1, stage2, graph.deps(), &ctx);
    for (int d = 0; d < kThreads; ++d)
      ASSERT_EQ(ctx.runs[static_cast<std::size_t>(d)].load(), 1)
          << "rep " << rep << " task " << d;
  }
}

// The single-thread executor and the single-task dispatch both take the
// inline path: no claims, no workers, stage 2 right after stage 1.
TEST(MergeClaims, DegenerateDispatchesRunInline) {
  Executor ex1(1);
  AllToAll graph(1);
  ClaimCtx ctx(1);
  ex1.pipeline(1, stage1, stage2, graph.deps(), &ctx);
  EXPECT_EQ(ctx.runs[0].load(), 1);

  Executor ex4(4);
  ctx.reset();
  ex4.pipeline(1, stage1, stage2, graph.deps(), &ctx);
  EXPECT_EQ(ctx.runs[0].load(), 1);
}

#if defined(__SANITIZE_THREAD__)  // GCC
#define PW_UNDER_TSAN 1
#elif defined(__has_feature)  // Clang
#if __has_feature(thread_sanitizer)
#define PW_UNDER_TSAN 1
#endif
#endif

// A withheld seal starves stage-2 task 0 forever; the watchdog must abort
// with a dump that names the starved task and the one seal it still waits
// for, so a wedged claim loop is attributable at a glance.
[[maybe_unused]] void run_with_withheld_seal() {
  const int kThreads = 4;
  Executor ex(kThreads, /*watchdog_ms=*/1000);
  ex.debug_withhold_seal(1, 0);
  AllToAll graph(kThreads);
  ClaimCtx ctx(kThreads);
  ex.pipeline(kThreads, stage1, stage2, graph.deps(), &ctx);
}

TEST(MergeClaimsDeath, WithheldSealNamesStarvedTask) {
#ifdef PW_UNDER_TSAN
  GTEST_SKIP() << "death test forks after threads exist; the watchdog dump "
                  "intentionally reads racing counters TSan would flag";
#else
  GTEST_FLAG_SET(death_test_style, "threadsafe");
  EXPECT_DEATH(run_with_withheld_seal(), "stage2 task 0: deps_left=1");
#endif
}

}  // namespace
}  // namespace pw::sim
