// The arena engine's contract (DESIGN.md §5): after warm-up, the round loop
// — begin_round / send / end_round — performs ZERO heap allocations, on both
// the dense-sweep and the radix active-set paths. This test replaces the
// global allocator with a counting one and measures steady-state phases.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "bench/workloads.hpp"
#include "src/graph/generators.hpp"
#include "src/sim/engine.hpp"
#include "tests/policy_matrix.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pw::sim {
namespace {

// The flood workload is shared with bench_sim_microbench (bench/workloads.hpp)
// so the workload the perf trajectory measures is the one this guard protects.
void flood_phase(Engine& eng, std::vector<char>& seen) {
  bench::flood_workload(eng, seen);
}

TEST(EngineAlloc, DenseSteadyStateRoundLoopAllocatesNothing) {
  Rng rng(1);
  const auto g = graph::gen::random_connected(2048, 6144, rng);
  Engine eng(g, ExecutionPolicy{1});
  std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
  // Warm-up: lets active_/wake_list_ reach their steady-state capacity.
  flood_phase(eng, seen);
  flood_phase(eng, seen);

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) flood_phase(eng, seen);
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "heap allocation in the dense round loop";
}

// The sharded plane preserves the contract: per-shard wake lists, staging
// buckets, and the worker pool are all sized at construction, and a futex
// dispatch allocates nothing. (Thread spawn happens in the ctor, before the
// counted window.) Every parallel policy of the shared matrix is covered.
TEST(EngineAlloc, ShardedSteadyStateRoundLoopAllocatesNothing) {
  Rng rng(1);
  const auto g = graph::gen::random_connected(2048, 6144, rng);
  for (const auto policy : kPolicies) {
    if (policy.num_threads == 1) continue;
    Engine eng(g, policy);
    std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
    flood_phase(eng, seen);
    flood_phase(eng, seen);

    const std::uint64_t before = g_news.load(std::memory_order_relaxed);
    for (int i = 0; i < 5; ++i) flood_phase(eng, seen);
    const std::uint64_t after = g_news.load(std::memory_order_relaxed);
    EXPECT_EQ(after - before, 0u)
        << "heap allocation in the sharded round loop under "
        << policy_name(policy);
  }
}

TEST(EngineAlloc, SparseRadixSteadyStateAllocatesNothing) {
  // Two far-apart walkers on a long path: tiny active set over a huge id
  // range forces the radix ordering path every round.
  const auto g = graph::gen::path(1 << 16);
  Engine eng(g);
  // Every active node (a fresh wake or a message recipient) relays one hop
  // toward the middle of the path, so both walkers stay live — and far apart,
  // pinning the radix path — for the whole 12-round budget. run() then exits
  // with messages still in flight, so drain() discards real pending traffic.
  auto relay_phase = [&] {
    eng.wake(1);
    eng.wake(g.n() - 2);
    eng.run(
        [&](int v) {
          const int next = v < g.n() / 2 ? v + 1 : v - 1;
          eng.send(v, g.port_to(v, next), Msg{});
        },
        12);
    eng.drain();
  };
  relay_phase();
  relay_phase();

  const std::uint64_t before = g_news.load(std::memory_order_relaxed);
  for (int i = 0; i < 5; ++i) relay_phase();
  const std::uint64_t after = g_news.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u) << "heap allocation in the radix round loop";
}

}  // namespace
}  // namespace pw::sim
