// Persistent worker pool for the sharded CONGEST data plane (DESIGN.md §7).
//
// The engine runs two kinds of shard-parallel work per round: the user's
// per-node callbacks (Engine::run) and the deterministic end-of-round merge.
// Both dispatch through this executor as two barriered phases (parallel()),
// the lock-step round of the CONGEST model itself (DESIGN.md §8). Workers
// are spawned once at engine construction and parked on a futex between
// dispatches — no per-round thread creation, no steady-state heap
// allocation, and a plain function pointer + context void* instead of
// std::function (whose assignment may allocate).
//
// Task t of a dispatch always executes on thread t (the calling thread runs
// task 0), so a task owns the same shard every round — shard-local state
// needs no synchronization beyond the dispatch barrier itself.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace pw::sim {

// How Engine executes rounds. num_threads == 1 (the default) is the fully
// sequential engine: no worker threads are spawned and every dispatch runs
// inline. num_threads > 1 shards the data plane and runs callbacks and the
// end-of-round merge shard-parallel; accounting and delivery stay
// bit-identical to the sequential engine (DESIGN.md §7). The Engine rejects
// num_threads above kMaxThreads: the data plane keeps S² staging buckets and
// the executor one OS thread per shard, so an unbounded request would turn
// into a huge bucket table and thousands of threads before anything runs.
// `watchdog_ms` (default 60 s, 0 = off) arms the no-progress watchdog of
// DESIGN.md §9 on the executor's dispatch barrier: if the caller's barrier
// wait sees no executor-wide progress for a full window — a task that never
// returns — the run aborts with a diagnostic dump (per-thread phase, per-
// shard sweep position, per-bucket fills) instead of hanging CI forever. The
// PW_WATCHDOG_MS environment variable overrides the policy value for
// whole-process tuning.
// Spell multi-field policies with designated initializers
// (`{.num_threads = 4, .watchdog_ms = 0}`), so a removed or reordered field
// is a compile error rather than a silent shift into the next one.
struct ExecutionPolicy {
  static constexpr int kMaxThreads = 1024;

  int num_threads = 1;
  int watchdog_ms = 60000;

  // The default multi-threaded policy: one worker per hardware thread, at
  // most kMaxThreads. What the examples and CLIs construct engines with
  // unless the user picks a thread count explicitly.
  static ExecutionPolicy hardware() {
    return {static_cast<int>(std::clamp(std::thread::hardware_concurrency(),
                                        1u,
                                        static_cast<unsigned>(kMaxThreads)))};
  }
};

class Executor {
 public:
  using TaskFn = void (*)(void* ctx, int task);

  // Spawns num_threads - 1 workers (thread 0 is the caller). watchdog_ms
  // arms the no-progress watchdog (§9) on the dispatch barrier; 0 disables
  // it, the PW_WATCHDOG_MS environment variable overrides either.
  explicit Executor(int num_threads, int watchdog_ms = 0);
  ~Executor();
  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  int num_threads() const { return num_threads_; }

  // Runs fn(ctx, t) for every t in [0, num_tasks), task t on thread t, and
  // returns when all tasks finished (a full barrier: every task's writes are
  // visible to the caller). num_tasks must not exceed num_threads(). Not
  // reentrant: tasks must not call parallel() themselves.
  void parallel(int num_tasks, TaskFn fn, void* ctx);

  // True when no dispatch is in flight (all workers have finished their
  // tasks and reported). Between dispatches this is the executor's resting
  // state; Engine::drain() checks it before discarding round state.
  bool quiescent() const {
    // PAIR(dispatch-barrier): acquire the workers' final task writes
    return outstanding_.load(std::memory_order_acquire) == 0;
  }

  // Task index of the calling thread inside a dispatch, -1 outside. This is
  // the shard the thread owns; the data plane uses it to pin shard ownership
  // violations.
  static int this_task();

  // --- watchdog (§9) --------------------------------------------------------

  // Progress heartbeat for long sweeps: Engine::run ticks once per callback
  // so a legitimately slow round (one shard grinding through a huge sweep
  // while the caller waits at the barrier) never reads as a hang. Task
  // completions and dispatch exits beat implicitly. Callable only from
  // inside a dispatched task (per-thread slot, relaxed, owned line).
  void tick();

  // Registers the owner's state dump, appended to the executor's own when
  // the watchdog fires (the data plane prints per-bucket fills there).
  void set_watchdog_dump(void (*fn)(void*), void* ctx) {
    dump_fn_ = fn;
    dump_ctx_ = ctx;
  }

 private:
  // Per-thread watchdog state, one cache line each: a monotone tick counter
  // (summed into the progress signature) and the phase/task pair the dump
  // prints for "where is every thread stuck".
  struct alignas(64) ThreadState {
    std::atomic<std::uint64_t> ticks{0};
    std::atomic<int> phase{0};  // kPhase*
    std::atomic<int> task{-1};
  };
  enum : int {
    kPhaseIdle = 0,
    kPhaseStage1,
    kPhaseBarrier,
  };

  void worker_loop(int idx);
  void wait_barrier();
  // The last worker to finish dispatch `gen` waits here, watched, until the
  // caller's task 0 has returned, so a task 0 that never returns is seen.
  void watch_task0(std::uint64_t gen);

  // Blocks until a.load(acquire) != expected and returns the observed value,
  // parking on a timed futex when the watchdog is armed: a full window with
  // no change in the executor-wide progress signature fires the §9 dump +
  // abort. `phase`/`task` describe the wait for the dump.
  int wait_watched(const std::atomic<int>& a, int expected, int phase,
                   int task);
  std::uint64_t progress_signature() const;
  [[noreturn]] void watchdog_fire(int phase, int task);

  TaskFn fn_ = nullptr;
  void* ctx_ = nullptr;
  int num_tasks_ = 0;
  bool stop_ = false;
  // Dispatch protocol: fn_/ctx_/num_tasks_/stop_ are written by the caller,
  // then published by the generation bump (release); workers acquire-load
  // the generation, run their task, and decrement outstanding_ (release).
  // The caller's acquire-load of outstanding_ == 0 closes the barrier.
  // SHARED-LINE(two writes per dispatch — padding these off the dispatch
  // fields they publish would buy nothing)
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> outstanding_{0};
  // Watchdog state (§9). progress_ is bumped (relaxed) once by every worker
  // per dispatch, when its task completes, right before its dispatch exit;
  // with the per-thread tick counters it forms the progress signature the
  // barrier wait compares across timeout windows. Zero watchdog_ns_ =
  // disabled (plain untimed parks).
  std::int64_t watchdog_ns_ = 0;
  // SHARED-LINE(one relaxed bump per worker per dispatch; its line-mates are
  // generation_/outstanding_, the threads_state_ header tick() reads, and
  // the once-per-process fired_ flag)
  std::atomic<std::uint64_t> progress_{0};
  // Low 31 bits of the last dispatch generation whose task 0 (run by the
  // caller) has returned, or kTask0Watched while the last worker of the
  // running dispatch is parked on it in the watched wait — so while task 0
  // runs some thread is in a timed, watched wait, and the caller, which
  // swaps in the generation after task 0, wakes only a parked watcher.
  static constexpr std::uint64_t kTask0GenMask = 0x7fffffff;
  static constexpr int kTask0Watched = -1;
  // SHARED-LINE(one caller RMW per dispatch, at most one worker RMW)
  std::atomic<int> task0_done_{0};
  std::vector<ThreadState> threads_state_;
  std::atomic<int> fired_{0};  // first firing thread wins; others park
  void (*dump_fn_)(void*) = nullptr;
  void* dump_ctx_ = nullptr;

  std::vector<std::thread> workers_;
  int num_threads_ = 1;
};

}  // namespace pw::sim
