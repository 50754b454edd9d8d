#include "src/sim/executor.hpp"

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <ctime>

#if defined(__linux__)
#include <sys/syscall.h>
#include <unistd.h>

#include <linux/futex.h>
#endif

#include "src/util/check.hpp"

namespace pw::sim {

namespace {
// Shard index of the current thread inside a dispatch. Thread-local rather
// than a member so the data plane can query it without plumbing the executor
// through every hot call.
thread_local int tl_task = -1;
// Stable thread index (0 = dispatching caller, workers 1..): the watchdog's
// per-thread tick/phase slots are keyed by it, not by the task id, which is
// -1 between dispatches.
thread_local int tl_thread = -1;

// PW_WATCHDOG_MS is decimal digits only, 0 <= v <= INT_MAX. std::atoi read
// "abc" and "-5" as "watchdog off" and overflowed on long digit strings.
int parse_watchdog_ms(const char* text) {
  long long v = 0;
  bool ok = *text != '\0';
  for (const char* c = text; ok && *c != '\0'; ++c) {
    ok = *c >= '0' && *c <= '9';
    v = v * 10 + (*c - '0');
    ok = ok && v <= INT_MAX;
  }
  PW_CHECK_MSG(ok,
               "PW_WATCHDOG_MS='%s' is not a decimal millisecond count in "
               "[0, %d]",
               text, INT_MAX);
  return static_cast<int>(v);
}

std::int64_t mono_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

#if defined(__linux__)
// The watchdog needs TIMED parks, which std::atomic::wait cannot express, so
// the waits it guards (the dispatch barrier, the last worker's wait on task
// 0) use the futex syscall directly — wait AND wake sides, never mixed with
// the std:: ones.
// The generation park in worker_loop is not a deadlock class (the caller
// always bumps it) and stays on std::atomic.
static_assert(sizeof(std::atomic<int>) == sizeof(std::uint32_t));

// Parks until woken, timed out (timeout_ns > 0), or *a != expected at entry.
// Spurious returns are fine: every caller re-checks in a loop.
void futex_wait(const std::atomic<int>* a, int expected,
                std::int64_t timeout_ns) {
  timespec ts;
  timespec* tsp = nullptr;
  if (timeout_ns > 0) {
    ts.tv_sec = timeout_ns / 1'000'000'000LL;
    ts.tv_nsec = timeout_ns % 1'000'000'000LL;
    tsp = &ts;
  }
  syscall(SYS_futex, reinterpret_cast<const std::uint32_t*>(a),
          FUTEX_WAIT_PRIVATE, static_cast<std::uint32_t>(expected), tsp,
          nullptr, 0);
}

void futex_wake_all(std::atomic<int>* a) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(a), FUTEX_WAKE_PRIVATE,
          INT_MAX, nullptr, nullptr, 0);
}

constexpr bool kTimedParks = true;
#else
// No timed park off Linux: the waits fall back to std::atomic and the
// watchdog is inert (waits still correct, hangs just stay hangs).
void futex_wait(const std::atomic<int>* a, int expected, std::int64_t) {
  // WD-EXEMPT: this IS the park primitive — phase accounting lives in the
  // wait_watched wrapper, which is the only caller.
  a->wait(expected, std::memory_order_relaxed);
}
void futex_wake_all(std::atomic<int>* a) { a->notify_all(); }
constexpr bool kTimedParks = false;
#endif

const char* phase_name(int phase) {
  switch (phase) {
    case 1: return "stage1-sweep";
    case 2: return "barrier-wait";
    default: return "idle";
  }
}
}  // namespace

int Executor::this_task() { return tl_task; }

void Executor::tick() {
  if (tl_thread >= 0)
    threads_state_[static_cast<std::size_t>(tl_thread)].ticks.fetch_add(
        1, std::memory_order_relaxed);
}

Executor::Executor(int num_threads, int watchdog_ms)
    : threads_state_(
          static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads)),
      num_threads_(num_threads < 1 ? 1 : num_threads) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): ctor runs before any worker exists
  if (const char* e = std::getenv("PW_WATCHDOG_MS"))
    watchdog_ms = parse_watchdog_ms(e);
  watchdog_ns_ = static_cast<std::int64_t>(watchdog_ms > 0 ? watchdog_ms : 0) *
                 1'000'000LL;
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 1; i < num_threads_; ++i)
    workers_.emplace_back([this, i] { worker_loop(i); });
}

Executor::~Executor() {
  if (workers_.empty()) return;
  stop_ = true;
  num_tasks_ = 0;
  outstanding_.store(static_cast<int>(workers_.size()), std::memory_order_relaxed);
  // PAIR(dispatch-generation): stop flag published to the workers' parks
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  for (auto& w : workers_) w.join();
}

void Executor::worker_loop(int idx) {
  tl_thread = idx;
  ThreadState& st = threads_state_[static_cast<std::size_t>(idx)];
  std::uint64_t seen = 0;
  for (;;) {
    // WD-EXEMPT: not a deadlock class — the dispatching caller always bumps
    // the generation (§9); the watchdog guards the barrier wait and the
    // last worker's wait on task 0 (watch_task0).
    // PAIR(dispatch-generation): park on the dispatch publish
    generation_.wait(seen, std::memory_order_acquire);
    // PAIR(dispatch-generation): acquire the dispatch fields fn_/ctx_/...
    const std::uint64_t gen = generation_.load(std::memory_order_acquire);
    if (gen == seen) continue;  // spurious wake
    seen = gen;
    if (stop_) {
      // PAIR(dispatch-barrier): the exiting worker's final report
      outstanding_.fetch_sub(1, std::memory_order_release);
      return;
    }
    if (idx < num_tasks_) {
      st.phase.store(kPhaseStage1, std::memory_order_relaxed);
      st.task.store(idx, std::memory_order_relaxed);
      tl_task = idx;
      fn_(ctx_, idx);
      tl_task = -1;
      st.phase.store(kPhaseIdle, std::memory_order_relaxed);
    }
    progress_.fetch_add(1, std::memory_order_relaxed);
    // PAIR(dispatch-barrier): this worker's task writes, published to the
    // caller's barrier acquire
    if (outstanding_.fetch_sub(1, std::memory_order_release) == 1) {
      futex_wake_all(&outstanding_);
      // The caller may still be inside task 0, where nobody else watches.
      watch_task0(gen);
    }
  }
}

void Executor::watch_task0(std::uint64_t gen) {
  // Until task 0 of dispatch `gen` returns, the word holds gen - 1: every
  // dispatch stores its own generation after its task 0. Swapping in
  // kTask0Watched tells the caller that a wake is owed; if the caller got
  // there first, task 0 is done and there is nothing to watch.
  int before = static_cast<int>((gen - 1) & kTask0GenMask);
  // PAIR(task0-done): RMW chain — claim the watch, or see task 0 done
  if (!task0_done_.compare_exchange_strong(before, kTask0Watched,
                                           std::memory_order_acq_rel))
    return;
  // PAIR(task0-done): subscribe to the caller's task-0 completion
  while (task0_done_.load(std::memory_order_acquire) == kTask0Watched)
    wait_watched(task0_done_, kTask0Watched, kPhaseBarrier, -1);
}

std::uint64_t Executor::progress_signature() const {
  std::uint64_t sig = progress_.load(std::memory_order_relaxed);
  for (const ThreadState& st : threads_state_)
    sig += st.ticks.load(std::memory_order_relaxed);
  return sig;
}

int Executor::wait_watched(const std::atomic<int>& a, int expected, int phase,
                           int task) {
  int v = a.load(std::memory_order_acquire);
  if (v != expected) return v;
  ThreadState& st = threads_state_[static_cast<std::size_t>(tl_thread)];
  st.phase.store(phase, std::memory_order_relaxed);
  st.task.store(task, std::memory_order_relaxed);
  if (watchdog_ns_ <= 0 || !kTimedParks) {
    do {
      // WD-PHASE(wait-watched-untimed): watchdog disabled — plain park,
      // phase/task already recorded above for the sibling-fired dump
      futex_wait(&a, expected, 0);
    } while ((v = a.load(std::memory_order_acquire)) == expected);
  } else {
    // Timed park + no-progress detection: a wedged task stops producing
    // ticks and task completions, so the signature freezes and a full quiet
    // window fires the §9 dump. Any progress re-arms the window — a slow
    // round can re-arm forever, a task that never returns cannot.
    std::uint64_t sig = progress_signature();
    std::int64_t deadline = mono_ns() + watchdog_ns_;
    for (;;) {
      const std::int64_t remaining = deadline - mono_ns();
      // WD-PHASE(wait-watched-timed): the watchdog-armed park — bounded by
      // the progress-signature window, fires the §9 dump when it freezes
      if (remaining > 0) futex_wait(&a, expected, remaining);
      v = a.load(std::memory_order_acquire);
      if (v != expected) break;
      const std::uint64_t now_sig = progress_signature();
      if (now_sig != sig) {
        sig = now_sig;
        deadline = mono_ns() + watchdog_ns_;
        continue;
      }
      if (mono_ns() >= deadline) watchdog_fire(phase, task);
    }
  }
  st.phase.store(kPhaseIdle, std::memory_order_relaxed);
  return v;
}

void Executor::watchdog_fire(int phase, int task) {
  // PAIR(watchdog-fired): RMW chain — the winning thread's exchange
  // acquires any state a losing thread published before parking
  if (fired_.exchange(1, std::memory_order_acq_rel) != 0) {
    // Another thread is already dumping; park out of its way until its
    // abort() takes the process down.
    // WD-EXEMPT: terminal park — the winning sibling is mid-dump and will
    // abort() the whole process; there is nothing left to watch.
    for (;;) futex_wait(&fired_, 1, 0);
  }
  std::fprintf(stderr,
               "PW_WATCHDOG: no executor progress for %lld ms — thread %d "
               "wedged in %s (task %d); dumping executor state before abort "
               "(DESIGN.md §9)\n",
               static_cast<long long>(watchdog_ns_ / 1'000'000LL), tl_thread,
               phase_name(phase), task);
  std::fprintf(stderr,
               "PW_WATCHDOG: dispatch: num_tasks=%d outstanding=%d\n",
               num_tasks_, outstanding_.load(std::memory_order_relaxed));
  for (int t = 0; t < num_threads_; ++t) {
    const ThreadState& st = threads_state_[static_cast<std::size_t>(t)];
    std::fprintf(stderr,
                 "PW_WATCHDOG: thread %d: phase=%s task=%d ticks=%llu\n", t,
                 phase_name(st.phase.load(std::memory_order_relaxed)),
                 st.task.load(std::memory_order_relaxed),
                 static_cast<unsigned long long>(
                     st.ticks.load(std::memory_order_relaxed)));
  }
  if (dump_fn_ != nullptr) dump_fn_(dump_ctx_);
  std::abort();
}

void Executor::wait_barrier() {
  for (;;) {
    // PAIR(dispatch-barrier): acquire every finished worker's task writes
    const int left = outstanding_.load(std::memory_order_acquire);
    if (left == 0) break;
    wait_watched(outstanding_, left, kPhaseBarrier, -1);
  }
}

void Executor::parallel(int num_tasks, TaskFn fn, void* ctx) {
  PW_CHECK(num_tasks >= 1 && num_tasks <= num_threads_);
  PW_CHECK(tl_task == -1);  // no nested dispatch
  tl_thread = 0;
  if (workers_.empty() || num_tasks == 1) {
    tl_task = 0;
    fn(ctx, 0);
    tl_task = -1;
    // With num_tasks == 1 no worker has anything to do; skipping the wakeup
    // keeps single-task dispatches free of cross-thread traffic.
    return;
  }
  fn_ = fn;
  ctx_ = ctx;
  num_tasks_ = num_tasks;
  outstanding_.store(static_cast<int>(workers_.size()), std::memory_order_relaxed);
  // PAIR(dispatch-generation): fn_/ctx_/num_tasks_ published to the workers
  const std::uint64_t gen =
      generation_.fetch_add(1, std::memory_order_release) + 1;
  generation_.notify_all();
  // Task 0 runs here, on the caller; its phase is what the dump prints when
  // the worker watching it (watch_task0) fires.
  ThreadState& st = threads_state_[0];
  st.phase.store(kPhaseStage1, std::memory_order_relaxed);
  st.task.store(0, std::memory_order_relaxed);
  tl_task = 0;
  fn(ctx, 0);
  tl_task = -1;
  st.phase.store(kPhaseIdle, std::memory_order_relaxed);
  // PAIR(task0-done): RMW chain — task 0 returned; wake the worker only
  // if it is already parked watching
  if (task0_done_.exchange(static_cast<int>(gen & kTask0GenMask),
                           std::memory_order_acq_rel) == kTask0Watched)
    futex_wake_all(&task0_done_);
  wait_barrier();
}

}  // namespace pw::sim
