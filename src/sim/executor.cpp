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
// per-thread tick/stage slots are keyed by it, not by the task id, which is
// -1 between claimed stage-2 tasks.
thread_local int tl_thread = -1;

std::int64_t mono_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return ts.tv_sec * 1'000'000'000LL + ts.tv_nsec;
}

#if defined(__linux__)
// The watchdog needs TIMED parks, which std::atomic::wait cannot express, so
// the waits it guards (dispatch barrier, merge-claim park) use the futex
// syscall directly — wait AND wake sides, never mixed with the std:: ones.
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

void futex_wake_one(std::atomic<int>* a) {
  syscall(SYS_futex, reinterpret_cast<std::uint32_t*>(a), FUTEX_WAKE_PRIVATE,
          1, nullptr, nullptr, 0);
}

constexpr bool kTimedParks = true;
#else
// No timed park off Linux: the waits fall back to std::atomic and the
// watchdog is inert (waits still correct, hangs just stay hangs).
void futex_wait(const std::atomic<int>* a, int expected, std::int64_t) {
  // WD-EXEMPT: this IS the park primitive — phase accounting lives in the
  // wait_watched wrapper, which is the only pipelined caller.
  a->wait(expected, std::memory_order_relaxed);
}
void futex_wake_all(std::atomic<int>* a) { a->notify_all(); }
void futex_wake_one(std::atomic<int>* a) { a->notify_one(); }
constexpr bool kTimedParks = false;
#endif

const char* phase_name(int phase) {
  switch (phase) {
    case 1: return "stage1-sweep";
    case 2: return "barrier-wait";
    case 3: return "claim-wait";
    case 4: return "stage2-merge";
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
    : deps_left_(static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads)),
      ready_state_(static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads)),
      threads_state_(
          static_cast<std::size_t>(num_threads < 1 ? 1 : num_threads)),
      num_threads_(num_threads < 1 ? 1 : num_threads) {
  // NOLINTNEXTLINE(concurrency-mt-unsafe): ctor runs before any worker exists
  if (const char* e = std::getenv("PW_WATCHDOG_MS")) watchdog_ms = std::atoi(e);
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
    // the generation (§9); the watchdog guards only the pipelined waits.
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
    if (stage2_ != nullptr) {
      pipeline_thread(idx);
    } else if (idx < num_tasks_) {
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
    if (outstanding_.fetch_sub(1, std::memory_order_release) == 1)
      futex_wake_all(&outstanding_);
  }
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
    // Timed park + no-progress detection: a wedged close stops producing
    // seals/stage completions/ticks everywhere, so the signature freezes and
    // a full quiet window fires the §9 dump. Any progress re-arms the window
    // — a slow round can re-arm forever, a deadlock cannot.
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
               "wedged in %s (task %d); dumping pipeline state before abort "
               "(DESIGN.md §9)\n",
               static_cast<long long>(watchdog_ns_ / 1'000'000LL), tl_thread,
               phase_name(phase), task);
  const bool live = stage2_ != nullptr;
  std::fprintf(stderr,
               "PW_WATCHDOG: dispatch: %s, num_tasks=%d claimed=%d "
               "published_seq=%d outstanding=%d\n",
               live ? "pipeline" : "barriered/none", num_tasks_,
               claimed_.load(std::memory_order_relaxed),
               published_seq_.load(std::memory_order_relaxed),
               outstanding_.load(std::memory_order_relaxed));
  if (live)
    for (int d = 0; d < num_tasks_; ++d)
      // ready_state: 0 = unpublished, 1 = published, 2 = claimed.
      std::fprintf(
          stderr, "PW_WATCHDOG: stage2 task %d: deps_left=%d ready_state=%d\n",
          d,
          deps_left_[static_cast<std::size_t>(d)].load(
              std::memory_order_relaxed),
          ready_state_[static_cast<std::size_t>(d)].load(
              std::memory_order_relaxed));
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
  stage2_ = nullptr;
  num_tasks_ = num_tasks;
  outstanding_.store(static_cast<int>(workers_.size()), std::memory_order_relaxed);
  // PAIR(dispatch-generation): fn_/ctx_/num_tasks_ published to the workers
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  tl_task = 0;
  fn(ctx, 0);
  tl_task = -1;
  wait_barrier();
}

// Publishes stage-2 task d for claiming. Called on the thread whose seal
// dropped d's dependency counter to zero: that thread has acquired every
// feeder's release, so the release store of the published state plus the
// claimer's acquire CAS carry all of d's inputs to whichever thread runs d.
void Executor::publish(int d) {
  // PAIR(ready-state): publish d (and, transitively, its sealed inputs) to
  // the claimers' acquire CAS/loads
  ready_state_[static_cast<std::size_t>(d)].store(kReadyPublished,
                                                  std::memory_order_release);
  // Store-buffer handshake with the claim loop's park: the seq_cst bump vs.
  // the parker's seq_cst registration guarantee at least one side sees the
  // other, so the wake is CONDITIONAL on a registered waiter — no syscall
  // when every thread is busy scanning or merging — and wakes ONE parked
  // claimer, since one publish makes one task claimable (the old ring had
  // the same one-wake discipline via per-slot cells; an unconditional
  // wake-all here is a thundering herd on every publish).
  // PAIR(published-seq): publish event, observed by the claim loop's parks
  published_seq_.fetch_add(1, std::memory_order_seq_cst);
  // PAIR(claim-waiters): Dekker read — is anyone parked on the sequence?
  if (claim_waiters_.load(std::memory_order_seq_cst) != 0)
    futex_wake_one(&published_seq_);
}

// Seals one dependency edge into stage-2 task d. The acq_rel fetch_sub
// chains the feeders: the thread that drops a counter to zero has acquired
// every earlier feeder's release, so its publish() carries ALL of the
// stage-2 task's inputs to whichever thread claims it.
void Executor::seal(int d) {
  if (d == withhold_dest_.load(std::memory_order_relaxed) &&
      tl_task == withhold_task_.load(std::memory_order_relaxed)) {
    // debug_withhold_seal: swallow exactly this one seal — the on-demand
    // missed-seal deadlock the watchdog death test drives (§9).
    withhold_dest_.store(-1, std::memory_order_relaxed);
    withhold_task_.store(-1, std::memory_order_relaxed);
    return;
  }
  // Transport publish hook (§10): runs on the sealing thread before the
  // dependency counter drops, so the seal's own release chain is what carries
  // the published frame to the merge.
  if (seal_fn_ != nullptr) seal_fn_(ctx_, tl_task, d);
  progress_.fetch_add(1, std::memory_order_relaxed);
  // PAIR(deps-left): RMW chain — each decrement acquires every earlier
  // feeder's release, so the zero-dropper holds ALL of d's inputs
  if (deps_left_[static_cast<std::size_t>(d)].fetch_sub(
          1, std::memory_order_acq_rel) == 1)
    publish(d);
}

// The per-thread body of a pipeline() dispatch: stage-1 task idx (if the
// thread owns one), then the seal of its whole out-list, then the claim
// loop over the published stage-2 tasks.
void Executor::pipeline_thread(int idx) {
  ThreadState& st = threads_state_[static_cast<std::size_t>(idx)];
  if (idx < num_tasks_) {
    st.phase.store(kPhaseStage1, std::memory_order_relaxed);
    st.task.store(idx, std::memory_order_relaxed);
    tl_task = idx;
    fn_(ctx_, idx);
    for (int i = deps_.out_beg[idx]; i < deps_.out_beg[idx + 1]; ++i)
      seal(deps_.out[i]);
    tl_task = -1;
    progress_.fetch_add(1, std::memory_order_relaxed);
  }
  // Claim loop: walk the publish slots starting at this thread's own index
  // (so claimers fan out over different slots instead of all racing for
  // slot 0) and CAS the first published one to claimed; a slot lost to a
  // racing claimer just moves the walk on. There are at most num_threads_
  // slots, so the walk is the whole index. When no slot is published, park
  // on published_seq_ (snapshotted BEFORE the walk, so a publish racing it
  // makes the park return immediately). Every task is eventually published
  // (all stage-1 tasks run), so the wait terminates — unless a seal went
  // missing, which is exactly what the watchdog inside wait_watched() turns
  // from a silent hang into a diagnostic abort (§9).
  // PAIR(claimed-count): acquire the final claimer's exit publication
  while (claimed_.load(std::memory_order_acquire) < num_tasks_) {
    // PAIR(published-seq): park snapshot, taken BEFORE the slot walk
    const int seq = published_seq_.load(std::memory_order_acquire);
    int claim = -1;
    for (int k = 0; k < num_tasks_; ++k) {
      const int d = (idx + k) % num_tasks_;
      std::atomic<int>& slot = ready_state_[static_cast<std::size_t>(d)];
      // Plain read first: a failed CAS still takes the line exclusive, and
      // most slots a walk passes are unpublished or already claimed.
      int expected = slot.load(std::memory_order_relaxed);
      // PAIR(ready-state): the exactly-once claim arbiter — the winning
      // CAS acquires every input the publish released
      if (expected == kReadyPublished &&
          slot.compare_exchange_strong(expected, kReadyClaimed,
                                       std::memory_order_acq_rel,
                                       std::memory_order_relaxed)) {
        claim = d;
        break;
      }
    }
    if (claim >= 0) {
      // PAIR(claimed-count): RMW chain — the final claimer acquires every
      // earlier claim before broadcasting the drain
      if (claimed_.fetch_add(1, std::memory_order_acq_rel) + 1 == num_tasks_) {
        // Final claim: bump the publish sequence so threads parked waiting
        // for more work wake up, see claimed_ == num_tasks_, and leave.
        // Everyone still parked must exit, so this wake is the broadcast one.
        // PAIR(published-seq): final bump so parked claimers re-check
        published_seq_.fetch_add(1, std::memory_order_seq_cst);
        // PAIR(claim-waiters): Dekker read before the broadcast wake
        if (claim_waiters_.load(std::memory_order_seq_cst) != 0)
          futex_wake_all(&published_seq_);
      }
      st.phase.store(kPhaseStage2, std::memory_order_relaxed);
      st.task.store(claim, std::memory_order_relaxed);
      tl_task = claim;
      stage2_(ctx_, claim);
      tl_task = -1;
      progress_.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    // PAIR(claimed-count): drained-dispatch re-check before parking
    if (claimed_.load(std::memory_order_acquire) >= num_tasks_) break;
    // Register as a parked claimer before sleeping (publish()'s conditional
    // wake reads this count — seq_cst on both sides, see there), then
    // re-check the sequence: a publish that raced the registration already
    // bumped it, and parking on the stale snapshot would miss its wake.
    // PAIR(claim-waiters): Dekker write — register before the re-check
    claim_waiters_.fetch_add(1, std::memory_order_seq_cst);
    // PAIR(published-seq): re-check after registration (handshake)
    if (published_seq_.load(std::memory_order_seq_cst) == seq)
      wait_watched(published_seq_, seq, kPhaseClaim, -1);
    claim_waiters_.fetch_sub(1, std::memory_order_relaxed);
  }
  st.phase.store(kPhaseIdle, std::memory_order_relaxed);
}

void Executor::pipeline(int num_tasks, TaskFn stage1, TaskFn stage2,
                        const PipelineDeps& deps, void* ctx,
                        void (*on_seal)(void* ctx, int s, int d)) {
  PW_CHECK(num_tasks >= 1 && num_tasks <= num_threads_);
  PW_CHECK(tl_task == -1);  // no nested dispatch
  tl_thread = 0;
  if (workers_.empty() || num_tasks == 1) {
    // Degenerate pipeline: the single stage-1 task followed by its only
    // dependent, inline on the caller — nothing to seal, nobody to wait.
    tl_task = 0;
    stage1(ctx, 0);
    stage2(ctx, 0);
    tl_task = -1;
    return;
  }
  for (int d = 0; d < num_tasks; ++d) {
    deps_left_[static_cast<std::size_t>(d)].store(deps.dep_count[d],
                                                  std::memory_order_relaxed);
    ready_state_[static_cast<std::size_t>(d)].store(kReadyUnpublished,
                                                    std::memory_order_relaxed);
  }
  claimed_.store(0, std::memory_order_relaxed);
  // published_seq_ is deliberately NOT reset: waits compare against a
  // snapshot, so a monotone counter across dispatches is fine and avoids
  // confusing a stale parked futex from a previous generation.
  fn_ = stage1;
  stage2_ = stage2;
  deps_ = deps;
  ctx_ = ctx;
  num_tasks_ = num_tasks;
  seal_fn_ = on_seal;
  outstanding_.store(static_cast<int>(workers_.size()), std::memory_order_relaxed);
  // PAIR(dispatch-generation): the pipeline fields + counter resets above,
  // published to the workers
  generation_.fetch_add(1, std::memory_order_release);
  generation_.notify_all();
  pipeline_thread(0);
  wait_barrier();
  stage2_ = nullptr;
  seal_fn_ = nullptr;
  // Every dependency edge must have been sealed exactly once: a missed seal
  // would have deadlocked a merge (the claim loop above would never return),
  // a double seal leaves a counter negative here and could have published a
  // stage-2 task twice.
  for (int d = 0; d < num_tasks; ++d)
    PW_CHECK_MSG(
        deps_left_[static_cast<std::size_t>(d)].load(
            std::memory_order_relaxed) == 0,
        "pipeline dispatch ended with a nonzero dependency counter for "
        "stage-2 task %d (seal discipline broken, DESIGN.md §8)",
        d);
}

}  // namespace pw::sim
