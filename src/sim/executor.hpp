// Persistent worker pool for the sharded CONGEST data plane (DESIGN.md §7, §8).
//
// The engine runs two kinds of shard-parallel work per round: the user's
// per-node callbacks (Engine::run) and the deterministic end-of-round merge.
// Both dispatch through this executor, either as two barriered phases
// (parallel(), DESIGN.md §7) or fused into one dependency-driven two-stage
// dispatch that overlaps them (pipeline(), DESIGN.md §8). Workers are spawned
// once at engine construction and parked on a futex between dispatches — no
// per-round thread creation, no steady-state heap allocation, and a plain
// function pointer + context void* instead of std::function (whose assignment
// may allocate).
//
// Task t of a stage-1 dispatch always executes on thread t (the calling
// thread runs task 0), so a task owns the same shard every round —
// shard-local state needs no synchronization beyond the dispatch barrier
// itself. Stage-2 tasks of a pipeline() dispatch are instead claimed
// dynamically: publishing a task flips its publish slot to published, and a
// free thread walks the <= num_threads slots starting at its own index and
// CASes the first published one to claimed. Each task runs exactly once on
// whichever thread wins that CAS.
//
// A stage-1 task SEALS when its function returns: every out-edge at once,
// decrementing the dependency counters of the stage-2 tasks it feeds. The
// thread that drops a counter to zero publishes that stage-2 task
// (DESIGN.md §8, the shard-granular close).
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

namespace pw::sim {

// Which transport carries sealed buckets between shards (DESIGN.md §10).
// kInProc — the identity transport: the merge reads the staging arena the
// senders wrote, ordered by the §8 seal machinery alone. The pre-§10 engine,
// bit for bit, and the default. kShmRing — sealed buckets are serialized
// into fixed-width SPSC shared-memory rings (one per nonzero cross-shard
// link) at their seals and deserialized by the consuming merge;
// delivery traces stay bit-identical, messages just really cross a
// serialization boundary. Engines with a single shard have no links and
// silently degenerate to kInProc. Defined here rather than transport.hpp so
// ExecutionPolicy stays self-contained (transport.hpp includes this header).
enum class TransportKind : std::uint8_t { kInProc = 0, kShmRing = 1 };

// How Engine executes rounds. num_threads == 1 (the default) is the fully
// sequential engine: no worker threads are spawned and every dispatch runs
// inline. num_threads > 1 shards the data plane and runs callbacks and the
// end-of-round merge shard-parallel; accounting and delivery stay
// bit-identical to the sequential engine (DESIGN.md §7).
//
// `pipeline` (default on, meaningful only with num_threads > 1) selects the
// pipelined round close of DESIGN.md §8 for Engine::run: a worker that
// finishes its callback shard immediately starts merging any destination
// shard whose incoming traffic is complete, instead of waiting at a full
// barrier between the callback and merge phases. Accounting stays
// bit-identical either way; the flag exists so benchmarks can measure both
// modes and bisection can rule the overlap machinery in or out.
// `watchdog_ms` (default 60 s, 0 = off) arms the no-progress watchdog of
// DESIGN.md §9 on the executor's blocking waits: if a pipelined-close wait
// (the dispatch barrier or a merge-claim park) sees no executor-wide progress
// for a full window, the run aborts with a diagnostic dump — dependency
// counters, publish states, per-thread stage, per-bucket fills — instead of
// hanging CI forever. The known failure class it converts into a diagnosis
// is a missed seal (§8); the PW_WATCHDOG_MS environment variable overrides
// the policy value for whole-process tuning.
// `transport` (default kInProc) selects what carries sealed buckets between
// shards — see TransportKind above. Purely a data-plane property: both
// close modes, the fault plane, and the accounting run unchanged on either.
// Spell multi-field policies with designated initializers
// (`{.num_threads = 4, .pipeline = false}`), so a removed or reordered field
// is a compile error rather than a silent shift into the next one.
struct ExecutionPolicy {
  int num_threads = 1;
  bool pipeline = true;
  int watchdog_ms = 60000;
  TransportKind transport = TransportKind::kInProc;

  // The default multi-threaded policy: one worker per hardware thread
  // (pipelined close on). What the examples and CLIs construct engines with
  // unless the user picks a thread count explicitly.
  static ExecutionPolicy hardware() {
    return {static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()))};
  }
};

class Executor {
 public:
  using TaskFn = void (*)(void* ctx, int task);

  // Static dependency graph of a pipeline() dispatch, owned by the caller
  // (the data plane builds it once at construction). Stage-1 task s feeds the
  // stage-2 tasks out[out_beg[s] .. out_beg[s+1]); dep_count[d] is the number
  // of distinct stage-1 tasks feeding stage-2 task d and must match the edge
  // lists exactly (every stage-2 task needs dep_count >= 1, so it cannot
  // start before the dispatch does).
  struct PipelineDeps {
    const int* out_beg = nullptr;    // size num_tasks + 1
    const int* out = nullptr;        // concatenated stage-2 out-lists
    const int* dep_count = nullptr;  // size num_tasks, each >= 1
  };

  // Spawns num_threads - 1 workers (thread 0 is the caller). watchdog_ms
  // arms the no-progress watchdog (§9) on the executor's blocking waits;
  // 0 disables it, the PW_WATCHDOG_MS environment variable overrides either.
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

  // Two-stage dependency-driven dispatch (DESIGN.md §8): runs stage-1 task t
  // on thread t exactly like parallel(); the moment a thread finishes its
  // stage-1 task it SEALS it — decrementing the dependency counters of the
  // stage-2 tasks it feeds (deps.out) — and the thread that drops a counter
  // to zero PUBLISHES that stage-2 task. Free threads claim published
  // stage-2 tasks (any thread, each task exactly once) until all num_tasks
  // of them have run, so stage-2 work for one task overlaps stage-1 work of
  // tasks it does not depend on.
  // Returns when both stages finished everywhere (a full barrier like
  // parallel()); there is no barrier BETWEEN the stages. Not reentrant, and
  // this_task() inside a stage-2 task reports the stage-2 task id. The
  // dispatch ends with every dependency counter at zero (checked: a missed
  // seal would deadlock a merge, a double seal could run one twice).
  // on_seal, when non-null, is invoked as on_seal(ctx, s, d) at the top of
  // every effective seal of edge (s → d), on the sealing thread, BEFORE the
  // dependency counter drops. The data plane publishes bucket (s, d) on its
  // transport there (§10): the seal's release chain then carries the
  // published frame to whichever thread merges d. A withheld seal
  // (debug_withhold_seal) suppresses the hook too — it models the seal never
  // happening.
  void pipeline(int num_tasks, TaskFn stage1, TaskFn stage2,
                const PipelineDeps& deps, void* ctx,
                void (*on_seal)(void* ctx, int s, int d) = nullptr);

  // True when no dispatch is in flight (all workers have finished their
  // tasks and reported). Between dispatches this is the executor's resting
  // state; Engine::drain() checks it before discarding round state.
  bool quiescent() const {
    // PAIR(dispatch-barrier): acquire the workers' final task writes
    return outstanding_.load(std::memory_order_acquire) == 0;
  }

  // Task index of the calling thread inside a dispatch, -1 outside. During
  // stage 1 of pipeline() (and all of parallel()) this is the shard the
  // thread owns; the data plane uses it to pin shard ownership violations.
  static int this_task();

  // --- watchdog (§9) --------------------------------------------------------

  // Progress heartbeat for long stage-1 sweeps: Engine::run ticks once per
  // callback so a legitimately slow round (one shard grinding through a huge
  // sweep while every other thread is parked on it) never reads as a hang.
  // Seals, stage completions, and dispatch exits beat implicitly. Callable
  // only from inside a stage-1 task (per-thread slot, relaxed, owned line).
  void tick();

  // Registers the owner's state dump, appended to the executor's own when
  // the watchdog fires (the data plane prints per-bucket fills there).
  void set_watchdog_dump(void (*fn)(void*), void* ctx) {
    dump_fn_ = fn;
    dump_ctx_ = ctx;
  }

  // TEST HOOK (§9): the next seal by stage-1 task `task` of its edge into
  // stage-2 task `dest` is swallowed — the missed-seal deadlock class, on
  // demand. dest's dependency counter never reaches zero, some claim wait
  // never returns, and the watchdog must convert the hang into a diagnostic
  // abort.
  void debug_withhold_seal(int task, int dest) {
    withhold_task_.store(task, std::memory_order_relaxed);
    withhold_dest_.store(dest, std::memory_order_relaxed);
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
    kPhaseClaim,
    kPhaseStage2,
  };
  // ready_state_ publish protocol: unpublished → published → claimed.
  enum : int {
    kReadyUnpublished = 0,
    kReadyPublished,
    kReadyClaimed,
  };

  void worker_loop(int idx);
  void pipeline_thread(int idx);
  void wait_barrier();
  void publish(int d);
  // Seals one dependency edge of the running stage-1 task into stage-2 task
  // d: decrements d's dependency counter (acq_rel, so everything the task
  // wrote for d is published) and, on reaching zero, publishes d.
  void seal(int d);

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
  TaskFn stage2_ = nullptr;  // non-null marks a pipeline() dispatch
  PipelineDeps deps_{};
  int num_tasks_ = 0;
  bool stop_ = false;
  void (*seal_fn_)(void*, int, int) = nullptr;  // §10 transport publish hook
  // Dispatch protocol: fn_/ctx_/stage2_/deps_/num_tasks_/stop_ and the
  // pipeline counters below are written by the caller, then published by the
  // generation bump (release); workers acquire-load the generation, run their
  // work, and decrement outstanding_ (release). The caller's acquire-load of
  // outstanding_ == 0 closes the barrier.
  // SHARED-LINE(two writes per dispatch — padding these off the dispatch
  // fields they publish would buy nothing)
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<int> outstanding_{0};
  // Pipeline state, sized to num_threads_ once at construction.
  // ready_state_[d] carries stage-2 task d's publish state (kReady*); the
  // claim is a CAS from published to claimed, so each task runs exactly once
  // even when several threads reach the same slot. published_seq_ counts
  // publishes (plus the final claim) and is the single futex claimers park
  // on; claimed_ counts claims so threads know when the dispatch is drained.
  // claim_waiters_ counts threads parked on published_seq_ (a seq_cst
  // store-buffer handshake against the publish bump), so a publish skips the
  // wake syscall when nobody sleeps and wakes one claimer — not the herd —
  // when somebody does.
  // SHARED-LINE(vector headers, cold after construction — the contended
  // elements live in the heap blocks, spaced by the §8 claim protocol)
  std::vector<std::atomic<int>> deps_left_;
  std::vector<std::atomic<int>> ready_state_;
  // SHARED-LINE(the three claim counters move together in every claim
  // handshake — separating them would triple the misses)
  std::atomic<int> published_seq_{0};
  std::atomic<int> claimed_{0};
  std::atomic<int> claim_waiters_{0};
  // Watchdog state (§9). progress_ is bumped (relaxed) by every seal, stage
  // completion, and dispatch exit; together with the per-thread tick counters
  // it forms the progress signature a blocked wait compares across timeout
  // windows. Zero watchdog_ns_ = disabled (plain untimed parks).
  std::int64_t watchdog_ns_ = 0;
  // SHARED-LINE(watchdog-rate traffic — relaxed signature bumps plus a
  // once-per-process fired flag; never on the claim/seal hot path)
  std::atomic<std::uint64_t> progress_{0};
  std::vector<ThreadState> threads_state_;
  std::atomic<int> fired_{0};  // first firing thread wins; others park
  void (*dump_fn_)(void*) = nullptr;
  void* dump_ctx_ = nullptr;
  // debug_withhold_seal arming, -1 = off. Atomic (relaxed): the matching
  // thread clears the arming mid-dispatch while siblings' seals still read.
  // SHARED-LINE(test hook — written only by debug_withhold_seal, read once
  // per seal on the chaos-test path)
  std::atomic<int> withhold_task_{-1};
  std::atomic<int> withhold_dest_{-1};

  std::vector<std::thread> workers_;
  int num_threads_ = 1;
};

}  // namespace pw::sim
