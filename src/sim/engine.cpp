#include "src/sim/engine.hpp"

namespace pw::sim {

namespace {
// Aborts unless policy.num_threads <= ExecutionPolicy::kMaxThreads, then
// returns the shard count to request (at least 1). Runs in the data plane's
// initializer, so the check fires before any bucket table or worker thread
// exists.
int checked_shards(const ExecutionPolicy& policy) {
  PW_CHECK_MSG(policy.num_threads <= ExecutionPolicy::kMaxThreads,
               "ExecutionPolicy::num_threads = %d exceeds the engine's limit "
               "of %d threads",
               policy.num_threads, ExecutionPolicy::kMaxThreads);
  return policy.num_threads < 1 ? 1 : policy.num_threads;
}
}  // namespace

Engine::Engine(const graph::Graph& g, ExecutionPolicy policy)
    : Engine(g, policy, FaultPolicy{}) {}

Engine::Engine(const graph::Graph& g, ExecutionPolicy policy,
               const FaultPolicy& faults)
    : g_(&g),
      // A disabled fault policy (the default) arms nothing — same engine,
      // bit for bit.
      dp_(g, checked_shards(policy), &faults, policy.transport),
      // Shard rounding can leave fewer shards than requested threads; never
      // spawn workers that could have no shard to own.
      exec_(dp_.num_shards(), policy.watchdog_ms),
      policy_(policy) {
  // When the watchdog fires, the data plane's per-bucket fill state is the
  // half of the picture the executor cannot print itself (§9).
  exec_.set_watchdog_dump(
      +[](void* c) { static_cast<DataPlane*>(c)->watchdog_dump(); }, &dp_);
}

void Engine::wake(int v) {
  PW_CHECK(v >= 0 && v < g_->n());
  dp_.wake(v);
}

void Engine::begin_round() {
  PW_CHECK(!in_round_);
  // The staging buckets must be empty here: end_round() consumed them and
  // drain() never refills them. A violation means a layout bug, and with it
  // silently wrong delivery — abort instead.
  PW_CHECK(dp_.staging_empty());
  in_round_ = true;
  dp_.begin_round();
}

void Engine::send(int v, int port, const Msg& m) {
  PW_CHECK(in_round_);
  PW_CHECK(port >= 0 && port < g_->degree(v));
  dp_.stage(v, port, m);
}

void Engine::end_round() {
  PW_CHECK(in_round_);
  messages_ += dp_.end_round(exec_);
  in_round_ = false;
  ++rounds_;
}

void Engine::drain() {
  // Mid-round drains are forbidden, and from a shard-parallel callback they
  // would be a race, not just wrong: a callback that drained while sibling
  // shards still sweep would discard wake lists those siblings are
  // concurrently writing (§7). Abort with an explicit message instead of
  // relying on the generic in_round_ check.
  PW_CHECK_MSG(!in_round_ && !dp_.in_parallel_callbacks(),
               "drain() inside an open round: finish the round (or let run() "
               "return) before draining (DESIGN.md §7)");
  // Belt and suspenders for the same hazard from a second thread: every
  // dispatch fully quiesces the executor before the round closes, so any
  // in-flight task here means the protocol above was bypassed.
  PW_CHECK_MSG(exec_.quiescent(),
               "drain() with executor tasks still in flight (DESIGN.md §7)");
  // Sends only happen inside rounds and end_round() consumes them, so the
  // staging buckets are empty here; only delivered-but-unread runs and
  // wakeups need discarding.
  PW_CHECK(dp_.staging_empty());
  dp_.drain();
}

}  // namespace pw::sim
