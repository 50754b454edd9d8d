#include "src/sim/engine.hpp"

namespace pw::sim {

Engine::Engine(const graph::Graph& g, ExecutionPolicy policy)
    : Engine(g, policy, FaultPolicy{}) {}

Engine::Engine(const graph::Graph& g, ExecutionPolicy policy,
               const FaultPolicy& faults)
    : g_(&g),
      // A disabled fault policy (the default) arms nothing — same engine,
      // bit for bit.
      dp_(g, policy.num_threads < 1 ? 1 : policy.num_threads, &faults,
          policy.transport),
      // Shard rounding can leave fewer shards than requested threads; never
      // spawn workers that could have no shard to own.
      exec_(dp_.num_shards(), policy.watchdog_ms),
      policy_(policy),
      // The pipelined close only exists where there are phases to overlap.
      pipeline_(policy.pipeline && dp_.num_shards() > 1) {
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
  finish_round(dp_.end_round(exec_));
}

void Engine::drain() {
  // Mid-round drains are forbidden, and with the pipelined close they would
  // be catastrophic, not just wrong: a callback that drained while sibling
  // shards still sweep — and destination merges are in flight or their
  // dependency counters nonzero — would discard wake lists the merges are
  // concurrently writing (§8). Abort with an explicit message instead of
  // relying on the generic in_round_ check.
  PW_CHECK_MSG(!in_round_ && !dp_.in_parallel_callbacks(),
               "drain() inside an open round: finish the round (or let run() "
               "return) before draining (DESIGN.md §8)");
  // Belt and suspenders for the same §8 hazard from a second thread: every
  // dispatch (barriered or pipelined) fully quiesces the executor before the
  // round closes, so any in-flight merge task here means the protocol above
  // was bypassed.
  PW_CHECK_MSG(exec_.quiescent(),
               "drain() with executor tasks still in flight (DESIGN.md §8)");
  // Sends only happen inside rounds and end_round() consumes them, so the
  // staging buckets are empty here; only delivered-but-unread runs and
  // wakeups need discarding.
  PW_CHECK(dp_.staging_empty());
  dp_.drain();
}

}  // namespace pw::sim
