// Synchronous CONGEST execution engine.
//
// The engine enforces the model of Section 2.1 of the paper:
//   * execution proceeds in discrete synchronous rounds;
//   * per round, each node may send at most one Msg along each incident edge
//     in each direction (violations abort);
//   * a message sent in round t is delivered at the start of round t+1.
//
// Algorithms are written as per-round loops over the engine's active-node
// set (nodes that received a message or were explicitly woken), so the cost
// of simulating quiet regions of the network is zero while round/message
// accounting remains exact.
//
// Execution is layered (DESIGN.md §5, §7): this header owns the public
// round protocol and accounting; `data_plane.{hpp,cpp}` owns the sharded flat
// message arenas and the deterministic end-of-round merge; `executor.{hpp,cpp}`
// owns the persistent worker pool. With ExecutionPolicy{k > 1} the per-node
// callbacks of run() and the end-of-round merge execute shard-parallel, as
// two barriered dispatches per round. Round counts, message counts,
// active-node order, and per-inbox delivery order are BIT-IDENTICAL to the
// sequential engine for any thread count — parallelism lives entirely below
// the accounting layer. Parallel callbacks must honor the §7 thread-safety
// contract: the callback for node v may call send(v, ...) / wake(v)
// (checked) and may only write per-node state it owns.
//
// Accounting: `rounds()` and `messages()` count everything that ran through
// the engine; messages of the open round are added at end_round().
// `charge_rounds()`/`charge_messages()` exist for the few inner schedules the
// library accounts analytically (see DESIGN.md §4); each call site documents
// the lemma justifying the charge.
#pragma once

#include <cstdint>
#include <span>
#include <type_traits>
#include <utility>

#include "src/graph/graph.hpp"
#include "src/sim/data_plane.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/message.hpp"
#include "src/util/check.hpp"

namespace pw::sim {

struct Snapshot {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

struct PhaseStats {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;

  PhaseStats& operator+=(const PhaseStats& o) {
    rounds += o.rounds;
    messages += o.messages;
    return *this;
  }
};

class Engine {
 public:
  explicit Engine(const graph::Graph& g, ExecutionPolicy policy = {});

  // Chaos-mode engine (DESIGN.md §9): same round protocol, same accounting,
  // but the network may drop, delay, or duplicate messages and crash nodes
  // per `faults` — every decision a pure function of (seed, round, arc), so
  // a fixed policy replays bit-identically at any thread count.
  Engine(const graph::Graph& g, ExecutionPolicy policy,
         const FaultPolicy& faults);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  const graph::Graph& graph() const { return *g_; }
  int num_threads() const { return exec_.num_threads(); }

  // The policy this engine was constructed with, as requested (shard rounding
  // may grant fewer worker threads; see num_threads()). Algorithms that spawn
  // inner engines — e.g. min-cut's per-trial MST engines — pass this through
  // so parallelism follows the caller's choice across the whole stack.
  ExecutionPolicy policy() const { return policy_; }

  // Schedules v to be processed next round even if it receives no message.
  // On a faulty() engine the wake is suppressed (and counted) while v is
  // crashed (§9).
  void wake(int v);

  // --- fault plane (§9) -----------------------------------------------------
  // True when a FaultPolicy is armed (the chaos-mode constructor with an
  // enabled policy). Fault-free engines pay nothing for the plane's existence.
  bool faulty() const { return dp_.faulty(); }
  // What the network did so far: drops, delays, duplicates, crash sheds,
  // suppressed wakes. All zero on a fault-free engine. Between rounds only,
  // like idle().
  FaultStats fault_stats() const { return dp_.fault_stats(); }
  // v's outage schedule under the armed policy (empty when fault-free):
  // the per-node crash epochs of the stats API.
  std::span<const CrashSpan> crash_epochs(int v) const {
    return dp_.crash_epochs(v);
  }

  // True when no message is in flight and no node is scheduled: advancing
  // rounds would be a no-op.
  bool idle() const { return !dp_.pending(); }

  // --- Round protocol ------------------------------------------------------
  // begin_round(); for (v : active_nodes()) { inbox(v) / send(v, ...); }
  // end_round();
  void begin_round();

  // The round's active nodes, ascending. Like inbox(), the span aliases an
  // engine buffer that end_round() repopulates: read it inside the round.
  std::span<const int> active_nodes() const { return dp_.active(); }

  // v's messages delivered for the current round, in per-sender send order.
  // The span aliases the delivery arena: it is valid only until the next
  // end_round()/drain(). Do not hold it across rounds.
  std::span<const Incoming> inbox(int v) const { return dp_.inbox(v); }

  void send(int v, int port, const Msg& m);
  void end_round();

  // Discards undelivered messages and scheduled wakeups. Phases that stop at
  // a fixed round budget call this so stale traffic cannot leak into the
  // next phase. (Sent-but-dropped messages remain counted: they were sent.)
  // Only legal between rounds on a quiescent engine: calling it from inside
  // an open round — in particular from a shard-parallel callback while
  // sibling shards still sweep — aborts (checked; §7).
  void drain();

  // TEST HOOK (wrap coverage; see DataPlane::debug_set_wrap_state): jumps
  // the round id and wake epoch so the once-per-2^32-round stamp wrap and
  // the once-per-2^40 wake-epoch wrap run inside a test. Legal only between
  // rounds on an idle engine; accounting (rounds()/messages()) is untouched.
  void debug_set_wrap_state(std::uint32_t round_id, std::uint64_t wake_epoch) {
    PW_CHECK(!in_round_);
    dp_.debug_set_wrap_state(round_id, wake_epoch);
  }

  // Runs rounds until the network is idle or `max_rounds` elapsed, invoking
  // fn(v) for every active node each round. With ExecutionPolicy{k > 1} the
  // callbacks of one round execute shard-parallel (contract: DESIGN.md §7),
  // then the end-of-round merge runs as a second barriered dispatch. The §7
  // contract confines fn(v) to shard-local reads and writes, so a conforming
  // callback cannot tell the thread counts apart.
  //
  // Returns the number of round-loop iterations EXECUTED — by design NOT the
  // same thing as the rounds() delta. rounds() additionally grows by any
  // charge_rounds() the callbacks issue (analytic charges land inside the
  // phase that pays them, DESIGN.md §4), while `max_rounds` budgets and the
  // return value count executed loop iterations only. Charging from inside a
  // callback is legal only under the sequential engine: with
  // ExecutionPolicy{k > 1} the callbacks run shard-parallel and charge_*()
  // aborts there (the counters are engine-global, not shard-owned — §7).
  template <class F>
  std::uint64_t run(F&& fn, std::uint64_t max_rounds = UINT64_MAX) {
    std::uint64_t executed = 0;
    if (dp_.num_shards() <= 1) {
      while (!idle() && executed < max_rounds) {
        begin_round();
        for (const int v : active_nodes()) fn(v);
        end_round();
        ++executed;
      }
      return executed;
    }
    struct Ctx {
      Engine* e;
      std::remove_reference_t<F>* f;
    } ctx{this, &fn};
    // One whole-shard sweep with fn inlined in the loop.
    const auto callbacks = +[](void* c, int s) {
      auto* x = static_cast<Ctx*>(c);
      for (const int v : x->e->dp_.shard_active(s)) {
        x->e->dp_.set_current_callback(s, v);
        (*x->f)(v);
        x->e->exec_.tick();  // watchdog heartbeat: sweeping ≠ wedged (§9)
      }
    };
    while (!idle() && executed < max_rounds) {
      begin_round();
      dp_.set_parallel_callbacks(true);
      exec_.parallel(dp_.num_shards(), callbacks, &ctx);
      dp_.set_parallel_callbacks(false);
      end_round();
      ++executed;
    }
    return executed;
  }

  // --- Accounting -----------------------------------------------------------
  std::uint64_t rounds() const { return rounds_; }
  std::uint64_t messages() const { return messages_; }
  // The counters are engine-global and unsynchronized, so charging from a
  // shard-parallel callback would be a data race; the §7 contract forbids it
  // (checked). All in-tree charge sites run between rounds or in central
  // per-phase code, never inside parallel dispatch.
  void charge_rounds(std::uint64_t r) {
    PW_CHECK_MSG(!dp_.in_parallel_callbacks(),
                 "charge_rounds() from a shard-parallel callback (DESIGN.md §7)");
    rounds_ += r;
  }
  void charge_messages(std::uint64_t m) {
    PW_CHECK_MSG(!dp_.in_parallel_callbacks(),
                 "charge_messages() from a shard-parallel callback (DESIGN.md §7)");
    messages_ += m;
  }

  Snapshot snap() const { return {rounds_, messages_}; }
  PhaseStats since(const Snapshot& s) const {
    return {rounds_ - s.rounds, messages_ - s.messages};
  }

 private:
  const graph::Graph* g_;
  DataPlane dp_;
  Executor exec_;

  ExecutionPolicy policy_;  // as requested at construction
  bool in_round_ = false;
  std::uint64_t rounds_ = 0;
  std::uint64_t messages_ = 0;
};

}  // namespace pw::sim
