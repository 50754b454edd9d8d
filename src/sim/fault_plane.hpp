// Deterministic fault-injection plane of the CONGEST engine (DESIGN.md §9).
//
// The paper's model (§2.1) assumes perfectly reliable synchronous rounds; a
// real network does not. This plane lets any workload run under a
// reproducible fault model, so the algorithm stack and the round close are
// chaos-tested before a real network ever gets to misbehave.
//
// Every fault decision is derived from a counter-based hash of
// (seed, delivery round, message slot), where the slot is the receiver-side
// arc id of the message — a static property that uniquely identifies
// (sender, receiver, port), and, because CONGEST allows at most one message
// per arc per direction per round, uniquely identifies the message within its
// round. No RNG state advances, no ordering is consumed: the verdict for a
// message is a pure function of the policy seed and values every execution
// policy agrees on. A fixed FaultPolicy therefore produces BIT-IDENTICAL
// delivery traces across {1, 2, 4} threads
// (pinned by tests/engine_fault_test.cpp) — the engine's central determinism
// invariant survives the chaos plane by construction.
//
// Faults are applied at a single choke point: the per-destination merge
// (DataPlane::merge_shard). Nothing else in the data plane makes fault
// decisions, which is also what keeps the plane deterministic — the merge is
// the one place every message passes through in a policy-independent order.
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/sim/message.hpp"
#include "src/util/check.hpp"

namespace pw::sim {

// One node outage: `node` is down for every round in [from, until) — it runs
// no callbacks, receives no messages (they are shed at the merge), and wake()
// calls targeting those rounds are suppressed. until == NEVER means the node
// never recovers. On the first round >= until the fault plane wakes the node
// (a reboot), so retransmission protocols reach it again without polling.
struct CrashSpan {
  static constexpr std::uint64_t kNever =
      std::numeric_limits<std::uint64_t>::max();
  int node = 0;
  std::uint64_t from = 0;
  std::uint64_t until = kNever;
};

// What the network may do to a message, and to whom. Probabilities are
// per-message and mutually exclusive in hash order drop -> delay -> dup
// (their sum must be <= 1); delayed messages arrive exactly `delay_rounds`
// rounds late, in their original relative order, before that round's fresh
// traffic. An all-zero policy (enabled() == false) arms nothing: the engine
// runs the fault-free hot paths, bit for bit.
struct FaultPolicy {
  std::uint64_t seed = 1;
  double drop_prob = 0;
  double delay_prob = 0;
  double dup_prob = 0;
  int delay_rounds = 1;  // extra rounds a DELAY verdict adds (>= 1)
  std::vector<CrashSpan> crashes;

  bool enabled() const {
    return drop_prob > 0 || delay_prob > 0 || dup_prob > 0 || !crashes.empty();
  }
};

// Cumulative fault accounting, surfaced through Engine::fault_stats().
// Everything here is in addition to the engine's rounds()/messages():
// messages() keeps counting SENDS (a dropped message was still sent — same
// convention as drain()), while these count what the network then did.
struct FaultStats {
  std::uint64_t messages_dropped = 0;     // hash verdict: vanished in flight
  std::uint64_t messages_delayed = 0;     // hash verdict: arrived late
  std::uint64_t messages_duplicated = 0;  // hash verdict: delivered twice
  std::uint64_t messages_shed_crashed = 0;  // endpoint was down
  std::uint64_t wakes_suppressed = 0;       // wake() targeting a down round

  FaultStats& operator+=(const FaultStats& o) {
    messages_dropped += o.messages_dropped;
    messages_delayed += o.messages_delayed;
    messages_duplicated += o.messages_duplicated;
    messages_shed_crashed += o.messages_shed_crashed;
    wakes_suppressed += o.wakes_suppressed;
    return *this;
  }
};

class FaultPlane {
 public:
  enum class Verdict : std::uint8_t { kDeliver, kDrop, kDelay, kDup };

  // A message parked by a DELAY verdict, owned by the queue of its
  // RECEIVER's shard (single-writer: only that shard's merge task touches
  // the queue, exactly like every other per-destination structure).
  struct Delayed {
    Incoming inc;
    int to = 0;
    std::uint64_t due = 0;  // absolute delivery round
  };

  FaultPlane(const FaultPolicy& policy, const graph::Graph& g, int num_shards,
             int shard_shift);

  // --- round clock ----------------------------------------------------------
  // The plane keeps its own 64-bit absolute round counter ("the round wakes
  // and deliveries currently target"), advanced once per DataPlane::
  // begin_round. It never wraps, so delay due-rounds and crash spans are
  // immune to the engine's 2^32 round-id and 2^40 wake-epoch wraps.
  void advance_round();
  std::uint64_t round() const { return round_; }

  // Nodes whose outage ended exactly this round, ascending; the data plane
  // wakes them (the reboot). Valid until the next advance_round().
  std::span<const int> recovered() const {
    return {recovered_.data(), recovered_.size()};
  }

  // --- crash state ----------------------------------------------------------
  // Down at the round deliveries/wakes currently target (= round()).
  bool down_now(int v) const {
    return down_[static_cast<std::size_t>(v)] != 0;
  }
  // Down at round() - 1 — the round the currently merging traffic was SENT
  // in; a message from a down sender is shed (it can only exist through a
  // manual round loop, since down nodes never run callbacks).
  bool down_when_sent(int v) const {
    return down_prev_[static_cast<std::size_t>(v)] != 0;
  }

  // v's outage schedule, ascending and disjoint (the policy's spans, sorted).
  std::span<const CrashSpan> crash_epochs(int v) const {
    return {spans_.data() + span_beg_[static_cast<std::size_t>(v)],
            static_cast<std::size_t>(span_beg_[static_cast<std::size_t>(v) + 1] -
                                     span_beg_[static_cast<std::size_t>(v)])};
  }

  // --- the counter-based hash ----------------------------------------------
  // Verdict for the message occupying receiver-side arc slot `rarc` this
  // round. Pure: both merge passes (discovery and scatter) recompute it and
  // must agree, so it takes no state beyond (seed, round, slot).
  Verdict verdict(int rarc) const {
    const std::uint64_t h =
        mix(round_mixed_ ^
            (static_cast<std::uint64_t>(rarc) * 0xd1b54a32d192ed03ULL));
    if (h < drop_cut_) return Verdict::kDrop;
    if (h < delay_cut_) return Verdict::kDelay;
    if (h < dup_cut_) return Verdict::kDup;
    return Verdict::kDeliver;
  }

  int delay_rounds() const { return policy_.delay_rounds; }

  // --- per-destination delay queues ----------------------------------------
  // All three are called only from destination shard d's merge task (or the
  // sequential caller), so the queues need no synchronization.
  void push_delayed(int d, const Incoming& inc, int to) {
    auto& q = queues_[static_cast<std::size_t>(d)];
    q.entries.push_back(Delayed{inc, to, round_ + policy_.delay_rounds});
  }
  // Entries due exactly this round: a prefix of the queue, since the fixed
  // delay keeps due-rounds nondecreasing in append order. The span stays
  // valid until pop_due()/clear_in_flight().
  std::span<const Delayed> due_now(int d) const {
    const auto& q = queues_[static_cast<std::size_t>(d)];
    std::size_t k = q.head;
    while (k < q.entries.size() && q.entries[k].due <= round_) ++k;
    return {q.entries.data() + q.head, k - q.head};
  }
  void pop_due(int d, std::size_t count);

  // True while any delay queue holds traffic: the engine must keep closing
  // rounds or in-flight messages would be lost. Cross-shard read — only
  // legal from sequential code (DataPlane::pending's own contract).
  bool any_in_flight() const;
  // Engine::drain(): in-flight delayed messages are discarded like every
  // other undelivered message (they stay counted as sent AND as delayed).
  void clear_in_flight();

  // --- stats ----------------------------------------------------------------
  // Shard-local accounting slot, written only by shard d's merge task /
  // callback task (cache-line isolated like the data plane's Shard rows).
  FaultStats& shard_stats(int d) {
    return queues_[static_cast<std::size_t>(d)].stats;
  }
  FaultStats totals() const;

 private:
  struct CrashEvent {
    std::uint64_t at = 0;
    int node = 0;
    bool down = false;
  };

  struct alignas(64) ShardSlot {
    std::vector<Delayed> entries;
    std::size_t head = 0;  // consumed prefix; compacted opportunistically
    FaultStats stats;
  };

  static std::uint64_t mix(std::uint64_t x) {
    // splitmix64 finalizer: full avalanche, no state.
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
  }
  static std::uint64_t cut(double p) {
    if (p <= 0) return 0;
    if (p >= 1) return std::numeric_limits<std::uint64_t>::max();
    return static_cast<std::uint64_t>(p * 18446744073709551616.0 /* 2^64 */);
  }

  void apply_events_for_round();

  FaultPolicy policy_;
  std::uint64_t drop_cut_ = 0;   // cumulative thresholds in hash space
  std::uint64_t delay_cut_ = 0;  // drop + delay
  std::uint64_t dup_cut_ = 0;    // drop + delay + dup

  std::uint64_t round_ = 0;        // round wakes/deliveries target
  std::uint64_t round_mixed_ = 0;  // mix(seed, round), refreshed per round

  std::vector<CrashEvent> events_;  // sorted by (at, node, recover-first)
  std::size_t next_event_ = 0;
  std::vector<std::uint8_t> down_;       // down at round()
  std::vector<std::uint8_t> down_prev_;  // down at round() - 1
  std::vector<int> recovered_;           // outages that ended this round
  std::vector<int> touched_;             // event scratch for recovered_

  std::vector<int> span_beg_;      // per-node CSR into spans_
  std::vector<CrashSpan> spans_;   // sorted (node, from)

  std::vector<ShardSlot> queues_;  // per destination shard
};

}  // namespace pw::sim
