// Sharded flat-arena message data plane of the CONGEST engine
// (DESIGN.md §5, §7).
//
// Nodes are partitioned into contiguous id-range shards (power-of-two chunk,
// so shard lookup is one shift). All mutable per-node state — wake words,
// wake lists, inbox runs — is owned by the shard holding the node, and all
// mutable per-arc state by the shard holding the arc's SENDER, so the
// shard-parallel phases of a round never write the same cache line from two
// threads and the whole data plane needs no atomics.
//
// Staging is bucketed by (destination shard, sender shard): bucket capacities
// are the exact arc counts between the shard pair (their sum is num_arcs, the
// hard per-round traffic bound), computed once at construction. A send
// appends to bucket (shard(receiver), shard(sender)); the end-of-round merge
// for destination shard d scans its buckets in ascending SENDER-shard order,
// which reproduces the global ascending-sender send order exactly — delivery
// arena layout, inbox run order, active-set order, and message totals are
// bit-identical to the single-shard plane for any shard count (§7).
//
// The merge itself is the per-shard counting pass of §5 run once per
// destination shard: discovery/counting over incoming buckets, ascending
// materialization of the shard's active nodes (dense stamp sweep or LSD
// radix), run-offset assignment starting at the shard's STATIC delivery base
// (the start of its bucket-capacity region — see merge_shard), then the
// stable scatter. Static bases make merge tasks fully independent of each
// other, so end_round() runs them as one barriered Executor dispatch after
// the callback dispatch — the lock-step round of the model (§8).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/sim/executor.hpp"
#include "src/sim/fault_plane.hpp"
#include "src/sim/message.hpp"
#include "src/util/check.hpp"

namespace pw::sim {

class DataPlane {
 public:
  // A non-null `faults` with faults->enabled() arms the fault-injection plane
  // (§9): the merge becomes the single fault choke point, the delivery arena
  // triples (worst case per arc per round: one delayed-due arrival plus a
  // duplicated fresh one), and the single-shard plane gives up its
  // stage()-time wake fast path so every shard count takes identical fault
  // decisions in identical places.
  DataPlane(const graph::Graph& g, int max_shards,
            const FaultPolicy* faults = nullptr);

  // Aborts unless a delivery arena of num_arcs × mult entries (mult = 3
  // under faults, see above) fits the int offsets of inbox runs and delivery
  // regions. Graph::check_edge_count admits up to INT_MAX arcs, so the 3×
  // fault sizing can overflow where the graph itself does not. The
  // constructor calls it first; static so the limit is testable without
  // building a graph that large.
  static void check_delivery_size(std::int64_t num_arcs, int mult);

  int num_shards() const { return num_shards_; }
  int shard_of(int v) const { return v >> shard_shift_; }

  // --- fault plane (§9) -----------------------------------------------------
  bool faulty() const { return fault_ != nullptr; }
  // Aggregated fault accounting; sequential-only like pending().
  FaultStats fault_stats() const {
    PW_CHECK(!parallel_callbacks_);
    return fault_ ? fault_->totals() : FaultStats{};
  }
  // v's outage schedule under the armed policy (empty when fault-free).
  std::span<const CrashSpan> crash_epochs(int v) const {
    return fault_ ? fault_->crash_epochs(v) : std::span<const CrashSpan>{};
  }

  // --- hot path -------------------------------------------------------------

  // Stages one message from v along `port` for next-round delivery. Enforces
  // the one-message-per-arc-per-round rule and, during a shard-parallel
  // callback phase, that v IS the node whose callback is running (§7
  // contract — see set_current_callback). On a multi-shard plane, manual
  // (non-dispatched) sends must additionally come in non-decreasing sender
  // id within a round (checked): the merge reconstructs ascending-sender
  // delivery order, which equals the sequential engine's send-call order
  // only under that discipline — every active_nodes() loop satisfies it by
  // construction (§7).
  void stage(int v, int port, const Msg& m);

  // Engine::run's shard-parallel sweeps record the node whose callback is
  // about to run; stage() checks sends against it (§7: a parallel callback
  // may send only as the node it was invoked on). Owner-written: only shard
  // s's callback task stores to slot s.
  void set_current_callback(int s, int v) {
    shards_[static_cast<std::size_t>(s)].current_cb = v;
  }

  // Schedules v for the next round. Same shard-ownership rule as stage()
  // during parallel callback phases.
  void wake(int v);

  // v's delivered messages for the current round (per-sender send order).
  // Aliases the delivery arena; invalidated by the next round close or
  // drain(). During a shard-parallel callback, reading the inbox of a node
  // outside the calling task's shard is forbidden (§7) and checked like
  // stage()/wake(): what the read sees would depend on the thread schedule,
  // not on the model.
  std::span<const Incoming> inbox(int v) const {
    if (parallel_callbacks_)
      PW_CHECK_MSG(Executor::this_task() == shard_of(v),
                   "parallel callback read the inbox of node %d outside its "
                   "shard (DESIGN.md §7 contract)",
                   v);
    const InboxRun r = inbox_run_[static_cast<std::size_t>(v)];
    if (r.stamp != round_id_) return {};
    return {delivery_.data() + r.beg, static_cast<std::size_t>(r.end - r.beg)};
  }

  std::span<const int> active() const {
    return {active_.data(), static_cast<std::size_t>(active_total_)};
  }
  std::span<const int> shard_active(int s) const {
    const Shard& sh = shards_[static_cast<std::size_t>(s)];
    return {active_.data() + sh.active_beg,
            static_cast<std::size_t>(sh.active_count)};
  }

  // True when any node is scheduled or any message awaits delivery —
  // including messages still in staging mid-round. (Single-shard planes wake
  // the receiver at stage() time, multi-shard ones at the merge; checking
  // staging too keeps mid-round idle() answers identical at any shard count,
  // the §7 contract.) Reading other shards' wake lists races with their
  // callbacks, so querying from inside a parallel callback is forbidden like
  // every other cross-shard access (checked).
  bool pending() const {
    PW_CHECK_MSG(!parallel_callbacks_,
                 "idle()/pending() from a shard-parallel callback "
                 "(DESIGN.md §7 contract)");
    for (const Shard& sh : shards_)
      if (!sh.wake_list.empty()) return true;
    if (!staging_empty()) return true;
    // Delayed messages are in flight (§9): the engine must keep closing
    // rounds until the delay queues drain or they would be lost.
    return fault_ != nullptr && fault_->any_in_flight();
  }

  // --- round lifecycle ------------------------------------------------------

  // Rebuilds the active set if wake() ran since the last merge, then opens
  // the next wake epoch (wake/stage calls from here on target the round
  // after this one).
  void begin_round();

  // The deterministic barriered merge (§7): buckets the staged messages into
  // per-recipient delivery runs and materializes the next round's active set,
  // shard-parallel via `ex`. Returns the number of messages staged this
  // round. The one round close: manual round loops and Engine::run both end
  // every round here.
  std::uint64_t end_round(Executor& ex);

  // Discards delivered-but-unread runs and scheduled wakeups (stamp
  // invalidation only; no data moves).
  void drain();

  bool staging_empty() const;

  // Engine::run sets this around shard-parallel callback dispatches; it arms
  // the shard-ownership checks in stage()/wake() and the engine's charge_*
  // guards.
  void set_parallel_callbacks(bool on) { parallel_callbacks_ = on; }
  bool in_parallel_callbacks() const { return parallel_callbacks_; }

  // Watchdog dump (§9): prints each shard's sweep position (current_cb,
  // active slice) and per-bucket cursor fills to stderr. Called by the
  // executor's watchdog right before it aborts a wedged close; reads without
  // synchronization (every surviving thread is parked, and the process is
  // about to die anyway).
  void watchdog_dump() const;

  // TEST HOOK (wrap coverage): jumps the round id and wake epoch to arbitrary
  // values so the once-per-2^32-round stamp wrap and the once-per-2^40 wake
  // epoch wrap execute inside a test instead of once a geological age. Legal
  // only on a quiescent plane (no staged traffic, no scheduled wakes); both
  // stamp families and the wake words are cleared exactly like the real wrap
  // paths clear them, so no stale stamp can alias the new id range.
  void debug_set_wrap_state(std::uint32_t round_id, std::uint64_t wake_epoch);

 private:
  // Per-arc record: receiver endpoint fused with the once-per-round send
  // stamp (see §5). 12 bytes, ~5 per cache line.
  struct ArcRec {
    int to = 0;
    int port = 0;
    std::uint32_t stamp = 0;
  };

  // Fates a staged message can meet at the fault choke point (§9). Both
  // merge passes (scatter counting, commit delivery) replay the same
  // verdicts branch for branch; side effects happen only in the scatter.
  enum class Fate : std::uint8_t { kShed, kDrop, kDelay, kOnce, kTwice };

  // Per-node run descriptor into delivery_ (§5): [beg, end) plus the round
  // id the run is valid for; `end` doubles as the scatter cursor.
  struct InboxRun {
    int beg = 0;
    int end = 0;
    std::uint32_t stamp = 0;
  };

  // One cache line of bucket cursors. bucket_cur_ rows are padded to a
  // multiple of this AND the storage itself is line-aligned (alignas carries
  // through the allocator), so two sender shards never share a line through
  // their cursor rows.
  struct alignas(64) CurLine {
    int w[16] = {};
  };

  // Shard-owned state, cache-line aligned so two workers never share a line
  // through this array. All fields are written only by the owning task (the
  // shard's callback task, then its merge task, one dispatch after the other)
  // or by the single caller thread between dispatches.
  struct alignas(64) Shard {
    std::vector<int> wake_list;  // woken/receiving ids, unordered, deduped
    int beg = 0, end = 0;        // node id range [beg, end)
    int wake_min = std::numeric_limits<int>::max();
    int wake_max = -1;
    bool dirty = false;  // wake() since the last merge/rebuild
    int active_count = 0;
    int active_beg = 0;  // this shard's slice of active_
    // Node whose callback the shard's sweep is currently running
    // (§7 send check; see set_current_callback). Only meaningful while
    // parallel_callbacks_ is set — between dispatches it retains the last
    // invoked node (never reset; every sweep stores before each callback).
    int current_cb = -1;
  };

  // Ascending ids of the shard's currently-woken nodes written to `out`
  // (capacity: shard size); returns the count. Dense stamp sweep or LSD
  // radix over the shard's wake list, allocation-free.
  int sort_shard_wake(Shard& sh, int* out);

  void merge_shard(int d, std::uint32_t next_stamp);
  // The merge's two halves. scatter_due / scatter_bucket do the counting +
  // wake discovery (+ fault verdicts and their side effects) for the
  // delayed-due prefix / one feeder bucket; commit_shard assigns run offsets
  // from the static delivery base and performs the stable delivery copy in
  // ascending sender order. fate_of is the §9 verdict of one staged record
  // (both passes call it and must take identical branches; side effects
  // only with discovery).
  void scatter_due(int d);
  void scatter_bucket(int d, int s);
  void commit_shard(int d, std::uint32_t next_stamp);
  void count_in(Shard& sh, int to, int k);
  Fate fate_of(int to, const Incoming& inc, int d, bool discovery);
  void rebuild_active();
  void compact_active();
  void bump_wake_epoch();

  // Handles the once-per-2^32-rounds round-id wrap (clears both stamp
  // families so a stale stamp can never equal a live id), then returns the
  // stamp the closing merge publishes runs under.
  std::uint32_t prepare_next_stamp();

  // The sequential tail of every round close: totals the bucket cursors
  // (= messages staged this round), concatenates the shards' active slices,
  // resets the cursors, and advances the round id.
  std::uint64_t close_round();

  // Where merge/rebuild materialize a shard's sorted actives: directly into
  // active_ when single-sharded, into the shard's scratch_ slice otherwise
  // (compacted into active_ once all shard counts are known).
  int* sorted_out(int d) {
    return num_shards_ == 1 ? active_.data()
                            : scratch_.data() + shards_[static_cast<std::size_t>(d)].beg;
  }

  static constexpr std::uint64_t kEpochMask = (1ULL << 40) - 1;
  static constexpr std::uint64_t kCountOne = 1ULL << 40;

  const graph::Graph* g_;
  int num_shards_ = 1;
  int shard_shift_ = 0;
  int cur_stride_ = 0;  // row stride of bucket_cur_, padded to a cache line

  // Fill count of bucket (sender s, dest d), at flat index
  // s * cur_stride_ + d of the line-aligned cursor storage.
  int& bucket_cur(int s, int d) {
    const auto i = static_cast<std::size_t>(s) * cur_stride_ + d;
    return bucket_cur_[i >> 4].w[i & 15];
  }
  int bucket_cur(int s, int d) const {
    const auto i = static_cast<std::size_t>(s) * cur_stride_ + d;
    return bucket_cur_[i >> 4].w[i & 15];
  }

  std::vector<ArcRec> arc_;
  // SoA staging arenas, partitioned into buckets (§7): slot i of the flat
  // arena holds its receiver id in staging_to_[i] and the delivered payload
  // in staging_inc_[i]. The split keeps the counting pass — which reads ONLY
  // receiver ids — on a dense 4-byte stream (12× the ids per cache line vs
  // the old interleaved record), so it vectorizes and stops dragging payload
  // bytes through the cache it immediately re-reads in the delivery copy.
  // Both views live in ONE allocation (payloads first, then ids): as two
  // vectors, staging_inc_ and delivery_ are the same byte size, and glibc's
  // dynamic mmap threshold — set to the largest freed chunk — keeps BOTH
  // outside the reusable heap, re-faulting ~2× the pages on every engine
  // construction (measured 1.8× on the flood_cold rows). One arena larger
  // than delivery_ restores the old profile: only it stays mmap-backed.
  std::vector<unsigned char> staging_raw_;
  Incoming* staging_inc_ = nullptr;  // element i: staging_raw_ byte i*sizeof
  int* staging_to_ = nullptr;        // after the payloads, same count

  // Bucket (s → d)'s receiver-id run and payload run in the staging arena.
  // stage() appends there and the merge (scatter, fault verdicts, delivery
  // copy) reads the same slots back: staged bytes are received bytes.
  std::pair<int*, Incoming*> bucket(int s, int d) const {
    const auto base = static_cast<std::size_t>(
        bucket_base_[static_cast<std::size_t>(d) * num_shards_ + s]);
    return {staging_to_ + base, staging_inc_ + base};
  }

  std::vector<int> bucket_base_;    // bucket (d, s) at [d * S + s], size S²+1
  std::vector<CurLine> bucket_cur_;
  std::vector<Incoming> delivery_;
  std::vector<InboxRun> inbox_run_;

  // Per-node wake word: low 40 bits = wake epoch, high 24 bits = messages
  // staged to the node this round (counted during the merge). Written only
  // by the owning shard.
  std::vector<std::uint64_t> wake_stamp_;

  std::vector<Shard> shards_;
  std::vector<int> active_;         // ascending, all shards concatenated
  std::vector<int> scratch_;        // per-shard sort output (S > 1 only)

  // Armed fault plane (§9), or null for the fault-free hot paths. Set at
  // construction only; merge tasks touch only their own shard's queue/stats
  // slot, so the plane inherits the data plane's no-atomics discipline.
  std::unique_ptr<FaultPlane> fault_;
  // Delivery-arena scale factor: 1 fault-free, 3 under faults (delayed-due +
  // duplicated fresh per arc per round). Also scales each shard's static
  // delivery base and the wake-word fan-in headroom check.
  int delivery_mult_ = 1;

  int active_total_ = 0;

  std::uint32_t round_id_ = 1;
  std::uint64_t wake_epoch_ = 1;
  bool parallel_callbacks_ = false;
  int last_manual_sender_ = -1;  // ascending-send check, multi-shard manual loops
};

}  // namespace pw::sim
