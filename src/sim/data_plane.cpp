#include "src/sim/data_plane.hpp"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <type_traits>

namespace pw::sim {

void DataPlane::check_delivery_size(std::int64_t num_arcs, int mult) {
  PW_CHECK_MSG(num_arcs * mult <= std::numeric_limits<int>::max(),
               "delivery arena too large: %lld arcs x %d = %lld entries, but "
               "inbox runs index it with int (at most %d)",
               static_cast<long long>(num_arcs), mult,
               static_cast<long long>(num_arcs * mult),
               std::numeric_limits<int>::max());
}

DataPlane::DataPlane(const graph::Graph& g, int max_shards,
                     const FaultPolicy* faults)
    : g_(&g) {
  const bool faulty = faults != nullptr && faults->enabled();
  // Under faults: delayed-due + duplicated fresh, per arc per round.
  delivery_mult_ = faulty ? 3 : 1;
  check_delivery_size(g.num_arcs(), delivery_mult_);
  PW_CHECK(max_shards >= 1);
  const int n = g.n();
  // Contiguous shards with a power-of-two chunk so shard_of is one shift.
  // Rounding the chunk up may leave fewer shards than requested; never more.
  const int chunk = n <= 0 ? 1 : (n + max_shards - 1) / max_shards;
  shard_shift_ = 0;
  while ((1 << shard_shift_) < chunk) ++shard_shift_;
  num_shards_ = n <= 0 ? 1 : ((n - 1) >> shard_shift_) + 1;
  const int S = num_shards_;
  // One cursor row per sender shard, padded to a cache line so concurrent
  // senders in different shards never share a line.
  cur_stride_ = ((S + 15) / 16) * 16;

  if (faulty)
    fault_ = std::make_unique<FaultPlane>(*faults, g, S, shard_shift_);

  arc_.resize(static_cast<std::size_t>(g.num_arcs()));
  for (int a = 0; a < g.num_arcs(); ++a) {
    const int m = g.mirror(a);
    arc_[static_cast<std::size_t>(a)] =
        ArcRec{g.arc_owner(m), g.port_of_arc(m), 0};
  }
  for (int v = 0; v < n; ++v)
    PW_CHECK_MSG(static_cast<std::uint64_t>(g.degree(v)) *
                         static_cast<std::uint64_t>(delivery_mult_) <
                     (1ULL << 24),
                 "degree of node %d overflows the wake-word fan-in counter", v);

  // Bucket (d, s) capacity = #arcs from shard s into shard d; exact, so the
  // flat staging arena stays at num_arcs total and appends never collide.
  bucket_base_.assign(static_cast<std::size_t>(S) * S + 1, 0);
  for (int a = 0; a < g.num_arcs(); ++a) {
    const int s = shard_of(g.arc_owner(a));
    const int d = shard_of(g.arc(a).to);
    ++bucket_base_[static_cast<std::size_t>(d) * S + s + 1];
  }
  for (std::size_t i = 1; i < bucket_base_.size(); ++i)
    bucket_base_[i] += bucket_base_[i - 1];
  bucket_cur_.assign(static_cast<std::size_t>(S) * cur_stride_ / 16, CurLine{});

  {
    // One arena for both SoA staging views (see the member comment for why a
    // single allocation matters): payloads first — the arena start carries
    // operator new's fundamental alignment, satisfying Incoming's — then the
    // receiver ids, whose 4-byte alignment any Incoming boundary meets.
    static_assert(std::is_trivially_copyable_v<Incoming> &&
                  alignof(Incoming) % alignof(int) == 0);
    const auto arcs = static_cast<std::size_t>(g.num_arcs());
    staging_raw_.resize(arcs * (sizeof(Incoming) + sizeof(int)));
    staging_inc_ = reinterpret_cast<Incoming*>(staging_raw_.data());
    staging_to_ =
        reinterpret_cast<int*>(staging_raw_.data() + arcs * sizeof(Incoming));
  }

  delivery_.resize(static_cast<std::size_t>(g.num_arcs()) *
                   static_cast<std::size_t>(delivery_mult_));
  inbox_run_.resize(static_cast<std::size_t>(n));
  wake_stamp_.assign(static_cast<std::size_t>(n), 0);
  active_.resize(static_cast<std::size_t>(n));
  if (S > 1) scratch_.resize(static_cast<std::size_t>(n));

  shards_.resize(static_cast<std::size_t>(S));
  for (int d = 0; d < S; ++d) {
    Shard& sh = shards_[static_cast<std::size_t>(d)];
    sh.beg = d << shard_shift_;
    sh.end = std::min(n, (d + 1) << shard_shift_);
    // One slot of slack past the shard size: the vectorized scatter's
    // branchless append (scatter_bucket) unconditionally writes wl[wcnt]
    // before deciding whether the entry was fresh, so the write index can
    // touch (but never pass) index shard_size.
    sh.wake_list.reserve(static_cast<std::size_t>(sh.end - sh.beg) + 1);
  }
}

void DataPlane::stage(int v, int port, const Msg& m) {
  const int s = shard_of(v);
  if (parallel_callbacks_) {
    PW_CHECK_MSG(Executor::this_task() == s,
                 "parallel callback sent from node %d outside its shard "
                 "(DESIGN.md §7 contract)",
                 v);
    // A parallel callback may send only AS the node it was invoked on (§7):
    // node v's outgoing traffic is v's to produce.
    PW_CHECK_MSG(shards_[static_cast<std::size_t>(s)].current_cb == v,
                 "parallel callback for node %d sent as node %d: sends are "
                 "allowed only for the invoked node (DESIGN.md §7 contract)",
                 shards_[static_cast<std::size_t>(s)].current_cb, v);
  } else if (num_shards_ > 1) {
    // The merge delivers in ascending-sender order; a manual loop sending
    // out of that order would get an inbox order that differs from the
    // 1-thread engine — abort instead of silently diverging (§7).
    PW_CHECK_MSG(v >= last_manual_sender_,
                 "manual sends must come in non-decreasing sender id on a "
                 "multi-shard engine (node %d after %d, DESIGN.md §7)",
                 v, last_manual_sender_);
    last_manual_sender_ = v;
  }
  const int arc = g_->arc_id(v, port);
  ArcRec& rec = arc_[static_cast<std::size_t>(arc)];
  PW_CHECK_MSG(rec.stamp != round_id_,
               "node %d sent two messages on port %d in one round", v, port);
  rec.stamp = round_id_;

  // Raw cursor store: the arc-stamp guard bounds the bucket fill by its
  // exact arc-count capacity.
  const int d = shard_of(rec.to);
  int& cur = bucket_cur(s, d);
  const auto [bto, binc] = bucket(s, d);
  bto[cur] = rec.to;
  Incoming& inc = binc[cur];
  ++cur;
  inc.from = v;
  inc.port = rec.port;
  inc.msg = m;

  if (num_shards_ == 1 && fault_ == nullptr) {
    // Single-shard fast path: one owner means the receiver's wake/count
    // update can ride on the send (the pre-shard hot path), and the merge
    // skips its discovery pass over the staged messages entirely. Disabled
    // under faults (§9): a stage-time wake would fire for messages the merge
    // later drops, diverging from the multi-shard planes — with the plane
    // armed, every shard count routes wakes through the same merge verdicts.
    auto& w = wake_stamp_[static_cast<std::size_t>(rec.to)];
    if ((w & kEpochMask) != wake_epoch_) {
      w = wake_epoch_ | kCountOne;
      Shard& sh = shards_[0];
      sh.wake_list.push_back(rec.to);
      if (rec.to < sh.wake_min) sh.wake_min = rec.to;
      if (rec.to > sh.wake_max) sh.wake_max = rec.to;
    } else {
      w += kCountOne;
    }
  }
}

void DataPlane::wake(int v) {
  const int s = shard_of(v);
  if (parallel_callbacks_)
    PW_CHECK_MSG(Executor::this_task() == s,
                 "parallel callback woke node %d outside its shard "
                 "(DESIGN.md §7 contract)",
                 v);
  if (fault_ != nullptr && fault_->down_now(v)) {
    // Crashed nodes don't schedule (§9). Deterministic across policies: the
    // wake targets fault round(), fixed for the whole inter-begin_round span.
    // Same single-writer slot as the data plane's Shard row for s.
    ++fault_->shard_stats(s).wakes_suppressed;
    return;
  }
  auto& w = wake_stamp_[static_cast<std::size_t>(v)];
  if ((w & kEpochMask) == wake_epoch_) return;
  w = wake_epoch_;
  Shard& sh = shards_[static_cast<std::size_t>(s)];
  sh.wake_list.push_back(v);
  sh.dirty = true;
  if (v < sh.wake_min) sh.wake_min = v;
  if (v > sh.wake_max) sh.wake_max = v;
}

int DataPlane::sort_shard_wake(Shard& sh, int* out) {
  const auto count = sh.wake_list.size();
  if (count == 0) return 0;
  const std::size_t range = static_cast<std::size_t>(sh.wake_max) -
                            static_cast<std::size_t>(sh.wake_min) + 1;
  if (range <= 8 * count) {
    // Dense case: one forward sweep over the shard's touched id range.
    int cnt = 0;
    for (int v = sh.wake_min; v <= sh.wake_max; ++v)
      if ((wake_stamp_[static_cast<std::size_t>(v)] & kEpochMask) == wake_epoch_)
        out[cnt++] = v;
    return cnt;
  }
  // Sparse case: LSD radix (byte digits) ping-ponging between the wake list
  // and `out`; both hold shard-size ints, so no extra buffer. Node ids fit
  // 31 bits, so < 4 passes and shifts stay below 32.
  int passes = 1;
  while (passes < 4 &&
         (static_cast<unsigned>(sh.wake_max) >> (8 * passes)) != 0)
    ++passes;
  int* src = sh.wake_list.data();
  int* dst = out;
  for (int p = 0; p < passes; ++p) {
    std::uint32_t cnt[256] = {};
    const int shift = 8 * p;
    for (std::size_t i = 0; i < count; ++i)
      ++cnt[(static_cast<unsigned>(src[i]) >> shift) & 0xff];
    std::uint32_t pos = 0;
    for (auto& c : cnt) {
      const std::uint32_t start = pos;
      pos += c;
      c = start;
    }
    for (std::size_t i = 0; i < count; ++i)
      dst[cnt[(static_cast<unsigned>(src[i]) >> shift) & 0xff]++] = src[i];
    std::swap(src, dst);
  }
  if (src != out) std::memcpy(out, src, count * sizeof(int));
  return static_cast<int>(count);
}

void DataPlane::bump_wake_epoch() {
  if (++wake_epoch_ > kEpochMask) {
    // Epoch 2^40 would spill into the fan-in count bits and never compare
    // equal through kEpochMask again. Clear every word (0 is never a live
    // epoch) and restart; one pass per 2^40 advances.
    std::fill(wake_stamp_.begin(), wake_stamp_.end(), 0);
    wake_epoch_ = 1;
  }
}

// Concatenates the shards' sorted active slices in ascending shard order
// (= ascending node id) into active_. Shared by the merge and the
// wake-triggered rebuild so the two paths can never disagree on layout.
void DataPlane::compact_active() {
  int abase = 0;
  for (int d = 0; d < num_shards_; ++d) {
    Shard& sh = shards_[static_cast<std::size_t>(d)];
    sh.active_beg = abase;
    if (num_shards_ > 1 && sh.active_count > 0)
      std::memcpy(active_.data() + abase, scratch_.data() + sh.beg,
                  static_cast<std::size_t>(sh.active_count) * sizeof(int));
    abase += sh.active_count;
  }
  active_total_ = abase;
}

void DataPlane::rebuild_active() {
  for (int d = 0; d < num_shards_; ++d) {
    Shard& sh = shards_[static_cast<std::size_t>(d)];
    if (!sh.dirty) continue;  // its sorted output from the last merge stands
    sh.active_count = sort_shard_wake(sh, sorted_out(d));
    sh.dirty = false;
  }
  compact_active();
}

void DataPlane::begin_round() {
  bool any_dirty = false;
  for (const Shard& sh : shards_) any_dirty = any_dirty || sh.dirty;
  if (any_dirty) rebuild_active();
  for (Shard& sh : shards_) {
    sh.wake_list.clear();
    sh.wake_min = std::numeric_limits<int>::max();
    sh.wake_max = -1;
  }
  last_manual_sender_ = -1;
  bump_wake_epoch();
  if (fault_ != nullptr) {
    // Advance the fault clock to the round wakes/merges now target, apply
    // crash/recover transitions, and reboot freshly recovered nodes: the wake
    // lands in the epoch just opened, so a recovered node runs an (empty-
    // inbox) callback on its first up round and protocols notice it is back.
    fault_->advance_round();
    for (const int v : fault_->recovered()) wake(v);
  }
}

// Fan-in count update for one (possibly repeated) delivery to `to`; first
// touch this epoch also wakes the receiver. All state owned by sh's shard;
// additive and dedup-by-epoch.
void DataPlane::count_in(Shard& sh, int to, int k) {
  auto& w = wake_stamp_[static_cast<std::size_t>(to)];
  if ((w & kEpochMask) != wake_epoch_) {
    w = wake_epoch_ | (kCountOne * static_cast<std::uint64_t>(k));
    sh.wake_list.push_back(to);
    if (to < sh.wake_min) sh.wake_min = to;
    if (to > sh.wake_max) sh.wake_max = to;
  } else {
    w += kCountOne * static_cast<std::uint64_t>(k);
  }
}

// Fault verdict of one fresh staged record (§9), read out of its bucket by
// the caller. Both merge passes call this and must take identical branches:
// all inputs — crash state, the (seed, round, receiver-side arc slot) hash —
// are frozen for the round. Stats/enqueue side effects happen only in the
// discovery (scatter) pass.
DataPlane::Fate DataPlane::fate_of(int to, const Incoming& inc, int d,
                                   bool discovery) {
  FaultPlane* const fp = fault_.get();
  FaultStats& fs = fp->shard_stats(d);
  if (fp->down_when_sent(inc.from)) {
    if (discovery) ++fs.messages_shed_crashed;
    return Fate::kShed;
  }
  switch (fp->verdict(g_->arc_id(to, inc.port))) {
    case FaultPlane::Verdict::kDrop:
      if (discovery) ++fs.messages_dropped;
      return Fate::kDrop;
    case FaultPlane::Verdict::kDelay:
      if (discovery) {
        ++fs.messages_delayed;
        fp->push_delayed(d, inc, to);
      }
      return Fate::kDelay;
    case FaultPlane::Verdict::kDup:
      if (fp->down_now(to)) {
        if (discovery) ++fs.messages_shed_crashed;
        return Fate::kShed;
      }
      if (discovery) ++fs.messages_duplicated;
      return Fate::kTwice;
    case FaultPlane::Verdict::kDeliver:
      break;
  }
  if (fp->down_now(to)) {
    if (discovery) ++fs.messages_shed_crashed;
    return Fate::kShed;
  }
  return Fate::kOnce;
}

// Delayed messages due this round (§9): counted before any fresh traffic, in
// original send order. The receiver's crash state is judged at DELIVERY time
// — it may have crashed (shed) or recovered since. push_delayed (from
// fate_of) only appends entries due in a LATER round, so the due prefix is
// identical when the commit re-fetches it (the vector may have reallocated,
// hence the re-fetch instead of holding the span).
void DataPlane::scatter_due(int d) {
  FaultPlane* const fp = fault_.get();
  Shard& sh = shards_[static_cast<std::size_t>(d)];
  FaultStats& fs = fp->shard_stats(d);
  for (const FaultPlane::Delayed& e : fp->due_now(d)) {
    if (fp->down_now(e.to))
      ++fs.messages_shed_crashed;
    else
      count_in(sh, e.to, 1);
  }
}

// Scatter of one feeder bucket (s → d): fan-in counts + wake discovery for
// every staged message in it, through the fault choke point when armed. The
// SoA layout keeps the fault-free loop on the dense receiver-id stream.
void DataPlane::scatter_bucket(int d, int s) {
  Shard& sh = shards_[static_cast<std::size_t>(d)];
  const int cnt = bucket_cur(s, d);
  const auto [bto, binc] = bucket(s, d);
  if (fault_ != nullptr) {
    for (int i = 0; i < cnt; ++i) {
      const int to = bto[i];
      switch (fate_of(to, binc[i], d, /*discovery=*/true)) {
        case Fate::kOnce:
          count_in(sh, to, 1);
          break;
        case Fate::kTwice:
          count_in(sh, to, 2);
          break;
        default:
          break;
      }
    }
  } else {
    // Fault-free fast path, split so the memory traffic the compiler CAN
    // vectorize is in its own counted loop. Semantically identical to
    // count_in per record; already-woken receivers are inside the running
    // min/max by induction, so reducing over the WHOLE bucket — not just the
    // fresh wakes — lands on the same bounds.
    const int* to = bto;
    int lo = sh.wake_min;
    int hi = sh.wake_max;
    // VEC-GUARD: scatter-minmax
    for (int i = 0; i < cnt; ++i) {
      const int v = to[i];
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
    }
    sh.wake_min = lo;
    sh.wake_max = hi;
    // Stamp/count pass, branch-light: the epoch test becomes a select on the
    // stamp word plus a branchless wake-list append (write unconditionally,
    // advance the cursor only when fresh — hence the one-slot slack in the
    // reserve). The read-modify-write through to[i] can repeat a receiver
    // within any window, so this loop stays scalar by design; it just no
    // longer mispredicts on the wake branch.
    const std::uint64_t epoch = wake_epoch_;
    std::uint64_t* const stamp = wake_stamp_.data();
    std::size_t wcnt = sh.wake_list.size();
    sh.wake_list.resize(
        std::min(wcnt + static_cast<std::size_t>(cnt),
                 static_cast<std::size_t>(sh.end - sh.beg) + 1));
    int* const wl = sh.wake_list.data();
    for (int i = 0; i < cnt; ++i) {
      const int v = to[i];
      const std::uint64_t w = stamp[v];
      const bool fresh = (w & kEpochMask) != epoch;
      stamp[v] = fresh ? (epoch | kCountOne) : (w + kCountOne);
      wl[wcnt] = v;
      wcnt += static_cast<std::size_t>(fresh);
    }
    sh.wake_list.resize(wcnt);
  }
}

// The merge body: scatter every feeder bucket in ascending
// sender-shard order — that IS the global ascending-sender send order
// restricted to this shard — then commit. (Single-shard fault-free planes
// counted at stage() time — see the fast path there; under faults the choke
// point runs at every shard count.)
void DataPlane::merge_shard(int d, std::uint32_t next_stamp) {
  const int S = num_shards_;
  if (fault_ != nullptr) {
    scatter_due(d);
    for (int s = 0; s < S; ++s) scatter_bucket(d, s);
  } else if (S > 1) {
    for (int s = 0; s < S; ++s) scatter_bucket(d, s);
  }
  commit_shard(d, next_stamp);
}

void DataPlane::commit_shard(int d, std::uint32_t next_stamp) {
  const int S = num_shards_;
  Shard& sh = shards_[static_cast<std::size_t>(d)];
  FaultPlane* const fp = fault_.get();

  // Ascending actives + run offsets, starting at this shard's STATIC delivery
  // base: the start of its bucket-capacity region, bucket_base_[d * S]. The
  // base depends on the graph alone — not on this round's traffic — so each
  // merge runs without waiting for other destinations' counts: each
  // destination packs its runs inside its own region, and no two regions
  // overlap. (With one shard the region is the whole arena and the base is
  // 0, exactly the §5 layout.) The dense sweep fuses emission and
  // offset assignment (each wake word is read once); the radix path sorts
  // first, then assigns.
  int* out = sorted_out(d);
  // delivery_mult_ scales region starts in lockstep with the arena (§9), so
  // the per-destination regions stay disjoint under the 3× fault sizing.
  int off = delivery_mult_ *
            static_cast<int>(bucket_base_[static_cast<std::size_t>(d) * S]);
  int cnt = 0;
  const auto count = sh.wake_list.size();
  if (count != 0) {
    const std::size_t range = static_cast<std::size_t>(sh.wake_max) -
                              static_cast<std::size_t>(sh.wake_min) + 1;
    if (range <= 8 * count) {
      for (int v = sh.wake_min; v <= sh.wake_max; ++v) {
        const std::uint64_t word = wake_stamp_[static_cast<std::size_t>(v)];
        if ((word & kEpochMask) != wake_epoch_) continue;
        out[cnt++] = v;
        InboxRun& run = inbox_run_[static_cast<std::size_t>(v)];
        run.beg = run.end = off;
        run.stamp = next_stamp;
        off += static_cast<int>(word >> 40);
      }
    } else {
      cnt = sort_shard_wake(sh, out);
      for (int i = 0; i < cnt; ++i) {
        const auto vi = static_cast<std::size_t>(out[i]);
        InboxRun& run = inbox_run_[vi];
        run.beg = run.end = off;
        run.stamp = next_stamp;
        off += static_cast<int>(wake_stamp_[vi] >> 40);
      }
    }
  }
  sh.active_count = cnt;

  // Stable delivery copy: per-recipient delivery order is ascending sender
  // shard, then within-shard send order — the global send order (§7). Under
  // faults, due delayed messages land first (older traffic), then fresh
  // survivors, each pass replaying the scatter pass's verdicts branch for
  // branch.
  if (fp != nullptr) {
    const auto due = fp->due_now(d);
    for (const FaultPlane::Delayed& e : due) {
      if (fp->down_now(e.to)) continue;
      delivery_[static_cast<std::size_t>(
          inbox_run_[static_cast<std::size_t>(e.to)].end++)] = e.inc;
    }
    for (int s = 0; s < S; ++s) {
      const int bcnt = bucket_cur(s, d);
      const auto [bto, binc] = bucket(s, d);
      for (int i = 0; i < bcnt; ++i) {
        const int to = bto[i];
        const Incoming& in = binc[i];
        switch (fate_of(to, in, d, /*discovery=*/false)) {
          case Fate::kTwice:
            delivery_[static_cast<std::size_t>(
                inbox_run_[static_cast<std::size_t>(to)].end++)] = in;
            [[fallthrough]];
          case Fate::kOnce:
            delivery_[static_cast<std::size_t>(
                inbox_run_[static_cast<std::size_t>(to)].end++)] = in;
            break;
          default:
            break;
        }
      }
    }
    fp->pop_due(d, due.size());
  } else {
    for (int s = 0; s < S; ++s) {
      const int bcnt = bucket_cur(s, d);
      const auto [to, inc] = bucket(s, d);
      // Prefetch branch peeled out of the copy: the main loop prefetches
      // unconditionally 8 records ahead, the short tail copies without the
      // lookahead — no per-iteration bounds test on the hot body.
      int i = 0;
      for (; i + 8 < bcnt; ++i) {
        const InboxRun& ahead =
            inbox_run_[static_cast<std::size_t>(to[i + 8])];
        __builtin_prefetch(&ahead, 1);
        __builtin_prefetch(&delivery_[static_cast<std::size_t>(ahead.end)], 1);
        delivery_[static_cast<std::size_t>(
            inbox_run_[static_cast<std::size_t>(to[i])].end++)] = inc[i];
      }
      for (; i < bcnt; ++i)
        delivery_[static_cast<std::size_t>(
            inbox_run_[static_cast<std::size_t>(to[i])].end++)] = inc[i];
    }
  }
  sh.dirty = false;
}

std::uint32_t DataPlane::prepare_next_stamp() {
  if (round_id_ == std::numeric_limits<std::uint32_t>::max()) {
    // 32-bit round id is about to wrap: clear every stamp so a stale one can
    // never equal a live id. One pass per 2^32 rounds.
    for (auto& rec : arc_) rec.stamp = 0;
    for (auto& run : inbox_run_) run.stamp = 0;
    round_id_ = 0;  // close_round()'s ++ makes the next live id 1
  }
  return round_id_ + 1;
}

std::uint64_t DataPlane::close_round() {
  // The cursor total IS the round's message count (every stage() bumps
  // exactly one cursor); padding lanes beyond S stay zero.
  std::uint64_t total = 0;
  // VEC-GUARD: cursor-total
  for (const CurLine& line : bucket_cur_)
    for (const int c : line.w) total += static_cast<std::uint64_t>(c);
  compact_active();
  std::fill(bucket_cur_.begin(), bucket_cur_.end(), CurLine{});
  ++round_id_;
  return total;
}

std::uint64_t DataPlane::end_round(Executor& ex) {
  const std::uint32_t next_stamp = prepare_next_stamp();
  if (num_shards_ == 1) {
    merge_shard(0, next_stamp);
  } else {
    struct Ctx {
      DataPlane* dp;
      std::uint32_t stamp;
    } ctx{this, next_stamp};
    ex.parallel(
        num_shards_,
        +[](void* c, int t) {
          auto* x = static_cast<Ctx*>(c);
          x->dp->merge_shard(t, x->stamp);
        },
        &ctx);
  }
  return close_round();
}

void DataPlane::drain() {
  // Delivered-but-unread runs and wakeups die by stamp invalidation; no data
  // moves. Every shard is marked dirty so the next begin_round() rebuilds
  // the (now empty) active set instead of reusing the stale one. In-flight
  // delayed messages (§9) are discarded with everything else.
  if (fault_ != nullptr) fault_->clear_in_flight();
  for (Shard& sh : shards_) {
    for (const int v : sh.wake_list)
      inbox_run_[static_cast<std::size_t>(v)].stamp = 0;
    sh.wake_list.clear();
    sh.wake_min = std::numeric_limits<int>::max();
    sh.wake_max = -1;
    sh.dirty = true;
  }
  bump_wake_epoch();
}

void DataPlane::watchdog_dump() const {
  const int S = num_shards_;
  for (int s = 0; s < S; ++s) {
    const Shard& sh = shards_[static_cast<std::size_t>(s)];
    std::fprintf(stderr,
                 "PW_WATCHDOG: shard %d: nodes [%d,%d) active=%d "
                 "current_cb=%d dirty=%d\n",
                 s, sh.beg, sh.end, sh.active_count, sh.current_cb,
                 static_cast<int>(sh.dirty));
    for (int d = 0; d < S; ++d) {
      const auto b = static_cast<std::size_t>(d) * S + s;
      const int cap = static_cast<int>(bucket_base_[b + 1] - bucket_base_[b]);
      const int cur = bucket_cur(s, d);
      if (cap != 0 || cur != 0)
        std::fprintf(stderr,
                     "PW_WATCHDOG: bucket (%d -> %d): staged %d of %d\n", s, d,
                     cur, cap);
    }
  }
}

void DataPlane::debug_set_wrap_state(std::uint32_t round_id,
                                     std::uint64_t wake_epoch) {
  PW_CHECK_MSG(staging_empty() && !pending(),
               "debug_set_wrap_state on a non-quiescent plane");
  PW_CHECK(round_id >= 1);
  PW_CHECK(wake_epoch >= 1 && wake_epoch <= kEpochMask);
  // Clear both stamp families and the wake words exactly like the real wrap
  // paths (prepare_next_stamp / bump_wake_epoch) do, so nothing delivered
  // under the old ids can alias the new range.
  for (auto& rec : arc_) rec.stamp = 0;
  for (auto& run : inbox_run_) run.stamp = 0;
  std::fill(wake_stamp_.begin(), wake_stamp_.end(), 0);
  round_id_ = round_id;
  wake_epoch_ = wake_epoch;
}

bool DataPlane::staging_empty() const {
  for (const CurLine& line : bucket_cur_)
    for (const int c : line.w)
      if (c != 0) return false;
  return true;
}

}  // namespace pw::sim
