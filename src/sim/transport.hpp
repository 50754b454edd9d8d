// Transport layer of the sharded data plane (DESIGN.md §10).
//
// The bucket layout of §7 — (sender shard, destination shard) staging buckets
// with exact arc-count capacities, final when the callback dispatch returns,
// consumed by the ascending-sender merge — is a network message schedule in
// everything but name. This header makes that literal: every bucket the data
// plane stages into or merges from is a per-bucket VIEW owned by a Transport,
// and the round close publishes bucket (s → d)'s frame on the transport's
// (s → d) link before the merges dispatch.
//
// The wire format IS the staging format. A frame is the bucket's SoA pair —
// the Incoming payload run followed by the receiver-id run — laid out in the
// ring region itself. stage() writes cross-shard records directly into the
// ring at their final wire offsets, so publish is a pure release-bump of the
// ring's publish index (no serialize loop), the drain is a pure assertion
// (no memcpy into a receive arena), and the merge reads frames in place.
// There is no separate WireMsg: `Incoming` is the wire record, pinned below
// by static_assert so the cross-process format can't drift silently.
//
// Two backends:
//
//   * InProcTransport — the identity transport. Every bucket view aliases
//     the staging arena, publish and drain are no-ops, and the engine is
//     bit-for-bit the pre-§10 one. Default.
//
//   * ShmRingTransport — one SPSC ring per nonzero-capacity (s → d) shard
//     pair, s ≠ d, living in a single MAP_SHARED memory segment. The bucket
//     view for a cross-shard link points INTO the ring's frame region, so
//     staged bytes are wire bytes; the close publishes the frame (release bump
//     of the ring's publish index) and the destination's merge reads it in
//     place, retiring the frame only after the commit pass took its copy.
//     Self buckets (d → d) never cross a shard boundary: their views alias
//     the staging arena exactly like the in-proc transport (the loopback
//     link carries no ring and no copy). Because the merge dispatch starts
//     after the publish pass (publish-happens-before-drain), the in-engine
//     drain is non-blocking: ring indices are ASSERTED, not waited on, so
//     the round close and the §9 fault choke point run unchanged on top of
//     rings. The segment really is shared memory (MAP_SHARED |
//     MAP_ANONYMOUS): a child forked after construction sees the same rings
//     at the same addresses, which is exactly how tools/partwise_shard runs
//     one process per shard over these same structs.
//
// Rings carry at most ONE frame at a time (publish in round r's close, drain
// in the same close, next publish a full round later), so the frame protocol
// is two monotone counters: pub_seq (frames published) and cons_seq (frames
// consumed), equal exactly when the ring is empty. Each counter is
// single-writer; the release publish / acquire drain pair carries the frame
// bytes. Overwrite safety for the in-place staging is the round structure
// itself: round r's retire happens inside round r's dispatch, and round
// r + 1's stage writes happen after that dispatch's completion barrier — the
// publish-time emptiness PW_CHECK still pins the protocol. A watchdog reads
// both counters to name stalled links: pub == cons with a starving consumer
// means the producer died before publishing.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "src/sim/executor.hpp"
#include "src/sim/message.hpp"
#include "src/util/check.hpp"

namespace pw::sim {

// The wire record is the staging record. Frames are raw SoA runs of these,
// so the cross-process format is exactly the in-memory layout — pinned here
// so a field reorder or padding change is a compile error, not a silent
// protocol break between differently-built shard workers.
static_assert(sizeof(Incoming) == 40 &&
                  std::is_trivially_copyable_v<Incoming>,
              "Incoming is the §10 wire record: fixed-width, memcpy-able");
static_assert(sizeof(int) == 4,
              "receiver ids are 4-byte wire words in the frame's id run");

// SPSC ring header, one cache line, lives at the start of each ring's slice
// of the shared segment. Both counters count FRAMES (one frame per round per
// link), not records; `count` is the record count of the open frame.
struct alignas(64) RingHdr {
  std::atomic<std::uint64_t> pub_seq{0};   // frames published (producer-owned)
  std::atomic<std::uint64_t> cons_seq{0};  // frames consumed (consumer-owned)
  std::atomic<std::uint32_t> count{0};     // records in the open frame
};
static_assert(sizeof(RingHdr) == 64);
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "ring counters must be plain shared-memory words");

// Attached view of one ring inside a mapped segment. The creator placement-
// news the header once; every attach (same process or a forked child) just
// points at it. Capacity is the link's static bucket capacity — a frame can
// never exceed it, so the data region never wraps and a frame is always one
// contiguous [0, count) prefix.
//
// Region layout: [RingHdr | Incoming inc[cap] | int to[cap]], padded to a
// cache line. The producer stages records directly into inc()/to() during
// the round (the ring is provably empty then — see the header comment), and
// publish() is only the count store plus the release bump.
class SpscRing {
 public:
  SpscRing() = default;
  SpscRing(void* mem, int capacity, bool create)
      : hdr_(create ? new (mem) RingHdr{} : static_cast<RingHdr*>(mem)),
        inc_(reinterpret_cast<Incoming*>(static_cast<unsigned char*>(mem) +
                                         sizeof(RingHdr))),
        to_(reinterpret_cast<int*>(
            static_cast<unsigned char*>(mem) + sizeof(RingHdr) +
            static_cast<std::size_t>(capacity) * sizeof(Incoming))),
        capacity_(capacity) {}

  static std::size_t bytes(int capacity) {
    // Header line + the SoA frame (payload run then id run), padded to a
    // cache line so adjacent rings in the segment never share one.
    const std::size_t raw =
        sizeof(RingHdr) +
        static_cast<std::size_t>(capacity) * (sizeof(Incoming) + sizeof(int));
    return (raw + 63) & ~std::size_t{63};
  }

  bool attached() const { return hdr_ != nullptr; }
  int capacity() const { return capacity_; }
  std::uint64_t pub_seq() const {
    // PAIR(ring-pub-seq): acquire the frame bytes behind the publish bump
    return hdr_->pub_seq.load(std::memory_order_acquire);
  }
  std::uint64_t cons_seq() const {
    // PAIR(ring-cons-seq): acquire the consumer's retirement
    return hdr_->cons_seq.load(std::memory_order_acquire);
  }

  // The frame region. Producer-writable while the ring is empty (staging),
  // consumer-readable between frame_ready() and consume() — the SPSC
  // protocol plus the one-frame-per-round schedule make the two windows
  // disjoint.
  Incoming* inc() const { return inc_; }
  int* to() const { return to_; }

  // Producer side: the frame's records are already in place (staged through
  // inc()/to()); publishing is recording the count and bumping pub_seq. The
  // ring must be empty — with one frame per round per link, a non-empty ring
  // here means the consumer skipped a round.
  void publish(int count) {
    // PAIR(ring-cons-seq): emptiness check acquires the last retirement
    PW_CHECK_MSG(hdr_->pub_seq.load(std::memory_order_relaxed) ==
                     hdr_->cons_seq.load(std::memory_order_acquire),
                 "ring frame published over an unconsumed one (§10)");
    PW_CHECK(count >= 0 && count <= capacity_);
    hdr_->count.store(static_cast<std::uint32_t>(count),
                      std::memory_order_relaxed);
    // PAIR(ring-pub-seq): frame bytes + count published to the consumer
    hdr_->pub_seq.fetch_add(1, std::memory_order_release);
  }

  // Consumer side, non-blocking: true once exactly one unconsumed frame is
  // visible (acquire — its records are readable on true).
  bool frame_ready() const {
    return pub_seq() == hdr_->cons_seq.load(std::memory_order_relaxed) + 1;
  }
  int frame_count() const {
    return static_cast<int>(hdr_->count.load(std::memory_order_relaxed));
  }

  // Retires the drained frame (release: the producer's emptiness check in
  // publish() may acquire it from another thread or process).
  void consume() {
    // PAIR(ring-cons-seq): retirement published to the producer's
    // emptiness acquire in publish()
    hdr_->cons_seq.store(hdr_->cons_seq.load(std::memory_order_relaxed) + 1,
                         std::memory_order_release);
  }

 private:
  RingHdr* hdr_ = nullptr;
  Incoming* inc_ = nullptr;
  int* to_ = nullptr;
  int capacity_ = 0;
};

// One anonymous shared mapping, zero-filled by the kernel. MAP_SHARED is the
// point: a process forked after construction shares the PAGES, not copies —
// the ring protocol works unchanged across the fork boundary. Falls back to
// heap memory where mmap is unavailable (rings then work in-process only).
class ShmArena {
 public:
  explicit ShmArena(std::size_t bytes);
  ~ShmArena();
  ShmArena(const ShmArena&) = delete;
  ShmArena& operator=(const ShmArena&) = delete;

  void* base() const { return base_; }
  std::size_t size() const { return size_; }

 private:
  void* base_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;
};

// Where bucket (s → d)'s records live: the id run and the payload run the
// data plane stages into and the merge reads from. For local buckets both
// point into the staging arena; for a cross-shard shm link both point into
// the ring's frame region, so staging IS serialization.
struct BucketView {
  int* to = nullptr;
  Incoming* inc = nullptr;
};

// The seam the data plane talks through. bucket(s, d) is queried once at
// data-plane construction (the views are stable for the transport's
// lifetime); per round and per bucket the calls are:
//   publish(s, d, count) — bucket (s → d) is final; called in the round
//                          close's pre-merge pass, on the caller thread,
//                          after the callback dispatch returned.
//   drain(s, d, count)   — called by destination d's merge task before its
//                          first read of the bucket; purely an assertion
//                          that the frame is visible and carries `count`
//                          records (the view already points at them).
//   retire(s, d)         — called by destination d after its LAST read of
//                          the bucket (the commit pass copied the frame into
//                          the delivery arena); frees the link for the next
//                          round's staging.
// Virtual dispatch is once per bucket per round (≤ S² calls), not per
// message.
class Transport {
 public:
  virtual ~Transport() = default;
  virtual TransportKind kind() const = 0;
  virtual BucketView bucket(int s, int d) = 0;
  virtual void publish(int s, int d, int count) = 0;
  virtual void drain(int s, int d, int count) = 0;
  virtual void retire(int s, int d) = 0;
  // Appended to the §9 watchdog dump: per-link liveness (publish/consume
  // indices), so a wedged close names its stalled links.
  virtual void watchdog_dump() const {}
};

// The identity transport: staged bytes are received bytes. Every bucket view
// aliases the staging arena at the bucket's prefix-sum offset, and publish /
// drain / retire are no-ops — the dispatch barriers alone order writer and
// reader, which is the pre-§10 engine bit for bit.
class InProcTransport final : public Transport {
 public:
  // `bucket_base` is the data plane's (d * S + s)-indexed prefix-sum table,
  // size S² + 1, in slots of the staging arena.
  InProcTransport(int num_shards, const std::vector<int>& bucket_base,
                  int* staging_to, Incoming* staging_inc)
      : num_shards_(num_shards),
        bucket_base_(bucket_base),
        to_(staging_to),
        inc_(staging_inc) {}
  TransportKind kind() const override { return TransportKind::kInProc; }
  BucketView bucket(int s, int d) override {
    const auto base = static_cast<std::size_t>(
        bucket_base_[static_cast<std::size_t>(d) * num_shards_ + s]);
    return BucketView{to_ + base, inc_ + base};
  }
  void publish(int, int, int) override {}
  void drain(int, int, int) override {}
  void retire(int, int) override {}

 private:
  int num_shards_;
  std::vector<int> bucket_base_;  // copy: offsets outlive the data plane
  int* to_;
  Incoming* inc_;
};

// Shared-memory ring transport: real shared pages, one SPSC ring per nonzero
// cross-shard link, sized by the link's static bucket capacity. Cross-shard
// bucket views point into the ring frame regions (staged in place, drained
// in place — zero copies on the wire path); self and zero-capacity buckets
// alias the staging arena like the identity transport.
class ShmRingTransport final : public Transport {
 public:
  // `bucket_base` is the data plane's (d * S + s)-indexed prefix-sum table,
  // size S² + 1; ring capacities and the local-bucket views derive from it.
  ShmRingTransport(int num_shards, const std::vector<int>& bucket_base,
                   int* staging_to, Incoming* staging_inc);

  TransportKind kind() const override { return TransportKind::kShmRing; }
  BucketView bucket(int s, int d) override;
  void publish(int s, int d, int count) override;
  void drain(int s, int d, int count) override;
  void retire(int s, int d) override;
  void watchdog_dump() const override;

  // The multi-process runner's view: the shared segment and the ring table,
  // so a forked shard worker drives the SAME rings the in-process engine
  // would. ring(s, d) is unattached when the link has zero capacity or
  // s == d.
  const ShmArena& arena() const { return *arena_; }
  const SpscRing& ring(int s, int d) const {
    return rings_[static_cast<std::size_t>(d) * num_shards_ + s];
  }

 private:
  int num_shards_;
  std::vector<int> bucket_base_;  // copy: offsets outlive the data plane
  std::vector<SpscRing> rings_;   // (d * S + s), unattached where no link
  int* staging_to_;               // local-bucket (loopback) views
  Incoming* staging_inc_;
  std::unique_ptr<ShmArena> arena_;
};

}  // namespace pw::sim
