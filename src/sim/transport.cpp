#include "src/sim/transport.hpp"

#include <cstdio>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#define PW_HAVE_MMAP 1
#endif

namespace pw::sim {

ShmArena::ShmArena(std::size_t bytes) : size_(bytes < 64 ? 64 : bytes) {
#if PW_HAVE_MMAP
  void* p = ::mmap(nullptr, size_, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (p != MAP_FAILED) {
    base_ = p;
    mapped_ = true;
    return;
  }
#endif
  // Heap fallback (mmap unavailable or exhausted): rings still work within
  // the process; only the fork-sharing property is lost.
  base_ = ::operator new(size_, std::align_val_t{64});
  std::memset(base_, 0, size_);
}

ShmArena::~ShmArena() {
#if PW_HAVE_MMAP
  if (mapped_) {
    ::munmap(base_, size_);
    return;
  }
#endif
  ::operator delete(base_, std::align_val_t{64});
}

ShmRingTransport::ShmRingTransport(int num_shards,
                                   const std::vector<int>& bucket_base,
                                   int* staging_to, Incoming* staging_inc)
    : num_shards_(num_shards),
      bucket_base_(bucket_base),
      staging_to_(staging_to),
      staging_inc_(staging_inc) {
  const int S = num_shards_;
  PW_CHECK(S >= 1 &&
           bucket_base_.size() == static_cast<std::size_t>(S) * S + 1);
  rings_.resize(static_cast<std::size_t>(S) * S);

  // Segment layout: the rings of every nonzero cross-shard link, cache-line
  // packed, in (d, s) order. Offsets first, then one mapping, then placement-
  // new each header.
  std::vector<std::size_t> off(static_cast<std::size_t>(S) * S, SIZE_MAX);
  std::size_t total = 0;
  for (int d = 0; d < S; ++d)
    for (int s = 0; s < S; ++s) {
      if (s == d) continue;  // the self link is loopback, never a ring
      const auto b = static_cast<std::size_t>(d) * S + s;
      const int cap = bucket_base_[b + 1] - bucket_base_[b];
      if (cap == 0) continue;
      off[b] = total;
      total += SpscRing::bytes(cap);
    }
  arena_ = std::make_unique<ShmArena>(total);
  auto* base = static_cast<unsigned char*>(arena_->base());
  for (int d = 0; d < S; ++d)
    for (int s = 0; s < S; ++s) {
      const auto b = static_cast<std::size_t>(d) * S + s;
      if (off[b] == SIZE_MAX) continue;
      const int cap = bucket_base_[b + 1] - bucket_base_[b];
      rings_[b] = SpscRing(base + off[b], cap, /*create=*/true);
    }
}

BucketView ShmRingTransport::bucket(int s, int d) {
  const auto b = static_cast<std::size_t>(d) * num_shards_ + s;
  const SpscRing& r = rings_[b];
  if (r.attached()) return BucketView{r.to(), r.inc()};
  // Loopback (s == d) and zero-capacity links carry no ring: the bucket
  // lives in the staging arena at its prefix-sum offset, exactly like the
  // identity transport.
  const auto base = static_cast<std::size_t>(bucket_base_[b]);
  return BucketView{staging_to_ + base, staging_inc_ + base};
}

void ShmRingTransport::publish(int s, int d, int count) {
  if (s == d) return;  // loopback: the merge reads staging directly
  SpscRing& r = rings_[static_cast<std::size_t>(d) * num_shards_ + s];
  if (!r.attached()) {
    // Zero-capacity links carry no ring and are skipped by the publish pass,
    // so a publish here is a protocol violation.
    PW_CHECK_MSG(false, "publish on the zero-capacity link (%d -> %d)", s, d);
  }
  // The frame's records were staged in place; publishing is the count store
  // plus the release bump.
  r.publish(count);
}

void ShmRingTransport::drain(int s, int d, int count) {
  if (s == d) return;  // loopback: never left the process, nothing to check
  const SpscRing& r = rings_[static_cast<std::size_t>(d) * num_shards_ + s];
  if (!r.attached()) {
    PW_CHECK_MSG(count == 0, "staged traffic on the zero-capacity link "
                             "(%d -> %d)", s, d);
    return;
  }
  // In-engine drains never block: the publish pass ran before this merge's
  // dispatch. A missing or short frame is a protocol bug, not a
  // wait. The frame stays in the ring — the merge reads it in place — and is
  // retired only after the commit pass copied it out.
  PW_CHECK_MSG(r.frame_ready(),
               "merge drained link (%d -> %d) before its frame published "
               "(§10 publish-before-merge order broken)",
               s, d);
  PW_CHECK_MSG(r.frame_count() == count,
               "link (%d -> %d) frame carries %d records, cursor says %d",
               s, d, r.frame_count(), count);
}

void ShmRingTransport::retire(int s, int d) {
  if (s == d) return;
  SpscRing& r = rings_[static_cast<std::size_t>(d) * num_shards_ + s];
  if (!r.attached()) return;
  PW_CHECK_MSG(r.frame_ready(),
               "retire on link (%d -> %d) with no frame in flight", s, d);
  r.consume();
}

void ShmRingTransport::watchdog_dump() const {
  const int S = num_shards_;
  for (int d = 0; d < S; ++d)
    for (int s = 0; s < S; ++s) {
      const SpscRing& r = rings_[static_cast<std::size_t>(d) * S + s];
      if (!r.attached()) continue;
      const std::uint64_t pub = r.pub_seq();
      const std::uint64_t cons = r.cons_seq();
      // pub == cons: the link is idle — if the round cannot close, the
      // producer died (or never returned) before publishing this round's
      // frame. pub == cons + 1: a frame is in flight awaiting drain.
      std::fprintf(stderr,
                   "PW_WATCHDOG: ring (%d -> %d): capacity %d published "
                   "%llu consumed %llu%s\n",
                   s, d, r.capacity(), static_cast<unsigned long long>(pub),
                   static_cast<unsigned long long>(cons),
                   pub == cons ? " (stalled: awaiting publish)"
                               : " (frame in flight)");
    }
}

}  // namespace pw::sim
