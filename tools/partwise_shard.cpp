// partwise_shard: one OS process per shard over the §10 shared-memory rings.
//
// The in-engine ShmRingTransport proves the wire format and the ring
// protocol inside one process; this runner proves the "shared" in shared
// memory. The parent builds the graph, a ring segment (same SpscRing structs
// the engine uses — the frame IS the staged SoA bucket, §10), and a small
// control segment, then forks one worker per shard. Each worker runs a BFS
// flood over its own contiguous node range, staging cross-shard sends
// directly into the ring frame regions, publishing each frame at the end of
// every round (a pure release-bump — nothing is copied) and draining its
// incoming rings in ascending sender-shard order — the same deterministic
// merge order as the engine — while hashing its full delivery trace. The
// parent then replays the identical flood on a sequential sim::Engine and
// compares per-shard trace hashes: bit-identical delivery across the process
// boundary, or a nonzero exit.
//
// --kill-shard K --kill-round R turns it into the §10 peer-crash drill:
// worker K calls _exit at the top of round R, every surviving worker times
// out on its deadline (a stalled ring or a silent barrier slot), and the
// parent prints a PW_SHARD_WATCHDOG report naming the dead peer and its
// stalled rings before exiting 1 — the multi-process analogue of the §9
// in-engine watchdog dump.
//
// Usage:
//   partwise_shard [--family grid|random|star] [--n N] [--seed S]
//                  [--shards K] [--rounds CAP] [--watchdog-ms MS] [--verify]
//                  [--kill-shard K --kill-round R]
#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/graph/graph.hpp"
#include "src/sim/engine.hpp"
#include "src/sim/transport.hpp"
#include "src/util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>
#define PW_HAVE_FORK 1
#endif

namespace {

using pw::graph::Graph;
using pw::sim::Incoming;
using pw::sim::Msg;
using pw::sim::ShmArena;
using pw::sim::SpscRing;

struct Options {
  std::string family = "grid";
  int n = 64;
  std::uint64_t seed = 1;
  int shards = 2;
  int rounds_cap = 0;  // 0: derived from n
  int watchdog_ms = 5000;
  bool verify = false;
  int kill_shard = -1;
  int kill_round = -1;
};

// Per-worker control slot in the shared control segment. `state[r & 1]`
// holds ((round << 1) | had_activity) for the end-of-round barrier; the
// barrier itself bounds cross-worker skew to one round, so two parity slots
// suffice. `done` marks a clean exit, `aborted` a deadline abort — a worker
// with neither is a dead peer.
struct alignas(64) PeerSlot {
  std::atomic<std::uint64_t> state[2];
  std::atomic<std::uint64_t> trace_hash;
  std::atomic<std::uint64_t> delivered;
  std::atomic<std::uint32_t> done;
  std::atomic<std::uint32_t> aborted;
};
static_assert(sizeof(PeerSlot) == 64);

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// Contiguous id-range partition (the data plane uses a power-of-two chunk;
// here any chunk works — worker and reference only need to agree).
struct Partition {
  int chunk = 1;
  int shards = 1;
  int shard_of(int v) const {
    const int s = v / chunk;
    return s < shards ? s : shards - 1;
  }
  int beg(int s) const { return s * chunk; }
  int end(int s, int n) const {
    return s + 1 == shards ? n : (s + 1) * chunk;
  }
};

Graph build_graph(const Options& opt) {
  pw::Rng rng(opt.seed);
  if (opt.family == "grid") {
    int side = 2;
    while ((side + 1) * (side + 1) <= opt.n) ++side;
    return pw::graph::gen::grid(side, side);
  }
  if (opt.family == "star") return pw::graph::gen::star(opt.n);
  if (opt.family == "random")
    return pw::graph::gen::random_connected(opt.n, 2 * opt.n, rng);
  std::fprintf(stderr, "unknown --family %s\n", opt.family.c_str());
  std::exit(2);
}

#ifdef PW_HAVE_FORK

std::uint64_t now_ms() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000 +
         static_cast<std::uint64_t>(ts.tv_nsec) / 1000000;
}

// Exponential backoff for the deadline polls: sleep the current interval —
// capped at 10ms and at the time left before the deadline — then double it.
// The crash drill's survivors wait out most of a multi-second watchdog
// window in these polls; a fixed-interval spin would burn one core per
// surviving worker for the whole wait.
void sleep_backoff(std::uint64_t& ns, std::uint64_t remaining_ms) {
  std::uint64_t cap_ns = 10'000'000;
  const std::uint64_t rem_ns = remaining_ms * 1'000'000;
  if (rem_ns < cap_ns) cap_ns = rem_ns < 1'000 ? 1'000 : rem_ns;
  const std::uint64_t dur = ns < cap_ns ? ns : cap_ns;
  timespec ts{static_cast<time_t>(dur / 1'000'000'000),
              static_cast<long>(dur % 1'000'000'000)};
  nanosleep(&ts, nullptr);
  if (ns < cap_ns) ns *= 2;
}

// The shared ring table: one SPSC ring per nonzero cross-shard link, packed
// into a single MAP_SHARED arena exactly like ShmRingTransport lays them
// out. Built by the parent BEFORE forking — children inherit the SpscRing
// views (private structs pointing into the shared pages).
struct RingTable {
  int S = 0;
  std::vector<int> cap;        // (d * S + s) link capacity in messages
  std::vector<SpscRing> rings; // same indexing; unattached where cap == 0
  std::unique_ptr<ShmArena> arena;

  RingTable(const Graph& g, const Partition& part) : S(part.shards) {
    cap.assign(static_cast<std::size_t>(S) * S, 0);
    for (int v = 0; v < g.n(); ++v) {
      const int s = part.shard_of(v);
      for (const auto& arc : g.arcs(v))
        ++cap[static_cast<std::size_t>(part.shard_of(arc.to)) * S + s];
    }
    std::size_t bytes = 0;
    std::vector<std::size_t> off(cap.size(), 0);
    for (int d = 0; d < S; ++d)
      for (int s = 0; s < S; ++s) {
        const auto i = static_cast<std::size_t>(d) * S + s;
        if (s == d || cap[i] == 0) continue;
        off[i] = bytes;
        bytes += SpscRing::bytes(cap[i]);
      }
    arena = std::make_unique<ShmArena>(bytes ? bytes : 64);
    rings.resize(cap.size());
    for (int d = 0; d < S; ++d)
      for (int s = 0; s < S; ++s) {
        const auto i = static_cast<std::size_t>(d) * S + s;
        if (s == d || cap[i] == 0) continue;
        rings[i] = SpscRing(static_cast<unsigned char*>(arena->base()) + off[i],
                            cap[i], /*create=*/true);
      }
  }

  SpscRing& ring(int s, int d) {
    return rings[static_cast<std::size_t>(d) * S + s];
  }
};

// One shard worker: BFS flood over the owned node range, rings for every
// cross-shard delivery, trace hash over everything the shard's nodes
// observe. Returns the process exit code.
int run_worker(int k, const Graph& g, const Partition& part, RingTable& rt,
               PeerSlot* slots, const Options& opt) {
  const int S = part.shards;
  const int n = g.n();
  const std::uint64_t deadline_ms =
      static_cast<std::uint64_t>(opt.watchdog_ms);
  std::vector<std::vector<Incoming>> inbox(static_cast<std::size_t>(n));
  std::vector<std::vector<Incoming>> next_inbox(static_cast<std::size_t>(n));
  std::vector<char> seen(static_cast<std::size_t>(n), 0);
  std::vector<char> woken(static_cast<std::size_t>(n), 0);
  std::vector<int> active, next_active;
  // The loopback out bucket (k → k never rings). Cross-shard sends are
  // staged directly into the ring frame regions at their final wire offsets
  // (§10 in-place wire path); only the per-destination fill cursors live
  // here.
  std::vector<int> loop_to;
  std::vector<Incoming> loop_inc;
  std::vector<int> out_cnt(static_cast<std::size_t>(S), 0);

  std::uint64_t hash = kFnvOffset;
  const auto mix = [&hash](std::uint64_t x) { hash = (hash ^ x) * kFnvPrime; };
  std::uint64_t delivered = 0;

  if (part.shard_of(0) == k) active.push_back(0);  // the explicit wake

  const int cap =
      opt.rounds_cap > 0 ? opt.rounds_cap : n + 4;
  for (int r = 0; r < cap; ++r) {
    if (k == opt.kill_shard && r == opt.kill_round) _exit(42);

    // Callback sweep, ascending owned ids — identical observation trace to
    // the engine's flood callback.
    for (const int v : active) {
      mix(static_cast<std::uint64_t>(v) << 32 | 0xa0a0a0a0u);
      std::uint64_t dmin = ~0ULL;
      for (const auto& in : inbox[static_cast<std::size_t>(v)]) {
        mix(static_cast<std::uint64_t>(in.from) << 32 |
            static_cast<std::uint32_t>(in.port));
        mix(in.msg.tag);
        mix(in.msg.a);
        if (in.msg.a < dmin) dmin = in.msg.a;
      }
      if (seen[static_cast<std::size_t>(v)]) continue;
      seen[static_cast<std::size_t>(v)] = 1;
      const std::uint64_t dist =
          inbox[static_cast<std::size_t>(v)].empty() ? 0 : dmin + 1;
      for (int p = 0; p < g.degree(v); ++p) {
        const int a = g.arc_id(v, p);
        const int to = g.arc(a).to;
        const int port_in = g.port_of_arc(g.mirror(a));
        const int d = part.shard_of(to);
        const Incoming in{v, port_in, Msg{1, dist, 0, 0}};
        if (d == k) {
          loop_to.push_back(to);
          loop_inc.push_back(in);
        } else {
          // Stage at the record's final wire offset. The region is writable:
          // the previous frame on this link was consumed before its peer
          // posted the last barrier state that released this worker (§10
          // one-frame-per-round protocol).
          SpscRing& ring = rt.ring(k, d);
          const int c = out_cnt[static_cast<std::size_t>(d)]++;
          ring.to()[c] = to;
          ring.inc()[c] = in;
        }
      }
    }

    // Publish every outgoing cross-shard bucket — one frame per round per
    // link, empty frames included, so ring indices advance in lockstep. The
    // records are already in place; publishing is the release bump.
    for (int d = 0; d < S; ++d) {
      if (d == k) continue;
      SpscRing& ring = rt.ring(k, d);
      if (!ring.attached()) continue;
      ring.publish(out_cnt[static_cast<std::size_t>(d)]);
    }

    // Drain in ascending sender-shard order — the engine's merge order. The
    // loopback bucket takes its slot at s == k.
    const auto deliver = [&](int to, const Incoming& in) {
      next_inbox[static_cast<std::size_t>(to)].push_back(in);
      ++delivered;
      if (!woken[static_cast<std::size_t>(to)]) {
        woken[static_cast<std::size_t>(to)] = 1;
        next_active.push_back(to);
      }
    };
    bool dead = false;
    for (int s = 0; s < S && !dead; ++s) {
      if (s == k) {
        for (std::size_t i = 0; i < loop_to.size(); ++i)
          deliver(loop_to[i], loop_inc[i]);
        continue;
      }
      SpscRing& ring = rt.ring(s, k);
      if (!ring.attached()) continue;
      const std::uint64_t t0 = now_ms();
      std::uint64_t backoff_ns = 1'000;
      while (!ring.frame_ready()) {
        const std::uint64_t elapsed = now_ms() - t0;
        if (elapsed > deadline_ms) {
          dead = true;
          break;
        }
        sleep_backoff(backoff_ns, deadline_ms - elapsed);
      }
      if (dead) break;
      // The frame is read in place — the records were never copied on either
      // side of the link.
      const int count = ring.frame_count();
      const int* fto = ring.to();
      const Incoming* finc = ring.inc();
      for (int i = 0; i < count; ++i) deliver(fto[i], finc[i]);
      ring.consume();
    }
    if (dead) {
      slots[k].aborted.store(1, std::memory_order_release);
      return 3;
    }

    mix(~0ULL);  // round separator

    // End-of-round barrier + global-activity vote through the control slots.
    const std::uint64_t next = static_cast<std::uint64_t>(r) + 1;
    slots[k].state[next & 1].store(
        next << 1 | (next_active.empty() ? 0 : 1), std::memory_order_release);
    bool global_active = false;
    for (int s = 0; s < S && !dead; ++s) {
      const std::uint64_t t0 = now_ms();
      std::uint64_t backoff_ns = 1'000;
      std::uint64_t st = 0;
      while ((st = slots[s].state[next & 1].load(std::memory_order_acquire)) >>
                 1 !=
             next) {
        const std::uint64_t elapsed = now_ms() - t0;
        if (elapsed > deadline_ms) {
          dead = true;
          break;
        }
        sleep_backoff(backoff_ns, deadline_ms - elapsed);
      }
      global_active = global_active || (st & 1) != 0;
    }
    if (dead) {
      slots[k].aborted.store(1, std::memory_order_release);
      return 3;
    }

    // Swap round state.
    for (const int v : active) inbox[static_cast<std::size_t>(v)].clear();
    active.swap(next_active);
    next_active.clear();
    // Wakes were discovered in delivery order; the engine's active set is
    // ascending.
    std::sort(active.begin(), active.end());
    for (const int v : active) {
      woken[static_cast<std::size_t>(v)] = 0;
      inbox[static_cast<std::size_t>(v)].swap(
          next_inbox[static_cast<std::size_t>(v)]);
    }
    loop_to.clear();
    loop_inc.clear();
    std::fill(out_cnt.begin(), out_cnt.end(), 0);

    if (!global_active) {
      slots[k].trace_hash.store(hash, std::memory_order_release);
      slots[k].delivered.store(delivered, std::memory_order_release);
      slots[k].done.store(1, std::memory_order_release);
      return 0;
    }
  }
  std::fprintf(stderr, "shard %d: round cap %d reached without quiescence\n",
               k, cap);
  slots[k].aborted.store(1, std::memory_order_release);
  return 4;
}

// Sequential in-engine replay of the exact same flood; per-shard trace
// hashes in the same mixing order as the workers.
void reference_hashes(const Graph& g, const Partition& part,
                      std::vector<std::uint64_t>& hash,
                      std::vector<std::uint64_t>& delivered) {
  const int S = part.shards;
  hash.assign(static_cast<std::size_t>(S), kFnvOffset);
  delivered.assign(static_cast<std::size_t>(S), 0);
  std::vector<std::uint64_t> mixv(hash.size());
  pw::sim::Engine eng(g, pw::sim::ExecutionPolicy{.num_threads = 1});
  std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
  eng.wake(0);
  while (!eng.idle()) {
    eng.begin_round();
    for (const int v : eng.active_nodes()) {
      const auto s = static_cast<std::size_t>(part.shard_of(v));
      const auto mix = [&](std::uint64_t x) {
        hash[s] = (hash[s] ^ x) * kFnvPrime;
      };
      mix(static_cast<std::uint64_t>(v) << 32 | 0xa0a0a0a0u);
      std::uint64_t dmin = ~0ULL;
      for (const auto& in : eng.inbox(v)) {
        mix(static_cast<std::uint64_t>(in.from) << 32 |
            static_cast<std::uint32_t>(in.port));
        mix(in.msg.tag);
        mix(in.msg.a);
        if (in.msg.a < dmin) dmin = in.msg.a;
        ++delivered[s];
      }
      if (seen[static_cast<std::size_t>(v)]) continue;
      seen[static_cast<std::size_t>(v)] = 1;
      const std::uint64_t dist = eng.inbox(v).empty() ? 0 : dmin + 1;
      for (int p = 0; p < g.degree(v); ++p)
        eng.send(v, p, Msg{1, dist, 0, 0});
    }
    eng.end_round();
    for (auto& h : hash) h = (h ^ ~0ULL) * kFnvPrime;  // round separator
  }
}

int run(const Options& opt) {
  const Graph g = build_graph(opt);
  if (g.n() < opt.shards) {
    std::fprintf(stderr, "need n >= shards (n=%d shards=%d)\n", g.n(),
                 opt.shards);
    return 2;
  }
  Partition part{(g.n() + opt.shards - 1) / opt.shards, opt.shards};
  RingTable rt(g, part);
  ShmArena control(static_cast<std::size_t>(opt.shards) * sizeof(PeerSlot));
  auto* slots = static_cast<PeerSlot*>(control.base());
  for (int s = 0; s < opt.shards; ++s) new (slots + s) PeerSlot{};

  std::vector<pid_t> pid(static_cast<std::size_t>(opt.shards), -1);
  for (int k = 0; k < opt.shards; ++k) {
    const pid_t p = fork();
    if (p < 0) {
      std::perror("fork");
      return 2;
    }
    if (p == 0) _exit(run_worker(k, g, part, rt, slots, opt));
    pid[static_cast<std::size_t>(k)] = p;
  }

  bool all_clean = true;
  for (int k = 0; k < opt.shards; ++k) {
    int status = 0;
    waitpid(pid[static_cast<std::size_t>(k)], &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) all_clean = false;
  }

  if (!all_clean) {
    // The multi-process watchdog report: name every worker that died without
    // reaching a clean or aborted exit, then the liveness counters of each
    // ring touching it — the cross-process analogue of the §9 dump.
    std::vector<char> is_dead(static_cast<std::size_t>(opt.shards), 0);
    for (int k = 0; k < opt.shards; ++k) {
      if (slots[k].done.load(std::memory_order_acquire) == 0 &&
          slots[k].aborted.load(std::memory_order_acquire) == 0) {
        is_dead[static_cast<std::size_t>(k)] = 1;
        std::fprintf(stderr, "PW_SHARD_WATCHDOG: dead peer shard %d (pid %d)\n",
                     k, static_cast<int>(pid[static_cast<std::size_t>(k)]));
      }
    }
    for (int d = 0; d < opt.shards; ++d)
      for (int s = 0; s < opt.shards; ++s) {
        SpscRing& ring = rt.ring(s, d);
        if (!ring.attached()) continue;
        const std::uint64_t pub = ring.pub_seq(), cons = ring.cons_seq();
        if (pub != cons || is_dead[static_cast<std::size_t>(s)] ||
            is_dead[static_cast<std::size_t>(d)])
          std::fprintf(stderr,
                       "PW_SHARD_WATCHDOG: stalled ring (%d -> %d): published "
                       "%" PRIu64 " consumed %" PRIu64 "\n",
                       s, d, pub, cons);
      }
    return 1;
  }

  if (opt.verify) {
    std::vector<std::uint64_t> ref_hash, ref_delivered;
    reference_hashes(g, part, ref_hash, ref_delivered);
    bool match = true;
    for (int k = 0; k < opt.shards; ++k) {
      const std::uint64_t wh =
          slots[k].trace_hash.load(std::memory_order_acquire);
      const std::uint64_t wd =
          slots[k].delivered.load(std::memory_order_acquire);
      if (wh != ref_hash[static_cast<std::size_t>(k)] ||
          wd != ref_delivered[static_cast<std::size_t>(k)]) {
        match = false;
        std::fprintf(stderr,
                     "shard %d MISMATCH: worker hash %" PRIx64 " delivered %" PRIu64
                     ", reference hash %" PRIx64 " delivered %" PRIu64 "\n",
                     k, wh, wd, ref_hash[static_cast<std::size_t>(k)],
                     ref_delivered[static_cast<std::size_t>(k)]);
      }
    }
    if (!match) return 1;
    std::printf("PW_SHARD_TRACES_MATCH shards=%d n=%d family=%s\n", opt.shards,
                g.n(), opt.family.c_str());
    return 0;
  }

  std::printf("PW_SHARD_OK shards=%d n=%d family=%s\n", opt.shards, g.n(),
              opt.family.c_str());
  return 0;
}

#endif  // PW_HAVE_FORK

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", a.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (a == "--family") opt.family = next();
    else if (a == "--n") opt.n = std::atoi(next());
    else if (a == "--seed") opt.seed = std::strtoull(next(), nullptr, 10);
    else if (a == "--shards") opt.shards = std::atoi(next());
    else if (a == "--rounds") opt.rounds_cap = std::atoi(next());
    else if (a == "--watchdog-ms") opt.watchdog_ms = std::atoi(next());
    else if (a == "--verify") opt.verify = true;
    else if (a == "--kill-shard") opt.kill_shard = std::atoi(next());
    else if (a == "--kill-round") opt.kill_round = std::atoi(next());
    else {
      std::fprintf(stderr, "unknown flag %s\n", a.c_str());
      return 2;
    }
  }
  if (opt.shards < 2) {
    std::fprintf(stderr, "need --shards >= 2\n");
    return 2;
  }
#ifdef PW_HAVE_FORK
  return run(opt);
#else
  std::fprintf(stderr, "partwise_shard requires fork(); unsupported here\n");
  return 2;
#endif
}
