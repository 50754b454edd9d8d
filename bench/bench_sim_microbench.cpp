// Engine micro-benchmarks: the cost of simulating one CONGEST round/message,
// so the wall-clock of every other harness can be related to simulated work.
// Not a paper artifact; a health check for the substrate — and the anchor of
// the repo's perf trajectory: results land in BENCH_engine.json so regressions
// are machine-checkable across PRs.
//
// Workloads:
//   flood_steady  repeated flood phases on one engine — the steady-state cost
//                 of begin_round/send/end_round with all buffers warm. This is
//                 the number the flat-arena engine is judged on.
//   flood_cold    one engine per flood phase — includes per-engine setup.
//   skewed_flood  repeated skewed-activity phases (only the top n/skew ids
//                 send, re-waking every round) — callback work concentrates
//                 in one shard, so every round waits out that shard's sweep
//                 at the dispatch barrier (DESIGN.md §8). Swept over
//                 hot-band denominators (the `skew` column; PW_BENCH_SKEW=8,32
//                 comma-list override, default {8, 32}), and each (n, skew)
//                 combo also reports the per-shard incoming-message imbalance
//                 (max/mean over destination shards, `shard_imbalance`): how
//                 lopsided the merge work is.
//   bfs_tree      build_bfs_tree per repetition (engine per rep).
//   convergecast  forest_convergecast per repetition (engine per rep).
//
// Timing is the median of `reps` repetitions (steady_clock); each row reports
// rounds and messages per repetition plus derived ns/round and ns/message.
//
// Thread counts are autotuned from std::thread::hardware_concurrency() via
// the shared bench::thread_sweep helper (bench/common.hpp) — {1, 2, hc}
// deduped, capped at the workload's node count, PW_BENCH_THREADS override.
// Every JSON row records the detected core count (`host_threads`) so
// artifacts from different runner classes are distinguishable.
#include "bench/common.hpp"
#include "bench/workloads.hpp"
#include "src/tree/treeops.hpp"

namespace pw::bench {
namespace {

struct Result {
  std::uint64_t median_ns = 0;
  std::uint64_t rounds = 0;    // per repetition
  std::uint64_t messages = 0;  // per repetition
};

// Runs fn() `reps` times after `warmup` unrecorded runs; returns the median
// wall-clock of one run plus the engine work one run performed. Every rep
// must do identical work — median_ns spans all reps while rounds/messages
// come from one, so a drifting workload would silently skew ns/round and
// ns/msg. Drift aborts instead.
template <class F>
Result measure(sim::Engine& eng, int warmup, int reps, F&& fn) {
  for (int i = 0; i < warmup; ++i) fn();
  std::vector<std::uint64_t> ns(static_cast<std::size_t>(reps));
  Result r;
  bool first = true;
  for (auto& sample : ns) {
    const auto snap = eng.snap();
    const auto t0 = now_ns();
    fn();
    sample = now_ns() - t0;
    const auto stats = eng.since(snap);
    if (!first && (stats.rounds != r.rounds || stats.messages != r.messages)) {
      std::fprintf(stderr,
                   "measure(): workload drifted across reps "
                   "(%llu rounds / %llu msgs vs %llu / %llu)\n",
                   static_cast<unsigned long long>(stats.rounds),
                   static_cast<unsigned long long>(stats.messages),
                   static_cast<unsigned long long>(r.rounds),
                   static_cast<unsigned long long>(r.messages));
      std::abort();
    }
    first = false;
    r.rounds = stats.rounds;
    r.messages = stats.messages;
  }
  std::nth_element(ns.begin(), ns.begin() + reps / 2, ns.end());
  r.median_ns = ns[static_cast<std::size_t>(reps) / 2];
  return r;
}

// The skewed_flood hot-band denominators to sweep (senders = top n/skew
// ids). PW_BENCH_SKEW=8,32 (comma-separated) overrides; the default keeps
// the historical 8 plus a thinner, hotter 32 so the artifact always carries
// two skew settings per size.
std::vector<int> skew_sweep() {
  std::vector<int> out;
  if (const char* env = std::getenv("PW_BENCH_SKEW")) {
    constexpr int kMaxSkew = 1 << 20;
    int cur = 0;
    bool in_number = false;
    for (const char* c = env;; ++c) {
      if (*c >= '0' && *c <= '9') {
        cur = std::min(kMaxSkew, cur * 10 + (*c - '0'));
        in_number = true;
      } else {
        if (in_number && cur > 0) out.push_back(cur);
        cur = 0;
        in_number = false;
        if (*c == '\0') break;
      }
    }
  }
  if (out.empty()) out = {8, 32};
  return out;
}

// Per-destination-shard incoming-message imbalance of one steady skewed
// round: every hot sender (top n/skew ids) sends on all ports, so shard d
// receives one message per arc from the hot band into d. Replicates the
// engine's shard layout (contiguous power-of-two chunks, data_plane.cpp) so
// the number describes exactly the merge tasks of that round. Returns
// max/mean over destination shards (1.0 = perfectly even); 0 when the layout
// degenerates to one shard.
double shard_imbalance(const graph::Graph& g, int threads, int skew) {
  const int n = g.n();
  const int chunk = (n + threads - 1) / threads;
  int shift = 0;
  while ((1 << shift) < chunk) ++shift;
  const int shards = ((n - 1) >> shift) + 1;
  if (shards <= 1) return 0.0;
  const int hot_beg = n - std::max(1, n / std::max(1, skew));
  std::vector<std::uint64_t> in(static_cast<std::size_t>(shards), 0);
  std::uint64_t total = 0;
  for (int v = hot_beg; v < n; ++v) {
    for (const auto& a : g.arcs(v)) {
      ++in[static_cast<std::size_t>(a.to >> shift)];
      ++total;
    }
  }
  const double mean =
      static_cast<double>(total) / static_cast<double>(shards);
  const std::uint64_t mx = *std::max_element(in.begin(), in.end());
  return mean > 0 ? static_cast<double>(mx) / mean : 0.0;
}

void run() {
  Table table({"workload", "n", "m", "threads", "skew", "reps", "rounds/rep",
               "msgs/rep", "ns/round", "ns/msg", "ms/rep"});
  JsonEmitter json("engine_microbench");
  const int host_threads = detected_cores();
  // skew < 0 = not a skewed workload: no skew column in the JSON row, so the
  // row keys of every pre-existing workload are unchanged and old baselines
  // keep matching (check_regression defaults absent skew to 8 on both sides).
  // transport == nullptr: the in-proc data plane; no transport column in the
  // JSON row, so every pre-existing row key is unchanged and old baselines
  // keep matching (check_regression defaults absent transport to "inproc").
  auto report = [&](const std::string& name, const graph::Graph& g,
                    int threads, int reps, const Result& r,
                    int skew = -1, double imbalance = -1.0,
                    const char* transport = nullptr) {
    const double ns_per_round =
        static_cast<double>(r.median_ns) / std::max<std::uint64_t>(1, r.rounds);
    const double ns_per_msg = static_cast<double>(r.median_ns) /
                              std::max<std::uint64_t>(1, r.messages);
    table.add_row({transport == nullptr ? name : name + "/" + transport,
                   fm(static_cast<std::uint64_t>(g.n())),
                   fm(static_cast<std::uint64_t>(g.m())),
                   fm(static_cast<std::uint64_t>(threads)),
                   skew < 0 ? "-" : fm(static_cast<std::uint64_t>(skew)),
                   fm(static_cast<std::uint64_t>(reps)), fm(r.rounds),
                   fm(r.messages), fd(ns_per_round), fd(ns_per_msg),
                   fd(static_cast<double>(r.median_ns) * 1e-6, 3)});
    JsonRow row{{"workload", name},
                {"n", g.n()},
                {"m", g.m()},
                {"threads", threads},
                {"host_threads", host_threads},
                {"reps", reps},
                {"rounds", r.rounds},
                {"messages", r.messages},
                {"wall_ns", r.median_ns},
                {"ns_per_round", ns_per_round},
                {"ns_per_message", ns_per_msg}};
    if (skew >= 0) {
      row.push_back({"skew", skew});
      if (imbalance >= 0) row.push_back({"shard_imbalance", imbalance});
    }
    if (transport != nullptr) row.push_back({"transport", std::string(transport)});
    json.add_row(std::move(row));
  };

  for (const int n : {1024, 8192, 65536}) {
    Rng rng(1);
    const auto g = graph::gen::random_connected(n, 3 * n, rng);
    // The biggest size gets 16 reps (not 8): its ~20ms repetitions are the
    // most exposed to load bursts, and the per-run median needs enough
    // samples to shrug one off — the regression gate keys on these rows.
    const int reps = n <= 1024 ? 256 : n <= 8192 ? 32 : 16;

    // The anchor workload, swept over thread counts: the sharded engine
    // must reproduce identical rounds/messages (measure() aborts on drift)
    // while the wall clock shows what the shards buy on the host running it.
    for (const int threads : thread_sweep(n)) {
      sim::Engine eng(g, sim::ExecutionPolicy{threads});
      std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
      const auto r = measure(eng, 3, reps, [&] { flood_workload(eng, seen); });
      report("flood_steady", g, threads, reps, r);
      if (threads > 1) {
        // The same workload over the §10 shared-memory ring transport:
        // every cross-shard bucket pays publish + drain + retire. The gap
        // to the in-proc row above IS the transport tax, gated so the wire
        // path cannot quietly rot.
        const sim::ExecutionPolicy shm{
            .num_threads = threads, .transport = sim::TransportKind::kShmRing};
        sim::Engine ring_eng(g, shm);
        std::vector<char> ring_seen(static_cast<std::size_t>(g.n()), 0);
        const auto rr = measure(ring_eng, 3, reps,
                                [&] { flood_workload(ring_eng, ring_seen); });
        report("flood_steady", g, threads, reps, rr, -1, -1.0, "shm");
      }
    }
    {
      sim::Engine probe(g);  // accounting reference for the per-rep engines
      std::vector<char> seen(static_cast<std::size_t>(g.n()), 0);
      const auto r = measure(probe, 1, reps, [&] {
        sim::Engine eng(g);
        flood_workload(eng, seen);
        probe.charge_rounds(eng.rounds());
        probe.charge_messages(eng.messages());
      });
      report("flood_cold", g, 1, reps, r);
    }
  }

  // Skewed sender activity (only the top n/skew ids send, re-waking for a
  // fixed round budget): the callback work of every round concentrates in
  // the top shard, so every round's merges wait at the dispatch barrier for
  // that one long sweep. Each (n, threads, skew) combo
  // carries the per-shard incoming-message imbalance of its merges — the
  // skew study: higher skew, higher imbalance.
  const auto skews = skew_sweep();
  for (const int n : {8192, 65536}) {
    Rng rng(4);
    const auto g = graph::gen::random_connected(n, 3 * n, rng);
    const int reps = n <= 8192 ? 32 : 8;
    for (const int skew : skews) {
      for (const int threads : thread_sweep(n)) {
        const double imb = shard_imbalance(g, threads, skew);
        sim::Engine eng(g, sim::ExecutionPolicy{threads});
        const auto r = measure(
            eng, 2, reps, [&] { skewed_flood_workload(eng, 12, skew); });
        report("skewed_flood", g, threads, reps, r, skew, imb);
      }
    }
  }

  for (const int n : {1024, 8192}) {
    Rng rng(2);
    const auto g = graph::gen::random_connected(n, 3 * n, rng);
    const int reps = n > 1024 ? 16 : 64;
    sim::Engine probe(g);
    const auto r = measure(probe, 1, reps, [&] {
      sim::Engine eng(g);
      const auto t = tree::build_bfs_tree(eng, 0);
      probe.charge_rounds(eng.rounds());
      probe.charge_messages(eng.messages());
      if (t.height() < 0) std::abort();  // keep the tree from being optimized out
    });
    report("bfs_tree", g, 1, reps, r);
  }

  for (const int n : {1024, 8192}) {
    Rng rng(3);
    const auto g = graph::gen::random_connected(n, 2 * n, rng);
    const int reps = n > 1024 ? 16 : 64;
    sim::Engine setup(g);
    const auto t = tree::build_bfs_tree(setup, 0);
    std::vector<std::uint64_t> values(static_cast<std::size_t>(g.n()), 1);
    sim::Engine probe(g);
    const auto r = measure(probe, 1, reps, [&] {
      sim::Engine eng(g);
      const auto sums = tree::forest_convergecast(eng, t, agg::sum(), values);
      probe.charge_rounds(eng.rounds());
      probe.charge_messages(eng.messages());
      if (sums[0] != static_cast<std::uint64_t>(g.n())) std::abort();
    });
    report("convergecast", g, 1, reps, r);
  }

  table.print("Engine microbench — simulation cost per round and per message");
  json.write("BENCH_engine.json");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
