// Corollary 1.4: (1+eps)-approximate min-cut in Õ(bD + c) * poly(1/eps)
// rounds and Õ(m) * poly(1/eps) messages.
//
// The harness sweeps eps on graphs with planted cuts and reports the
// approximation ratio against Stoer-Wagner and the poly(1/eps) growth of
// rounds/messages — the two halves of the corollary's claim.
#include "bench/common.hpp"

#include "src/apps/mincut.hpp"

namespace pw::bench {
namespace {

graph::Graph planted_two_cluster(int half, int bridges, Rng& rng) {
  std::vector<graph::Edge> edges;
  for (int u = 0; u < half; ++u)
    for (int v = u + 1; v < half; ++v)
      if (rng.next_bool(0.35)) {
        edges.push_back({u, v, 4});
        edges.push_back({u + half, v + half, 4});
      }
  for (int b = 0; b < bridges; ++b) edges.push_back({b, half + b, 1});
  return graph::Graph::from_edges(2 * half, std::move(edges));
}

void run() {
  Rng rng(46);
  Table table({"graph", "eps", "thr", "exact", "found", "ratio", "trials",
               "rounds", "messages", "ms"});
  JsonEmitter json("mincut_corollary_1_4");
  const int host_threads = detected_cores();

  auto bench_graph = [&](const std::string& name, const graph::Graph& g) {
    const auto exact = apps::stoer_wagner_min_cut(g);
    // The per-trial MST engines inherit the outer engine's policy
    // (Engine::policy()), so the thread sweep reaches the inner Borůvka
    // phases — the bulk of the work — not just the outer accounting.
    for (const int threads : thread_sweep(g.n()))
      for (double eps : {1.0, 0.5, 0.25}) {
        const auto [res, wall_ns] = median_of_reps([&] {
          sim::Engine eng(g, sim::ExecutionPolicy{threads});
          core::PaSolverConfig cfg;
          cfg.seed = 37;
          const auto t0 = now_ns();
          auto r = apps::approx_min_cut(eng, eps, cfg);
          return std::pair{std::move(r), now_ns() - t0};
        });
        table.add_row({name, fd(eps), fm(static_cast<std::uint64_t>(threads)),
                       fm(static_cast<std::uint64_t>(exact)),
                       fm(static_cast<std::uint64_t>(res.cut_value)),
                       fd(static_cast<double>(res.cut_value) / exact),
                       fm(static_cast<std::uint64_t>(res.trials)),
                       fm(res.stats.rounds), fm(res.stats.messages),
                       fd(static_cast<double>(wall_ns) * 1e-6, 3)});
        json.add_row(
            {{"graph", name},
             {"n", g.n()},
             {"eps", eps},
             {"threads", threads},
             {"host_threads", host_threads},
             {"exact_cut", static_cast<std::uint64_t>(exact)},
             {"found_cut", static_cast<std::uint64_t>(res.cut_value)},
             {"ratio", static_cast<double>(res.cut_value) / exact},
             {"trials", res.trials},
             {"rounds", res.stats.rounds},
             {"messages", res.stats.messages},
             {"reps", kAppReps},
             {"wall_ns", wall_ns},
             {"ns_per_message",
              static_cast<double>(wall_ns) /
                  static_cast<double>(std::max<std::uint64_t>(
                      1, res.stats.messages))}});
      }
  };

  bench_graph("planted(2x24, cut=3)", planted_two_cluster(24, 3, rng));
  bench_graph("GNM(n=96)", graph::gen::with_random_weights(
                               graph::gen::random_connected(96, 320, rng), 6,
                               rng));
  bench_graph("cycle(64) cut=2", graph::gen::cycle(64));

  table.print(
      "Corollary 1.4 — (1+eps)-approximate min-cut: quality vs Stoer-Wagner "
      "and the poly(1/eps) cost growth (trials = tree-packing samples; ms is "
      "the median of 5 runs)");
  json.write("BENCH_mincut.json");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
