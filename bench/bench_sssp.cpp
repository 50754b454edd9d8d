// Corollary 1.5: approximate SSSP in Õ((bD + c)/beta) rounds and Õ(m/beta)
// messages with approximation L^{O(log log n)/log(1/beta)}.
//
// The beta knob trades cost for stretch: the harness sweeps beta and
// reports measured stretch against Dijkstra together with rounds/messages.
// The corollary's shape: smaller beta => more rounds and messages (the
// 1/beta factor) and tighter stretch. BENCH_sssp.json carries one row per
// (graph, beta); its counts and stretches are compared exactly against the
// committed baseline, its times are report-only.
#include "bench/common.hpp"

#include "src/apps/sssp.hpp"

namespace pw::bench {
namespace {

void run() {
  Rng rng(47);
  Table table({"graph", "beta", "scales", "max stretch", "mean stretch",
               "relax rnds", "relax msgs", "total rnds", "total msgs"});
  JsonEmitter json("sssp_corollary_1_5");

  auto bench_graph = [&](const std::string& name, const graph::Graph& g,
                         int source) {
    const auto exact = graph::dijkstra(g, source);
    for (double beta : {0.5, 0.25, 0.1}) {
      sim::Engine eng(g);
      core::PaSolverConfig cfg;
      cfg.seed = 41;
      const auto t0 = now_ns();
      const auto res = apps::approx_sssp(eng, source, beta, cfg);
      const auto wall_ns = now_ns() - t0;
      const auto s = apps::measure_stretch(exact, res.dist);
      table.add_row({name, fd(beta), fm(static_cast<std::uint64_t>(res.scales)),
                     fd(s.max_stretch), fd(s.mean_stretch),
                     fm(res.relax_stats.rounds), fm(res.relax_stats.messages),
                     fm(res.stats.rounds), fm(res.stats.messages)});
      json.add_row({{"graph", name},
                    {"beta", beta},
                    {"scales", res.scales},
                    {"max_stretch", s.max_stretch},
                    {"mean_stretch", s.mean_stretch},
                    {"relax_rounds", res.relax_stats.rounds},
                    {"relax_messages", res.relax_stats.messages},
                    {"rounds", res.stats.rounds},
                    {"messages", res.stats.messages},
                    {"wall_ns", wall_ns},
                    {"ns_per_message",
                     static_cast<double>(wall_ns) /
                         static_cast<double>(std::max<std::uint64_t>(
                             1, res.stats.messages))}});
    }
  };

  // High-hop-count shortest paths are where the approximation bites: a long
  // weighted path (hop diameter ~ n) and a moderate grid.
  bench_graph("path(n=512,w<=4)",
              graph::gen::with_random_weights(graph::gen::path(512), 4, rng),
              0);
  bench_graph("grid(16x16,w<=20)",
              graph::gen::with_random_weights(graph::gen::grid(16, 16), 20, rng),
              0);
  bench_graph("GNM(n=256,w<=50)",
              graph::gen::with_random_weights(
                  graph::gen::random_connected(256, 640, rng), 50, rng),
              0);

  table.print(
      "Corollary 1.5 — approximate SSSP: smaller beta buys stretch (the "
      "approximation column) at the 1/beta relaxation cost (relax columns); "
      "totals include the per-scale PA component machinery, which dominates "
      "at laptop scale (see EXPERIMENTS.md)");
  json.write("BENCH_sssp.json");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
