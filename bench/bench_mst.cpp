// Corollary 1.3: MST in Õ(bD + c) rounds and Õ(m) messages, and the
// trade-off it resolves — prior algorithms were either message-optimal but
// round-suboptimal (aggregating inside parts only) or round-friendly but
// message-hungry (every node talks to the shortcut / global tree).
//
// On the apex-grid family (small D, long parts) the harness reports rounds
// and messages of Borůvka-over-PA under the three strategies, plus weight
// correctness against Kruskal. The paper's shape: ours is simultaneously
// close to the best of both columns.
#include "bench/common.hpp"

#include "src/apps/mst.hpp"

namespace pw::bench {
namespace {

void run() {
  Rng rng(45);
  Table table({"graph", "n", "strategy", "thr", "total rnds", "total msgs",
               "select rnds", "select msgs", "msgs/m", "phases", "ms",
               "weight ok"});
  JsonEmitter json("mst_corollary_1_3");
  const int host_threads = detected_cores();

  auto bench_graph = [&](const std::string& name, const graph::Graph& g) {
    const std::int64_t ref = apps::kruskal_mst_weight(g);
    // Rounds/messages are policy-invariant (DESIGN.md §7; pinned by
    // tests/apps_parallel_test.cpp), so the thread sweep only moves the
    // wall-clock columns; every row still re-checks the weight oracle.
    auto report = [&](const char* strategy, int threads,
                      const apps::MstResult& res, std::uint64_t wall_ns) {
      table.add_row({name, fm(static_cast<std::uint64_t>(g.n())), strategy,
                     fm(static_cast<std::uint64_t>(threads)),
                     fm(res.stats.rounds), fm(res.stats.messages),
                     fm(res.select_stats.rounds), fm(res.select_stats.messages),
                     fd(static_cast<double>(res.stats.messages) / g.num_arcs()),
                     fm(static_cast<std::uint64_t>(res.phases)),
                     fd(static_cast<double>(wall_ns) * 1e-6, 3),
                     res.total_weight == ref ? "yes" : "NO"});
      json.add_row(
          {{"graph", name},
           {"n", g.n()},
           {"strategy", strategy},
           {"threads", threads},
           {"host_threads", host_threads},
           {"rounds", res.stats.rounds},
           {"messages", res.stats.messages},
           {"select_rounds", res.select_stats.rounds},
           {"select_messages", res.select_stats.messages},
           {"phases", res.phases},
           {"reps", kAppReps},
           {"wall_ns", wall_ns},
           {"ns_per_message",
            static_cast<double>(wall_ns) /
                static_cast<double>(std::max<std::uint64_t>(
                    1, res.stats.messages))},
           {"weight_ok", res.total_weight == ref ? "yes" : "NO"}});
    };
    struct Strat {
      const char* name;
      core::PaStrategy s;
    };
    for (const int threads : thread_sweep(g.n())) {
      const sim::ExecutionPolicy policy{threads};
      for (const auto strat :
           {Strat{"ours", core::PaStrategy::Ours},
            Strat{"no-subparts", core::PaStrategy::NoSubparts}}) {
        const auto [res, wall_ns] = median_of_reps([&] {
          sim::Engine eng(g, policy);
          core::PaSolverConfig cfg;
          cfg.strategy = strat.s;
          cfg.seed = 31;
          const auto t0 = now_ns();
          auto r = apps::boruvka_mst(eng, cfg);
          return std::pair{std::move(r), now_ns() - t0};
        });
        report(strat.name, threads, res, wall_ns);
      }
      const auto [res, wall_ns] = median_of_reps([&] {
        sim::Engine eng(g, policy);
        const auto t0 = now_ns();
        auto r = apps::ghs_style_mst(eng);
        return std::pair{std::move(r), now_ns() - t0};
      });
      report("ghs-style", threads, res, wall_ns);
    }
  };

  // The shape-separating instance: a light path (its edges form the MST, so
  // Boruvka fragments become long path segments) plus an apex joined to
  // every 16th node by heavy edges (keeping D ~ 18 while fragments reach
  // diameter ~n). Min-edge selection without shortcuts pays the fragment
  // diameter per phase; with shortcuts it pays Õ(D).
  {
    const int len = 3072, spoke = 16;
    std::vector<graph::Edge> edges;
    for (int i = 0; i + 1 < len; ++i)
      edges.push_back({i, i + 1, 1 + static_cast<graph::Weight>(i % 9)});
    for (int i = 0; i < len; i += spoke)
      edges.push_back({len, i, 1000000});
    bench_graph("apex_path(n=3072)",
                graph::Graph::from_edges(len + 1, std::move(edges)));
  }
  bench_graph("apex_grid(6x512)", graph::gen::with_random_weights(
                                      graph::gen::apex_grid(6, 512), 1000, rng));
  bench_graph("GNM(n=1024)", graph::gen::with_random_weights(
                                 graph::gen::random_connected(1024, 3072, rng),
                                 1000, rng));
  bench_graph("grid(24x24)", graph::gen::with_random_weights(
                                 graph::gen::grid(24, 24), 1000, rng));

  table.print(
      "Corollary 1.3 — Boruvka-over-PA vs the round-suboptimal ghs-style "
      "baseline (fragment-tree-only coordination, Õ(m) messages, Θ(n)-round "
      "phases) and the message-suboptimal no-subparts strategy. 'select' "
      "columns isolate the min-outgoing-edge coordination per run; totals "
      "include per-phase structure (re)construction; ms is the median of 5 "
      "runs");
  json.write("BENCH_mst.json");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
