// Ablation AB3 (Appendix B / Lemma B.1): dropping the known-leader
// assumption costs only a logarithmic factor.
//
// The harness runs the same PA instances with leaders given (PaSolver) and
// with leaders unknown (Algorithm 9) and reports the multiplicative
// overhead in rounds and messages, together with the number of coarsening
// rounds (the log factor itself).
#include "bench/common.hpp"

namespace pw::bench {
namespace {

void run() {
  Rng rng(55);
  Table table({"graph", "n", "parts", "thr", "with-leader rnds",
               "no-leader rnds", "rnds x", "with-leader msgs",
               "no-leader msgs", "msgs x", "coarsenings", "wl ms", "nl ms"});
  JsonEmitter json("noleader_ablation_ab3");
  const int host_threads = detected_cores();

  auto bench_instance = [&](const Instance& inst) {
    for (const int threads : thread_sweep(inst.g.n())) {
      const sim::ExecutionPolicy policy{threads};
      std::vector<std::uint64_t> values(inst.g.n(), 1);

      // With-leader reference, split into the setup_ns/query_ns phases
      // measure_pa records for the table benches.
      sim::Engine eng1(inst.g, policy);
      core::PaSolverConfig cfg;
      cfg.seed = 67;
      core::PaSolver solver(eng1, cfg);
      const auto w0 = eng1.snap();
      const auto t0 = now_ns();
      solver.set_partition(inst.p);
      const auto setup_ns = now_ns() - t0;
      const auto t1 = now_ns();
      solver.aggregate(agg::sum(), values);
      const auto query_ns = now_ns() - t1;
      const auto with_leader = eng1.since(w0);

      sim::Engine eng2(inst.g, policy);
      graph::Partition no_leader_p = inst.p;
      no_leader_p.leader.clear();
      core::PaSolver solver2(eng2, cfg);
      const auto t2 = now_ns();
      const auto res =
          core::pa_noleader(solver2, no_leader_p, agg::sum(), values);
      const auto noleader_ns = now_ns() - t2;

      table.add_row(
          {inst.name, fm(static_cast<std::uint64_t>(inst.g.n())),
           fm(static_cast<std::uint64_t>(inst.p.num_parts)),
           fm(static_cast<std::uint64_t>(threads)),
           fm(with_leader.rounds), fm(res.stats.rounds),
           fd(static_cast<double>(res.stats.rounds) / with_leader.rounds),
           fm(with_leader.messages), fm(res.stats.messages),
           fd(static_cast<double>(res.stats.messages) / with_leader.messages),
           fm(static_cast<std::uint64_t>(res.coarsening_rounds)),
           fd(static_cast<double>(setup_ns + query_ns) * 1e-6, 3),
           fd(static_cast<double>(noleader_ns) * 1e-6, 3)});
      json.add_row(
          {{"graph", inst.name},
           {"n", inst.g.n()},
           {"parts", inst.p.num_parts},
           {"threads", threads},
           {"host_threads", host_threads},
           {"with_leader_rounds", with_leader.rounds},
           {"with_leader_messages", with_leader.messages},
           {"with_leader_setup_ns", setup_ns},
           {"with_leader_query_ns", query_ns},
           {"noleader_rounds", res.stats.rounds},
           {"noleader_messages", res.stats.messages},
           {"noleader_wall_ns", noleader_ns},
           {"ns_per_message",
            static_cast<double>(noleader_ns) /
                static_cast<double>(
                    std::max<std::uint64_t>(1, res.stats.messages))},
           {"rounds_overhead",
            static_cast<double>(res.stats.rounds) / with_leader.rounds},
           {"messages_overhead",
            static_cast<double>(res.stats.messages) / with_leader.messages},
           {"coarsenings", res.coarsening_rounds}});
    }
  };

  bench_instance(planar_instance(24));
  bench_instance(general_instance(768, rng));
  bench_instance(apex_instance(12, 96));

  table.print(
      "Ablation AB3 (Lemma B.1) — PA with vs without known leaders "
      "(Algorithm 9): overhead is the logarithmic coarsening factor");
  json.write("BENCH_noleader.json");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
