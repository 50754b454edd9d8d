// Ablation AB2 (Section 4.2): random part delays vs deterministic
// Lemma-4.2 scheduling inside Algorithm 1.
//
// Both variants run on identical structures; the deterministic scheduler
// resolves edge contention by block-root depth while the randomized one
// spreads part start times uniformly over [c]. The harness reports query
// rounds for both and a sweep of the randomized delay range (0 = no delay,
// showing the contention the delays exist to dissolve).
#include "bench/common.hpp"

#include "src/core/pa_given.hpp"

namespace pw::bench {
namespace {

void run() {
  Rng rng(54);
  Table table({"graph", "mode", "delay range", "query rounds", "query msgs"});

  auto bench_instance = [&](const Instance& inst) {
    sim::Engine eng(inst.g);
    core::PaSolverConfig cfg;
    cfg.seed = 59;
    core::PaSolver solver(eng, cfg);
    solver.set_partition(inst.p);
    const auto& st = solver.structures();
    const int c = std::max(1, shortcut::congestion(st.sc));

    std::vector<std::uint64_t> values(inst.g.n(), 1);
    auto run_once = [&](core::PaMode mode, int delay_range) {
      core::PaGivenConfig pc;
      pc.mode = mode;
      pc.delay_range = delay_range;
      pc.seed = 61;
      const auto snap = eng.snap();
      const auto res =
          core::pa_given(eng, solver.partition(), st.div, st.labels, st.sc,
                         st.t, agg::sum(), values, pc);
      PW_CHECK(res.all_covered());
      return eng.since(snap);
    };

    {
      const auto det = run_once(core::PaMode::Deterministic, 0);
      table.add_row({inst.name, "det (Lemma 4.2 priorities)", "-",
                     fm(det.rounds), fm(det.messages)});
    }
    for (int range : {1, c / 2 + 1, c, 2 * c}) {
      const auto r = run_once(core::PaMode::Randomized, range);
      table.add_row({inst.name, "rand", fm(static_cast<std::uint64_t>(range)),
                     fm(r.rounds), fm(r.messages)});
    }
  };

  bench_instance(apex_instance(16, 128));
  bench_instance(general_instance(1024, rng));

  table.print(
      "Ablation AB2 — contention resolution inside Algorithm 1: "
      "deterministic tie-breaking vs random start delays (range sweep; "
      "range=c is the paper's choice)");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
