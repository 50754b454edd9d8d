// Chaos bench (DESIGN.md §9): what network faults cost a protocol that
// survives them.
//
// The harness runs the ARQ reliable flood (src/apps/arq.hpp) over a
// drop-probability × thread-count sweep and reports the degradation curve:
// rounds and retransmissions as a function of loss, with drop_prob = 0 as
// the fault-free baseline (where the flood provably never retransmits).
// Every row re-validates completion — a lossy network may slow the protocol
// down, never break it — and the accounting columns are thread-count
// invariant (same seed -> same faults -> same trace, §9), so only wall_ns
// moves across the thread sweep.
#include "bench/common.hpp"
#include "src/apps/arq.hpp"

namespace pw::bench {
namespace {

constexpr std::uint64_t kToken = 0x70ce;

void run() {
  Rng rng(91);
  Table table({"graph", "n", "drop", "thr", "rounds", "msgs", "data sends",
               "retransmits", "dropped", "ms"});
  JsonEmitter json("fault_degradation");
  const int host_threads = detected_cores();

  const double drops[] = {0.0, 0.05, 0.2};
  auto bench_instance = [&](const Instance& inst) {
    for (const double drop : drops) {
      for (const int threads : thread_sweep(inst.g.n())) {
        sim::FaultPolicy faults;
        faults.seed = 1913;
        faults.drop_prob = drop;
        const sim::ExecutionPolicy policy{threads};
        sim::Engine eng(inst.g, policy, faults);
        const auto t0 = now_ns();
        const auto res = apps::arq_flood(eng, 0, kToken);
        const auto wall_ns = now_ns() - t0;
        apps::validate_arq(inst.g, res, kToken);
        const sim::FaultStats fs = eng.fault_stats();

        table.add_row({inst.name, fm(static_cast<std::uint64_t>(inst.g.n())),
                       fd(drop), fm(static_cast<std::uint64_t>(threads)),
                       fm(res.stats.rounds), fm(res.stats.messages),
                       fm(res.data_sends), fm(res.retransmissions),
                       fm(fs.messages_dropped),
                       fd(static_cast<double>(wall_ns) * 1e-6, 3)});
        json.add_row(
            {{"workload", "arq_flood"},
             {"graph", inst.name},
             {"n", inst.g.n()},
             {"drop_prob", drop},
             {"threads", threads},
             {"host_threads", host_threads},
             {"completed", res.completed ? 1 : 0},
             {"rounds", res.stats.rounds},
             {"messages", res.stats.messages},
             {"data_sends", res.data_sends},
             {"retransmissions", res.retransmissions},
             {"messages_dropped", fs.messages_dropped},
             {"wall_ns", wall_ns},
             {"ns_per_message",
              static_cast<double>(wall_ns) /
                  static_cast<double>(
                      std::max<std::uint64_t>(1, res.stats.messages))}});
      }
    }
  };

  bench_instance(general_instance(768, rng));
  bench_instance(planar_instance(24));

  table.print(
      "Chaos degradation (§9) — ARQ reliable flood under the deterministic "
      "fault plane: loss buys retransmissions and rounds, never wrong "
      "answers");
  json.write("BENCH_fault.json");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
