// The two workloads. Each one generates its inputs from the seed alone,
// repeats its set-up, then times solves until the run's seconds are spent,
// checking every solve's output against an oracle outside the timed call.
// Traced runs add the per-layer replays and probes.
#include <cmath>
#include <memory>
#include <numeric>

#include "bench.hpp"
#include "bench/workloads.hpp"
#include "src/apps/mst.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/partition.hpp"
#include "src/graph/properties.hpp"
#include "src/shortcut/shortcut.hpp"
#include "src/shortcut/subpart.hpp"
#include "src/tree/bfs.hpp"
#include "src/tree/leader.hpp"

namespace pb {

namespace {

using pw::Rng;
namespace agg = pw::agg;
namespace apps = pw::apps;
namespace core = pw::core;
namespace graph = pw::graph;

sim::ExecutionPolicy threads(int k) {
  sim::ExecutionPolicy p;
  p.num_threads = k;
  return p;
}

// Seeds of the workload's independent instances, all drawn from the run's
// seed, so one seed names the same inputs in every run.
std::vector<std::uint64_t> instance_seeds(std::uint64_t seed, int k) {
  Rng rng(seed);
  std::vector<std::uint64_t> out(static_cast<std::size_t>(k));
  for (auto& s : out) s = rng.next_u64();
  return out;
}

// Sets up every instance `repeats` times. One instance set-up is gen(i)
// (inputs from the instance seed), the Engine constructor ctor(i), then
// rest(i); reset(i) first releases the previous set-up of instance i,
// outside the timed region. Records each set-up's wall time and the
// graph.gen / sim.engine_ctor medians.
void repeat_setup(Run& run, WorkloadOut& w, int repeats,
                  const std::function<void(int)>& reset,
                  const std::function<void(int)>& gen,
                  const std::function<void(int)>& ctor,
                  const std::function<void(int)>& rest = [](int) {}) {
  std::vector<double> gen_s, ctor_s, ctor_flt;
  for (int r = 0; r < repeats; ++r)
    for (int i = 0; i < w.instances; ++i) {
      reset(i);
      const Meas s = run.measure("setup", [&] {
        gen_s.push_back(run.measure("graph.gen", [&] { gen(i); }).wall);
        const Meas c = run.measure("sim.engine_ctor", [&] { ctor(i); });
        ctor_s.push_back(c.wall);
        ctor_flt.push_back(static_cast<double>(c.minflt));
        rest(i);
      });
      w.setup_s.push_back(s.wall);
    }
  w.layer["graph.gen_s"] = median(gen_s);
  w.layer["sim.engine_ctor_s"] = median(ctor_s);
  w.layer["sim.engine_ctor_minflt"] = median(ctor_flt);
}

// Records an instance's graph in the pass totals the end-to-end ratios use.
void add_graph(WorkloadOut& w, const graph::Graph& g) {
  const int d = graph::diameter_estimate(g);
  w.n = g.n();
  w.m += g.m();
  w.bound += d + std::sqrt(static_cast<double>(g.n()));
  w.diameters.push_back(d);
}

void put_stats(WorkloadOut& w, const std::string& prefix, std::uint64_t rounds,
               std::uint64_t messages) {
  w.layer[prefix + "_rounds"] = static_cast<double>(rounds);
  w.layer[prefix + "_messages"] = static_cast<double>(messages);
}

// Replays PaSolver's per-graph tree (leader election, BFS tree) and its
// randomized sub-part division with the solver's own seed, `reps` times,
// and reports whether every replay did exactly the work structures() says
// the solver did. Fills tree.* and shortcut.division_*.
bool replay_tree_and_division(Run& run, sim::Engine& eng,
                              const core::PaSolverConfig& cfg,
                              const graph::Partition& part,
                              const core::PaStructures& st, WorkloadOut& w,
                              int reps) {
  bool ok = true;
  std::vector<double> leader_s, bfs_s, div_s;
  for (int i = 0; i < reps; ++i) {
    Rng rng(cfg.seed);
    pw::tree::LeaderResult lr;
    pw::tree::SpanningForest t;
    pw::shortcut::SubPartDivision div;
    const Meas ml = run.measure(
        "tree.leader", [&] { lr = pw::tree::elect_leader_random(eng, rng); }, &eng);
    const Meas mb = run.measure(
        "tree.bfs", [&] { t = pw::tree::build_bfs_tree(eng, lr.leader); }, &eng);
    const Meas md = run.measure(
        "shortcut.division",
        [&] {
          div = pw::shortcut::build_subpart_division_random(
              eng, part, std::max(1, t.height()), rng);
        },
        &eng);
    ok = ok && ml.rounds + mb.rounds == st.tree_stats.rounds &&
         ml.messages + mb.messages == st.tree_stats.messages &&
         md.rounds == st.division_stats.rounds &&
         md.messages == st.division_stats.messages &&
         div.num_subparts == st.div.num_subparts;
    leader_s.push_back(ml.wall);
    bfs_s.push_back(mb.wall);
    div_s.push_back(md.wall);
    put_stats(w, "tree.leader", ml.rounds, ml.messages);
    put_stats(w, "tree.bfs", mb.rounds, mb.messages);
    put_stats(w, "shortcut.division", md.rounds, md.messages);
  }
  w.layer["tree.leader_s"] = median(leader_s);
  w.layer["tree.bfs_s"] = median(bfs_s);
  w.layer["shortcut.division_s"] = median(div_s);
  if (!ok)
    std::fprintf(stderr,
                 "perfbench: tree/division replay differs from "
                 "PaSolver::structures()\n");
  return ok;
}

// core.* from one installed partition. Call after replay_tree_and_division:
// the shortcut's self time is set_partition minus the replayed tree and
// division.
void core_layers(WorkloadOut& w, const core::PaStructures& st,
                 double set_partition_s) {
  w.layer["core.set_partition_s"] = set_partition_s;
  w.layer["core.shortcut_self_s"] = set_partition_s - w.layer["tree.leader_s"] -
                                    w.layer["tree.bfs_s"] -
                                    w.layer["shortcut.division_s"];
  put_stats(w, "core.shortcut", st.shortcut_stats.rounds,
            st.shortcut_stats.messages);
  w.layer["core.final_guess"] = st.final_guess;
  w.layer["core.congestion"] = pw::shortcut::congestion(st.sc);
  w.layer["shortcut.subparts"] = st.div.num_subparts;
}

void aggregate_layers(WorkloadOut& w, double aggregate_s, std::uint64_t rounds,
                      std::uint64_t messages) {
  w.layer["core.aggregate_s"] = aggregate_s;
  put_stats(w, "core.aggregate", rounds, messages);
  w.layer["core.aggregate_ns_per_msg"] =
      aggregate_s * 1e9 / static_cast<double>(messages);
}

void mark_na(WorkloadOut& w, const std::string& prefix) {
  for (const auto& [name, unit] : per_layer_metrics())
    if (name.rfind(prefix, 0) == 0) w.na.push_back(name);
}

}  // namespace

// ---------------------------------------------------------------------------
// mst_gnm: Borůvka MST (Corollary 1.3) over PA on weighted G(n, 3n) graphs.
// ---------------------------------------------------------------------------

WorkloadOut run_mst_gnm(Run& run) {
  constexpr int kInstances = 4;
  constexpr int kSetupRepeats = 25;
  constexpr int kN = 4096;
  constexpr graph::Weight kMaxWeight = 1 << 20;
  struct Inst {
    std::unique_ptr<graph::Graph> g;
    std::unique_ptr<sim::Engine> eng;
    std::int64_t mst_weight = 0;
  };
  // The library's default solver configuration: the seed varies the inputs
  // only, never the algorithm's own randomness.
  const core::PaSolverConfig cfg;
  WorkloadOut w;
  w.instances = kInstances;
  // Sequential engine: a solve closes about 35K rounds of about 730
  // messages each, and at 2 threads every close waits on the other thread,
  // so a run's median followed the shared host's scheduling (run-to-run
  // spread about 0.3 at 2 threads, below 0.1 at 1 thread).
  w.threads = 1;
  const auto seeds = instance_seeds(run.opt().seed, kInstances);
  std::vector<Inst> in(kInstances);
  repeat_setup(
      run, w, kSetupRepeats,
      [&](int i) {
        in[i].eng.reset();  // before the graph it points to
        in[i] = Inst{};
      },
      [&](int i) {
        Rng rng(seeds[i]);
        const auto g0 = graph::gen::random_connected(kN, 3 * kN, rng);
        in[i].g = std::make_unique<graph::Graph>(
            graph::gen::with_random_weights(g0, kMaxWeight, rng));
      },
      [&](int i) {
        in[i].eng = std::make_unique<sim::Engine>(*in[i].g, threads(w.threads));
      });
  for (auto& x : in) {
    add_graph(w, *x.g);
    x.mst_weight = apps::kruskal_mst_weight(*x.g);
  }

  std::vector<apps::MstResult> last(kInstances);
  w.samples = collect(run, 3, [&](bool traced) {
    Sample s{.traced = traced};
    for (int i = 0; i < kInstances; ++i) {
      apps::MstResult res;
      const Meas m = run.measure(
          "apps.boruvka_mst", traced,
          [&] { res = apps::boruvka_mst(*in[i].eng, cfg); }, in[i].eng.get());
      s.add(m, res.total_weight == in[i].mst_weight &&
                   spanning_tree_ok(*in[i].g, res.in_mst));
      last[i] = std::move(res);
    }
    return s;
  });
  if (!run.tracing()) return w;

  sim::PhaseStats select, total;
  int phases = 0;
  for (const auto& r : last) {
    select += r.select_stats;
    total += r.stats;
    phases += r.phases;
  }
  w.layer["apps.mst_phases"] = phases;
  put_stats(w, "apps.select", select.rounds, select.messages);
  put_stats(w, "apps.rebuild", total.rounds - select.rounds,
            total.messages - select.messages);

  // Replay of Borůvka's phase 0 on instance 0 with the solve's own solver
  // seed: the first set_partition (singleton fragments, min-id leaders) and
  // the first min-outgoing-edge aggregate, which every later phase repeats
  // on coarser fragments.
  const graph::Graph& g = *in[0].g;
  sim::Engine& eng = *in[0].eng;
  graph::Partition p0 = graph::Partition::from_labels([&] {
    std::vector<int> id(static_cast<std::size_t>(g.n()));
    std::iota(id.begin(), id.end(), 0);
    return id;
  }());
  p0.elect_min_id_leaders();
  std::vector<std::uint64_t> lightest(static_cast<std::size_t>(g.n()), agg::kU64Max);
  for (int v = 0; v < g.n(); ++v)
    for (const auto& arc : g.arcs(v))
      lightest[static_cast<std::size_t>(v)] = std::min(
          lightest[static_cast<std::size_t>(v)],
          (static_cast<std::uint64_t>(g.edge(arc.edge).w) << 32) |
              static_cast<std::uint32_t>(arc.edge));
  std::vector<double> sp_s, agg_s;
  std::unique_ptr<core::PaSolver> solver;
  Meas ma;
  for (int rep = 0; rep < 3; ++rep) {
    solver = std::make_unique<core::PaSolver>(eng, cfg);
    sp_s.push_back(
        run.measure("core.set_partition", [&] { solver->set_partition(p0); }).wall);
    core::PaRunResult r;
    ma = run.measure(
        "core.aggregate", [&] { r = solver->aggregate(agg::min(), lightest); },
        &eng);
    agg_s.push_back(ma.wall);
    w.replay_ok = w.replay_ok && pa_fold_ok(p0.part_of, p0.num_parts, lightest,
                                            agg::min(), r.part_value,
                                            r.node_value);
  }
  w.replay_ok = replay_tree_and_division(run, eng, cfg, p0,
                                         solver->structures(), w, 3) &&
                w.replay_ok;
  core_layers(w, solver->structures(), median(sp_s));
  aggregate_layers(w, median(agg_s), ma.rounds, ma.messages);
  add_sim_layers(run, eng, w);
  return w;
}

// ---------------------------------------------------------------------------
// flood_gnm: batches of single-source floods on large G(n, 3n) graphs.
// ---------------------------------------------------------------------------

WorkloadOut run_flood_gnm(Run& run) {
  constexpr int kInstances = 4;
  constexpr int kSetupRepeats = 2;
  constexpr int kN = 131072;
  constexpr int kFloodsPerInstance = 5;
  struct Inst {
    std::unique_ptr<graph::Graph> g;
    std::unique_ptr<sim::Engine> eng;
    int ecc = 0;
  };
  WorkloadOut w;
  w.instances = kInstances;
  w.threads = 2;
  const auto seeds = instance_seeds(run.opt().seed, kInstances);
  std::vector<Inst> in(kInstances);
  std::vector<char> seen(static_cast<std::size_t>(kN));
  repeat_setup(
      run, w, kSetupRepeats,
      [&](int i) {
        in[i].eng.reset();  // before the graph it points to
        in[i] = Inst{};
      },
      [&](int i) {
        Rng rng(seeds[i]);
        in[i].g = std::make_unique<graph::Graph>(
            graph::gen::random_connected(kN, 3 * kN, rng));
      },
      [&](int i) {
        in[i].eng = std::make_unique<sim::Engine>(*in[i].g, threads(w.threads));
      },
      [&](int i) {
        run.measure("sim.warmup_flood",
                    [&] { pw::bench::flood_workload(*in[i].eng, seen); });
      });
  for (auto& x : in) {
    add_graph(w, *x.g);
    x.ecc = graph::eccentricity(*x.g, 0);
  }

  // A sample is the summed time of kFloodsPerInstance floods on every
  // instance; each flood's oracle check runs between the timed floods.
  w.samples = collect(run, 5, [&](bool traced) {
    Sample s{.traced = traced};
    for (auto& x : in)
      for (int k = 0; k < kFloodsPerInstance; ++k) {
        const Meas m = run.measure(
            "sim.flood", traced, [&] { pw::bench::flood_workload(*x.eng, seen); },
            x.eng.get());
        s.add(m, flood_ok(seen, m.rounds, m.messages, x.g->m(), x.ecc));
      }
    return s;
  });
  if (!run.tracing()) return w;

  for (const char* layer : {"tree.", "shortcut.", "core.", "apps."}) mark_na(w, layer);
  add_sim_layers(run, *in[0].eng, w);
  return w;
}

}  // namespace pb
