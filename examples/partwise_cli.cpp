// partwise_cli — run the library's algorithms on generated topologies from
// the command line and print round/message accounting.
//
//   partwise_cli <algorithm> <family> [n] [seed] [--threads K] [fault flags]
//
//   algorithm: pa | pa-noleader | mst | mincut | sssp | kdom | cds | arq
//   family:    gnm | grid | torus | apex | ktree | caterpillar | path
//   --threads: engine worker threads, 1..1024 (default: hardware
//              concurrency). The results and the round/message accounting
//              are identical at any thread count (DESIGN.md §7) — only the
//              wall clock moves.
//
// Fault-injection flags (DESIGN.md §9) arm the deterministic fault plane:
//   --fault-seed S   hash seed for the drop/delay/dup verdicts (default 1)
//   --drop P         per-message drop probability in [0, 1]
//   --delay P        per-message delay probability (arrives 1 round late)
//   --dup P          per-message duplication probability
//   --crash R:V      node V crashes at round R and never recovers
//   --crash A-B:V    node V is down for rounds [A, B), then reboots
// The same seed reproduces the same faults at any thread count. The paper's
// algorithms assume the reliable CONGEST model and will generally fail
// validation under loss — `arq` is the workload built to survive it.
//
// Examples:
//   ./partwise_cli pa grid 1024
//   ./partwise_cli mst apex 2048 7 --threads 4
//   ./partwise_cli mincut gnm 96
//   ./partwise_cli arq grid 1024 1 --drop 0.2 --fault-seed 42
//   ./partwise_cli arq gnm 256 1 --drop 0.1 --crash 3-40:17
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "src/apps/arq.hpp"
#include "src/apps/domination.hpp"
#include "src/apps/mincut.hpp"
#include "src/apps/mst.hpp"
#include "src/apps/sssp.hpp"
#include "src/core/noleader.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"

namespace {

using namespace pw;

graph::Graph make_graph(const std::string& family, int n, Rng& rng) {
  if (family == "gnm") return graph::gen::random_connected(n, 3 * n, rng);
  if (family == "grid") {
    int side = 2;
    while (side * side < n) ++side;
    return graph::gen::grid(side, side);
  }
  if (family == "torus") {
    int side = 3;
    while (side * side < n) ++side;
    return graph::gen::torus(side, side);
  }
  if (family == "apex") return graph::gen::apex_grid(8, std::max(1, n / 8));
  if (family == "ktree") return graph::gen::k_tree(n, 3, rng);
  if (family == "caterpillar")
    return graph::gen::caterpillar(std::max(1, n / 4), 3);
  if (family == "path") return graph::gen::path(n);
  std::fprintf(stderr, "unknown family '%s'\n", family.c_str());
  std::exit(2);
}

void report(const char* what, const sim::PhaseStats& st, const graph::Graph& g) {
  std::printf("%-12s %10llu rounds  %12llu messages  (%.2f msgs/edge)\n", what,
              static_cast<unsigned long long>(st.rounds),
              static_cast<unsigned long long>(st.messages),
              static_cast<double>(st.messages) / std::max(1, g.num_arcs()));
}

void report_faults(const sim::Engine& eng) {
  if (!eng.faulty()) return;
  const sim::FaultStats fs = eng.fault_stats();
  std::printf(
      "faults: dropped %llu delayed %llu duplicated %llu shed-crashed %llu "
      "wakes-suppressed %llu\n",
      static_cast<unsigned long long>(fs.messages_dropped),
      static_cast<unsigned long long>(fs.messages_delayed),
      static_cast<unsigned long long>(fs.messages_duplicated),
      static_cast<unsigned long long>(fs.messages_shed_crashed),
      static_cast<unsigned long long>(fs.wakes_suppressed));
}

// "R:V" (down at R forever) or "A-B:V" (down for rounds [A, B)).
bool parse_crash(const char* s, sim::CrashSpan* out) {
  char* end = nullptr;
  out->from = std::strtoull(s, &end, 10);
  out->until = sim::CrashSpan::kNever;
  if (*end == '-') {
    out->until = std::strtoull(end + 1, &end, 10);
    if (out->until <= out->from) return false;
  }
  if (*end != ':') return false;
  out->node = std::atoi(end + 1);
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Pull "--flag V" / "--flag=V" options out of argv; the rest stay
  // positional. A trailing flag with no value is an error, not a positional.
  int threads = sim::ExecutionPolicy::hardware().num_threads;
  sim::TransportKind transport = sim::TransportKind::kInProc;
  sim::FaultPolicy faults;
  bool bad_flag = false;
  std::vector<const char*> pos;
  for (int i = 1; i < argc && !bad_flag; ++i) {
    const char* val = nullptr;
    const auto match = [&](const char* name) {
      const std::size_t len = std::strlen(name);
      if (std::strcmp(argv[i], name) == 0) {
        if (i + 1 >= argc) {
          bad_flag = true;
          return false;
        }
        val = argv[++i];
        return true;
      }
      if (std::strncmp(argv[i], name, len) == 0 && argv[i][len] == '=') {
        val = argv[i] + len + 1;
        return true;
      }
      return false;
    };
    if (match("--threads")) {
      threads = std::atoi(val);
    } else if (match("--transport")) {
      if (std::strcmp(val, "shm") == 0)
        transport = sim::TransportKind::kShmRing;
      else if (std::strcmp(val, "inproc") == 0)
        transport = sim::TransportKind::kInProc;
      else
        bad_flag = true;
    } else if (match("--fault-seed")) {
      faults.seed = std::strtoull(val, nullptr, 0);
    } else if (match("--drop")) {
      faults.drop_prob = std::atof(val);
    } else if (match("--delay")) {
      faults.delay_prob = std::atof(val);
    } else if (match("--dup")) {
      faults.dup_prob = std::atof(val);
    } else if (match("--crash")) {
      sim::CrashSpan span;
      if (parse_crash(val, &span))
        faults.crashes.push_back(span);
      else
        bad_flag = true;
    } else if (std::strncmp(argv[i], "--", 2) == 0) {
      bad_flag = true;
    } else {
      pos.push_back(argv[i]);
    }
  }
  if (bad_flag || pos.size() < 2 || threads < 1 ||
      threads > sim::ExecutionPolicy::kMaxThreads) {
    std::fprintf(stderr,
                 "usage: %s <pa|pa-noleader|mst|mincut|sssp|kdom|cds|arq> "
                 "<gnm|grid|torus|apex|ktree|caterpillar|path> [n=512] "
                 "[seed=1] [--threads K] [--transport inproc|shm] "
                 "[--fault-seed S] [--drop P] "
                 "[--delay P] [--dup P] [--crash R:V | --crash A-B:V]\n",
                 argv[0]);
    return 2;
  }
  const std::string algorithm = pos[0];
  const std::string family = pos[1];
  const int n = pos.size() > 2 ? std::atoi(pos[2]) : 512;
  const std::uint64_t seed =
      pos.size() > 3 ? std::strtoull(pos[3], nullptr, 10) : 1;
  sim::ExecutionPolicy policy{threads};
  policy.transport = transport;

  Rng rng(seed);
  graph::Graph g = make_graph(family, n, rng);
  std::printf("graph: %s  n=%d m=%d D~%d  threads=%d transport=%s\n",
              family.c_str(), g.n(), g.m(), graph::diameter_estimate(g),
              threads,
              transport == sim::TransportKind::kShmRing ? "shm" : "inproc");

  core::PaSolverConfig cfg;
  cfg.seed = seed;

  if (algorithm == "pa" || algorithm == "pa-noleader") {
    graph::Partition p =
        graph::random_bfs_partition(g, std::max(2, g.n() / 20), rng);
    std::vector<std::uint64_t> values(g.n(), 1);
    sim::Engine eng(g, policy, faults);
    if (algorithm == "pa") {
      p.elect_min_id_leaders();
      core::PaSolver solver(eng, cfg);
      const auto s0 = eng.snap();
      solver.set_partition(p);
      report("setup", eng.since(s0), g);
      const auto res = solver.aggregate(agg::sum(), values);
      report("query", res.stats, g);
      std::printf("parts: %d, first part size: %llu\n", p.num_parts,
                  static_cast<unsigned long long>(res.part_value[0]));
    } else {
      p.leader.clear();
      const auto res = core::pa_noleader(eng, p, agg::sum(), values, cfg);
      report("total", res.stats, g);
      std::printf("parts: %d, coarsening rounds: %d\n", p.num_parts,
                  res.coarsening_rounds);
    }
    report_faults(eng);
  } else if (algorithm == "mst") {
    graph::Graph wg = graph::gen::with_random_weights(g, 1000, rng);
    sim::Engine eng(wg, policy, faults);
    const auto res = apps::boruvka_mst(eng, cfg);
    apps::validate_spanning_tree(wg, res.in_mst);
    report("mst", res.stats, wg);
    std::printf("weight: %lld (= Kruskal: %s), %d phases\n",
                static_cast<long long>(res.total_weight),
                res.total_weight == apps::kruskal_mst_weight(wg) ? "yes" : "NO",
                res.phases);
    report_faults(eng);
  } else if (algorithm == "mincut") {
    graph::Graph wg = graph::gen::with_random_weights(g, 16, rng);
    sim::Engine eng(wg, policy, faults);
    const auto res = apps::approx_min_cut(eng, 0.5, cfg);
    report("mincut", res.stats, wg);
    std::printf("cut found: %lld over %d trials\n",
                static_cast<long long>(res.cut_value), res.trials);
    report_faults(eng);
  } else if (algorithm == "sssp") {
    graph::Graph wg = graph::gen::with_random_weights(g, 32, rng);
    sim::Engine eng(wg, policy, faults);
    const auto res = apps::approx_sssp(eng, 0, 0.25, cfg);
    const auto exact = graph::dijkstra(wg, 0);
    const auto s = apps::measure_stretch(exact, res.dist);
    report("sssp", res.stats, wg);
    std::printf("stretch: max %.2f mean %.2f over %d scales\n", s.max_stretch,
                s.mean_stretch, res.scales);
    report_faults(eng);
  } else if (algorithm == "kdom") {
    const int k = std::max(2, graph::diameter_estimate(g) / 2);
    sim::Engine eng(g, policy, faults);
    const auto res = apps::k_dominating_set(eng, k, cfg);
    apps::validate_k_domination(g, res.dominators, k);
    report("kdom", res.stats, g);
    std::printf("k=%d dominators=%zu (bound %d)\n", k, res.dominators.size(),
                6 * g.n() / k + 1);
    report_faults(eng);
  } else if (algorithm == "cds") {
    sim::Engine eng(g, policy, faults);
    const auto res = apps::connected_dominating_set(eng, cfg);
    apps::validate_cds(g, res.in_cds);
    report("cds", res.stats, g);
    std::printf("CDS size: %d of %d nodes\n", res.size, g.n());
    report_faults(eng);
  } else if (algorithm == "arq") {
    sim::Engine eng(g, policy, faults);
    const auto res = apps::arq_flood(eng, 0, seed | 1);
    report("arq", res.stats, g);
    if (res.completed) apps::validate_arq(g, res, seed | 1);
    int informed = 0;
    for (const auto t : res.token)
      if (t != apps::ArqResult::kNoToken) ++informed;
    std::printf(
        "completed: %s  informed: %d/%d  data sends: %llu  "
        "retransmissions: %llu\n",
        res.completed ? "yes" : "NO", informed, g.n(),
        static_cast<unsigned long long>(res.data_sends),
        static_cast<unsigned long long>(res.retransmissions));
    report_faults(eng);
  } else {
    std::fprintf(stderr, "unknown algorithm '%s'\n", algorithm.c_str());
    return 2;
  }
  return 0;
}
