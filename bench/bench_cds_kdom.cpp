// Corollaries A.2 and A.3: connected dominating sets and k-dominating sets.
//
// k-dominating set (A.3): size <= 6n/k with every node within k hops of a
// dominator, in Õ(D + sqrt(n)) rounds — including k far beyond D or
// sqrt(n), the regime the corollary highlights. The harness sweeps k and
// reports set size against the 6n/k bound plus the actual max distance.
//
// CDS (A.2): the BFS-internal-nodes CDS and its size ratio against the
// centralized greedy reference, plus the component-aggregate primitives
// (top-k, sum) that Ghaffari's O(log n)-approximation consumes.
#include "bench/common.hpp"

#include "src/apps/domination.hpp"

namespace pw::bench {
namespace {

int max_domination_distance(const graph::Graph& g, const std::vector<int>& dom) {
  std::vector<int> dist(g.n(), -1);
  std::vector<int> frontier;
  for (int v : dom) {
    dist[v] = 0;
    frontier.push_back(v);
  }
  int d = 0;
  while (!frontier.empty()) {
    std::vector<int> next;
    for (int v : frontier)
      for (const auto& arc : g.arcs(v))
        if (dist[arc.to] < 0) {
          dist[arc.to] = d + 1;
          next.push_back(arc.to);
        }
    frontier.swap(next);
    if (!frontier.empty()) ++d;
  }
  return d;
}

void run() {
  Rng rng(49);
  JsonEmitter json("cds_kdom_corollaries_a2_a3");
  const int host_threads = detected_cores();

  {
    Table table({"graph", "k", "thr", "|S|", "6n/k bound", "max dist",
                 "rounds", "messages", "ms"});
    auto g = graph::gen::grid(24, 48);  // D = 70, n = 1152
    for (const int threads : thread_sweep(g.n()))
      for (int k : {12, 24, 48, 96, 192}) {
        sim::Engine eng(g, sim::ExecutionPolicy{threads});
        const auto t0 = now_ns();
        const auto res = apps::k_dominating_set(eng, k, {});
        const auto wall_ns = now_ns() - t0;
        apps::validate_k_domination(g, res.dominators, k);
        table.add_row({"grid(24x48)", fm(static_cast<std::uint64_t>(k)),
                       fm(static_cast<std::uint64_t>(threads)),
                       fm(res.dominators.size()),
                       fm(static_cast<std::uint64_t>(6 * g.n() / k + 1)),
                       fm(static_cast<std::uint64_t>(
                           max_domination_distance(g, res.dominators))),
                       fm(res.stats.rounds), fm(res.stats.messages),
                       fd(static_cast<double>(wall_ns) * 1e-6, 3)});
        json.add_row({{"section", "kdom"},
                      {"graph", "grid(24x48)"},
                      {"n", g.n()},
                      {"k", k},
                      {"threads", threads},
                      {"host_threads", host_threads},
                      {"set_size", res.dominators.size()},
                      {"bound", static_cast<std::uint64_t>(6 * g.n() / k + 1)},
                      {"rounds", res.stats.rounds},
                      {"messages", res.stats.messages},
                      {"wall_ns", wall_ns},
                      {"ns_per_message",
                       static_cast<double>(wall_ns) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, res.stats.messages))}});
      }
    table.print("Corollary A.3 — k-dominating sets (size <= 6n/k, distance <= k)");
  }

  {
    Table table({"graph", "n", "thr", "CDS size", "greedy ref", "ratio",
                 "rounds", "messages", "ms"});
    for (int n : {256, 512, 1024}) {
      auto g = graph::gen::random_connected(n, 3 * n, rng);
      const auto ref = apps::greedy_cds_reference(g);
      int ref_size = 0;
      for (char c : ref) ref_size += c;
      for (const int threads : thread_sweep(n)) {
        sim::Engine eng(g, sim::ExecutionPolicy{threads});
        const auto t0 = now_ns();
        const auto res = apps::connected_dominating_set(eng, {});
        const auto wall_ns = now_ns() - t0;
        apps::validate_cds(g, res.in_cds);
        table.add_row(
            {"GNM", fm(static_cast<std::uint64_t>(n)),
             fm(static_cast<std::uint64_t>(threads)),
             fm(static_cast<std::uint64_t>(res.size)),
             fm(static_cast<std::uint64_t>(ref_size)),
             fd(static_cast<double>(res.size) / std::max(1, ref_size)),
             fm(res.stats.rounds), fm(res.stats.messages),
             fd(static_cast<double>(wall_ns) * 1e-6, 3)});
        json.add_row({{"section", "cds"},
                      {"graph", "GNM"},
                      {"n", n},
                      {"threads", threads},
                      {"host_threads", host_threads},
                      {"cds_size", res.size},
                      {"greedy_ref", ref_size},
                      {"rounds", res.stats.rounds},
                      {"messages", res.stats.messages},
                      {"wall_ns", wall_ns},
                      {"ns_per_message",
                       static_cast<double>(wall_ns) /
                           static_cast<double>(std::max<std::uint64_t>(
                               1, res.stats.messages))}});
      }
    }
    table.print(
        "Corollary A.2 — connected dominating sets (distributed vs greedy "
        "reference; see DESIGN.md for the substitution note)");
  }

  {
    // The component aggregates Ghaffari's algorithm actually consumes.
    Table table({"primitive", "n", "thr", "components", "rounds", "messages",
                 "ms"});
    auto g = graph::gen::random_connected(512, 1280, rng);
    std::vector<char> h(g.m(), 0);
    for (int e = 0; e < g.m(); ++e) h[e] = rng.next_bool(0.5);
    std::vector<std::uint64_t> values(g.n());
    for (auto& x : values) x = rng.next_below(1u << 16);
    auto report = [&](const char* primitive, int threads,
                      const sim::PhaseStats& st, std::uint64_t wall_ns) {
      table.add_row({primitive, fm(static_cast<std::uint64_t>(g.n())),
                     fm(static_cast<std::uint64_t>(threads)), "-",
                     fm(st.rounds), fm(st.messages),
                     fd(static_cast<double>(wall_ns) * 1e-6, 3)});
      json.add_row({{"section", "aggregates"},
                    {"primitive", primitive},
                    {"n", g.n()},
                    {"threads", threads},
                    {"host_threads", host_threads},
                    {"rounds", st.rounds},
                    {"messages", st.messages},
                    {"wall_ns", wall_ns},
                    {"ns_per_message",
                     static_cast<double>(wall_ns) /
                         static_cast<double>(
                             std::max<std::uint64_t>(1, st.messages))}});
    };
    for (const int threads : thread_sweep(g.n())) {
      {
        sim::Engine eng(g, sim::ExecutionPolicy{threads});
        const auto snap = eng.snap();
        const auto t0 = now_ns();
        apps::component_sum(eng, h, values, {});
        report("component_sum", threads, eng.since(snap), now_ns() - t0);
      }
      {
        sim::Engine eng(g, sim::ExecutionPolicy{threads});
        const auto snap = eng.snap();
        const auto t0 = now_ns();
        apps::component_topk(eng, h, values, 3, {});
        report("component_top3", threads, eng.since(snap), now_ns() - t0);
      }
    }
    table.print("Corollary A.2 — Thurimella-extension aggregates (PA instances)");
  }
  json.write("BENCH_cds_kdom.json");
}

}  // namespace
}  // namespace pw::bench

int main() {
  pw::bench::run();
  return 0;
}
