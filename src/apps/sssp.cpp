#include "src/apps/sssp.hpp"

#include <algorithm>
#include <cmath>

#include "src/apps/verification.hpp"

namespace pw::apps {

namespace {

enum : std::uint16_t { kRelax = 61 };

constexpr std::int64_t kInf = (1LL << 62);

// Hop-limited synchronous relaxation: exactly `rounds` Bellman-Ford steps
// (one engine round each), so estimates improve along paths of at most
// `rounds` heavy hops — the hop budget h of the decomposition. A final
// receive-only round lands the last wave; anything still in flight beyond
// the budget is dropped (hop-limited semantics).
//
// Both phases are Engine::run callbacks (budget-limited), so the relaxation
// sweeps dispatch shard-parallel under ExecutionPolicy{k > 1}: the callback
// for v writes only est[v] / last_sent[v] and sends from v (DESIGN.md §7).
void relax_rounds(sim::Engine& eng, std::vector<std::int64_t>& est, int rounds) {
  const auto& g = eng.graph();
  std::vector<std::int64_t> last_sent(g.n(), kInf);
  for (int v = 0; v < g.n(); ++v)
    if (est[v] < kInf) eng.wake(v);

  auto receive = [&](int v) {
    for (const auto& in : eng.inbox(v)) {
      if (in.msg.tag != kRelax) continue;
      const std::int64_t through = static_cast<std::int64_t>(in.msg.a) +
                                   g.edge(g.arcs(v)[in.port].edge).w;
      est[v] = std::min(est[v], through);
    }
  };
  eng.run(
      [&](int v) {
        receive(v);
        if (est[v] >= last_sent[v]) return;
        last_sent[v] = est[v];
        for (int port = 0; port < g.degree(v); ++port)
          eng.send(v, port,
                   sim::Msg{kRelax, static_cast<std::uint64_t>(est[v]), 0, 0});
      },
      static_cast<std::uint64_t>(rounds));
  if (!eng.idle()) eng.run(receive, 1);  // land the last wave, send nothing
  eng.drain();
}

}  // namespace

SsspResult approx_sssp(sim::Engine& eng, int source, double beta,
                       const core::PaSolverConfig& cfg) {
  PW_CHECK(beta > 0 && beta <= 1);
  const auto& g = eng.graph();
  PW_CHECK_MSG(0 <= source && source < g.n(),
               "approx_sssp: source=%d not in [0, %d)", source, g.n());
  const auto snap = eng.snap();
  const int h = std::max(2, static_cast<int>(std::llround(1.0 / beta)));

  std::vector<std::int64_t> est(g.n(), kInf);
  est[source] = 0;

  // One solver for every scale: the leader and T are built once.
  core::PaSolver solver(eng, cfg);

  std::int64_t wsum = 0;
  for (const auto& e : g.edges()) wsum += e.w;

  SsspResult out;
  for (std::int64_t s = 1; s <= 2 * std::max<std::int64_t>(1, wsum); s *= 2) {
    ++out.scales;
    // Light edges at this scale contract into components.
    std::vector<char> light(g.m(), 0);
    bool any_light = false;
    for (int e = 0; e < g.m(); ++e)
      if (g.edge(e).w * h <= s) {
        light[e] = 1;
        any_light = true;
      }

    if (any_light) {
      // PA: label light components (Algorithm 9, leaving them installed),
      // then per-component min estimate and size; hop across each component
      // with a certified spanning-walk surcharge.
      h_component_labels(solver, light);

      std::vector<std::uint64_t> est_u(g.n());
      for (int v = 0; v < g.n(); ++v)
        est_u[v] = static_cast<std::uint64_t>(est[v]);
      const auto comp_min = solver.aggregate(agg::min(), est_u);
      std::vector<std::uint64_t> ones(g.n(), 1);
      const auto comp_size = solver.aggregate(agg::sum(), ones);

      const std::int64_t light_cap = (s + h - 1) / h;  // max light weight
      for (int v = 0; v < g.n(); ++v) {
        const auto lo = static_cast<std::int64_t>(comp_min.node_value[v]);
        if (lo >= kInf) continue;
        const auto size = static_cast<std::int64_t>(comp_size.node_value[v]);
        est[v] = std::min(est[v], lo + 2 * size * light_cap);
      }
    }

    // Heavy-edge (pointwise) relaxation: h rounds.
    const auto r0 = eng.snap();
    relax_rounds(eng, est, h);
    out.relax_stats += eng.since(r0);
  }
  // Final cleanup pass so small graphs converge exactly.
  {
    const auto r0 = eng.snap();
    relax_rounds(eng, est, 1);
    out.relax_stats += eng.since(r0);
  }

  out.dist = std::move(est);
  out.stats = eng.since(snap);
  return out;
}

Stretch measure_stretch(const std::vector<std::int64_t>& exact,
                        const std::vector<std::int64_t>& approx) {
  Stretch s;
  double sum = 0;
  int counted = 0;
  for (std::size_t v = 0; v < exact.size(); ++v) {
    if (exact[v] <= 0) continue;
    const double r =
        static_cast<double>(approx[v]) / static_cast<double>(exact[v]);
    s.max_stretch = std::max(s.max_stretch, r);
    sum += r;
    ++counted;
  }
  if (counted > 0) s.mean_stretch = sum / counted;
  return s;
}

}  // namespace pw::apps
