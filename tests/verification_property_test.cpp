// Property sweep: every verifier must agree with a centralized oracle on
// randomized subgraph instances (accept and reject cases both exercised).
#include <gtest/gtest.h>

#include <optional>

#include "src/apps/verification.hpp"
#include "src/graph/dsu.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"

namespace pw::apps {
namespace {

using graph::Graph;

struct SweepCase {
  std::uint64_t seed;
  double density;  // probability an edge is in H
};

class VerifierSweep : public ::testing::TestWithParam<SweepCase> {
 protected:
  void SetUp() override {
    Rng rng(GetParam().seed);
    g_ = graph::gen::random_connected(90, 230, rng);
    h_.assign(g_->m(), 0);
    for (int e = 0; e < g_->m(); ++e)
      h_[e] = rng.next_bool(GetParam().density) ? 1 : 0;
  }

  bool oracle_connected(const std::vector<char>& h) const {
    graph::Dsu dsu(g_->n());
    for (int e = 0; e < g_->m(); ++e)
      if (h[e]) dsu.unite(g_->edge(e).u, g_->edge(e).v);
    return dsu.components() == 1;
  }

  std::optional<Graph> g_;
  std::vector<char> h_;
};

TEST_P(VerifierSweep, ConnectivityAgreesWithOracle) {
  sim::Engine eng(*g_);
  EXPECT_EQ(verify_connectivity(eng, h_, {}).ok, oracle_connected(h_));
}

TEST_P(VerifierSweep, SpanningTreeAgreesWithOracle) {
  int count = 0;
  for (char c : h_) count += c;
  const bool oracle = oracle_connected(h_) && count == g_->n() - 1;
  sim::Engine eng(*g_);
  EXPECT_EQ(verify_spanning_tree(eng, h_, {}).ok, oracle);
}

TEST_P(VerifierSweep, CutAgreesWithOracle) {
  std::vector<char> complement(h_.size());
  for (std::size_t e = 0; e < h_.size(); ++e) complement[e] = h_[e] ? 0 : 1;
  const bool oracle = !oracle_connected(complement);
  sim::Engine eng(*g_);
  EXPECT_EQ(verify_cut(eng, h_, {}).ok, oracle);
}

TEST_P(VerifierSweep, STConnectivityAgreesWithOracle) {
  graph::Dsu dsu(g_->n());
  for (int e = 0; e < g_->m(); ++e)
    if (h_[e]) dsu.unite(g_->edge(e).u, g_->edge(e).v);
  const int s = 0, t = g_->n() / 2;
  sim::Engine eng(*g_);
  EXPECT_EQ(verify_s_t_connectivity(eng, h_, s, t, {}).ok, dsu.same(s, t));
}

TEST_P(VerifierSweep, LabelsArePartitionHomomorphic) {
  sim::Engine eng(*g_);
  core::PaSolver solver(eng);
  const auto res = h_component_labels(solver, h_);
  graph::Dsu dsu(g_->n());
  for (int e = 0; e < g_->m(); ++e)
    if (h_[e]) dsu.unite(g_->edge(e).u, g_->edge(e).v);
  for (const auto& e : g_->edges())
    EXPECT_EQ(res.label[e.u] == res.label[e.v], dsu.same(e.u, e.v));
}


TEST_P(VerifierSweep, BipartitenessAgreesWithOracle) {
  // Oracle: 2-color H by BFS.
  std::vector<int> color(g_->n(), -1);
  bool oracle = true;
  std::vector<std::vector<std::pair<int, int>>> hadj(g_->n());
  for (int e = 0; e < g_->m(); ++e)
    if (h_[e]) {
      hadj[g_->edge(e).u].push_back({g_->edge(e).v, e});
      hadj[g_->edge(e).v].push_back({g_->edge(e).u, e});
    }
  for (int s = 0; s < g_->n() && oracle; ++s) {
    if (color[s] >= 0) continue;
    color[s] = 0;
    std::vector<int> stack{s};
    while (!stack.empty() && oracle) {
      const int v = stack.back();
      stack.pop_back();
      for (const auto& [u, e] : hadj[v]) {
        if (color[u] < 0) {
          color[u] = color[v] ^ 1;
          stack.push_back(u);
        } else if (color[u] == color[v]) {
          oracle = false;
        }
      }
    }
  }
  sim::Engine eng(*g_);
  EXPECT_EQ(verify_bipartiteness(eng, h_, {}).ok, oracle);
}

INSTANTIATE_TEST_SUITE_P(
    DensitySweep, VerifierSweep,
    ::testing::Values(SweepCase{201, 0.05}, SweepCase{202, 0.2},
                      SweepCase{203, 0.5}, SweepCase{204, 0.8},
                      SweepCase{205, 0.95}, SweepCase{206, 1.0},
                      SweepCase{207, 0.0}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return "seed" + std::to_string(info.param.seed) + "_density" +
             std::to_string(static_cast<int>(info.param.density * 100));
    });

}  // namespace
}  // namespace pw::apps
