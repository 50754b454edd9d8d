// Unit tests of the benchmark's own helpers (src/helpers.hpp).
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bench/workloads.hpp"
#include "helpers.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"
#include "src/sim/engine.hpp"

namespace {

TEST(Percentile, LinearInterpolationBetweenRanks) {
  EXPECT_DOUBLE_EQ(pb::percentile({3, 1, 2}, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(pb::percentile({4, 1, 3, 2}, 0.5), 2.5);
  EXPECT_DOUBLE_EQ(pb::percentile({1, 2, 3, 4, 5}, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(pb::percentile({1, 2, 3, 4, 5}, 1.0), 5.0);
  EXPECT_DOUBLE_EQ(pb::percentile({10, 20}, 0.25), 12.5);
  EXPECT_DOUBLE_EQ(pb::median({7}), 7.0);
  EXPECT_TRUE(std::isnan(pb::median({})));
}

TEST(Percentile, TailNeedsTenSamplesBeyondIt) {
  EXPECT_EQ(pb::samples_beyond(100, 0.9), 10u);
  EXPECT_EQ(pb::samples_beyond(99, 0.9), 9u);
  EXPECT_EQ(pb::samples_beyond(1000, 0.99), 10u);
  EXPECT_DOUBLE_EQ(pb::reportable_tail(8), 0.0);
  EXPECT_DOUBLE_EQ(pb::reportable_tail(99), 0.0);
  EXPECT_DOUBLE_EQ(pb::reportable_tail(100), 0.90);
  EXPECT_DOUBLE_EQ(pb::reportable_tail(199), 0.90);
  EXPECT_DOUBLE_EQ(pb::reportable_tail(200), 0.95);
  EXPECT_DOUBLE_EQ(pb::reportable_tail(1000), 0.99);
}

TEST(Spans, SelfTimeSubtractsDirectChildrenOnly) {
  pb::Tracer t;
  t.begin("solve", 0.0);
  t.begin("a", 1.0);
  t.begin("a.inner", 1.5);
  t.end(2.0);
  t.end(3.0);
  t.begin("b", 4.0);
  t.end(6.0);
  t.end(10.0);
  const auto& s = t.spans();
  ASSERT_EQ(s.size(), 4u);
  EXPECT_EQ(s[1].parent, 0);
  EXPECT_EQ(s[2].parent, 1);
  EXPECT_EQ(s[3].parent, 0);
  const auto self = pb::self_times(s);
  EXPECT_DOUBLE_EQ(self[0], 10.0 - 2.0 - 2.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0 - 0.5);
  EXPECT_DOUBLE_EQ(self[2], 0.5);
  EXPECT_DOUBLE_EQ(self[3], 2.0);
}

TEST(Spans, OverlappingChildrenCountOnceAndClipToParent) {
  std::vector<pb::Span> s = {
      {"p", 0.0, 10.0, -1, {}},
      {"c1", 2.0, 5.0, 0, {}},
      {"c2", 4.0, 7.0, 0, {}},   // overlaps c1: union is [2, 7]
      {"c3", 9.0, 12.0, 0, {}},  // runs past the parent: clipped to [9, 10]
  };
  EXPECT_DOUBLE_EQ(pb::self_times(s)[0], 10.0 - 5.0 - 1.0);
}

TEST(Spans, ChromeTraceHasOneCompleteEventPerSpan) {
  pb::Tracer t;
  t.begin("core.set_partition", 0.001);
  t.end(0.003, {5, 7, 1, 2});
  const std::string path = testing::TempDir() + "/perfbench_trace_test.json";
  ASSERT_TRUE(pb::write_chrome_trace(path, t.spans()));
  std::ifstream f(path);
  std::stringstream ss;
  ss << f.rdbuf();
  const std::string js = ss.str();
  EXPECT_NE(js.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(js.find("\"name\":\"core.set_partition\""), std::string::npos);
  EXPECT_NE(js.find("\"cat\":\"core\""), std::string::npos);
  EXPECT_NE(js.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(js.find("\"ts\":1000.000"), std::string::npos);
  EXPECT_NE(js.find("\"dur\":2000.000"), std::string::npos);
  EXPECT_NE(js.find("\"rounds\":5"), std::string::npos);
  std::remove(path.c_str());
}

TEST(MetricNames, Grammar) {
  for (const char* ok : {"solve_s_p50", "core.aggregate_ns_per_msg", "a-b.c_1",
                         "9lives", "X"})
    EXPECT_TRUE(pb::valid_metric_name(ok)) << ok;
  for (const char* bad : {"", "_lead", ".lead", "-lead", "has space", "a/b",
                          "a:b", "ünïcode", "msg/s"})
    EXPECT_FALSE(pb::valid_metric_name(bad)) << bad;
  EXPECT_TRUE(pb::valid_metric_name(std::string(64, 'a')));
  EXPECT_FALSE(pb::valid_metric_name(std::string(65, 'a')));
}

TEST(PaFoldOracle, AcceptsTheFoldAndRejectsAnyWrongValue) {
  const std::vector<int> part_of = {0, 0, 1, 2, 1};
  const std::vector<std::uint64_t> values = {9, 4, 7, 5, 3};
  const auto min = pw::agg::min();
  std::vector<std::uint64_t> part_value = {4, 3, 5};
  std::vector<std::uint64_t> node_value = {4, 4, 3, 5, 3};
  EXPECT_TRUE(pb::pa_fold_ok(part_of, 3, values, min, part_value, node_value));
  EXPECT_TRUE(pb::pa_fold_ok(part_of, 3, values, pw::agg::sum(), {13, 10, 5},
                             {13, 13, 10, 5, 10}));

  auto wrong_part = part_value;
  wrong_part[1] = 7;
  EXPECT_FALSE(pb::pa_fold_ok(part_of, 3, values, min, wrong_part, node_value));
  auto wrong_node = node_value;
  wrong_node[4] = 7;
  EXPECT_FALSE(pb::pa_fold_ok(part_of, 3, values, min, part_value, wrong_node));
  EXPECT_FALSE(pb::pa_fold_ok(part_of, 4, values, min, part_value, node_value));
  EXPECT_FALSE(pb::pa_fold_ok({0, 0, 1, 3, 1}, 3, values, min, part_value,
                              node_value));
}

TEST(FloodOracle, MatchesARealFloodAndRejectsDeviations) {
  const auto g = pw::graph::gen::grid(6, 9);
  pw::sim::Engine eng(g);
  std::vector<char> seen(static_cast<std::size_t>(g.n()));
  const auto snap = eng.snap();
  pw::bench::flood_workload(eng, seen);
  const auto st = eng.since(snap);
  const int ecc = pw::graph::eccentricity(g, 0);
  EXPECT_EQ(ecc, 5 + 8);
  EXPECT_EQ(st.rounds, static_cast<std::uint64_t>(ecc) + 2);
  EXPECT_EQ(st.messages, 2 * static_cast<std::uint64_t>(g.m()));
  EXPECT_TRUE(pb::flood_ok(seen, st.rounds, st.messages, g.m(), ecc));

  EXPECT_FALSE(pb::flood_ok(seen, st.rounds + 1, st.messages, g.m(), ecc));
  EXPECT_FALSE(pb::flood_ok(seen, st.rounds, st.messages - 1, g.m(), ecc));
  seen[17] = 0;
  EXPECT_FALSE(pb::flood_ok(seen, st.rounds, st.messages, g.m(), ecc));
}

TEST(SpanningTreeOracle, CountsAndCycles) {
  const auto g = pw::graph::gen::cycle(4);  // edges 0-1, 1-2, 2-3, 3-0
  EXPECT_TRUE(pb::spanning_tree_ok(g, {1, 1, 1, 0}));
  EXPECT_FALSE(pb::spanning_tree_ok(g, {1, 1, 0, 0}));
  EXPECT_FALSE(pb::spanning_tree_ok(g, {1, 1, 1, 1}));
  EXPECT_FALSE(pb::spanning_tree_ok(g, {1, 1, 1}));
}

}  // namespace
