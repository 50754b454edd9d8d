// Shared helpers for the benchmark harnesses.
//
// Every bench binary regenerates one artifact of the paper (a table, a
// figure, or a corollary's claim) and prints the rows the paper reports:
// measured rounds/messages next to the quantities the theory predicts
// (D, sqrt(n), m, ...), so the SHAPE of each claim — who wins, by what
// factor, where crossovers sit — can be read off directly.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "src/core/baselines.hpp"
#include "src/core/noleader.hpp"
#include "src/core/solver.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/properties.hpp"
#include "src/tree/bfs.hpp"
#include "src/util/check.hpp"
#include "src/util/table.hpp"

namespace pw::bench {

struct Instance {
  std::string name;
  graph::Graph g;
  graph::Partition p;
  int diameter = 0;
};

inline Instance make_instance(std::string name, graph::Graph g,
                              graph::Partition p) {
  Instance inst{std::move(name), std::move(g), std::move(p), 0};
  inst.p.elect_min_id_leaders();
  inst.diameter = graph::diameter_estimate(inst.g);
  return inst;
}

// The graph families of Appendix C's tables.
inline Instance general_instance(int n, Rng& rng) {
  auto g = graph::gen::random_connected(n, 3 * n, rng);
  auto p = graph::random_bfs_partition(g, std::max(2, n / 24), rng);
  return make_instance("general(GNM)", std::move(g), std::move(p));
}

inline Instance planar_instance(int side) {
  auto g = graph::gen::grid(side, side);
  auto p = graph::grid_row_partition(side, side);
  return make_instance("planar(grid)", std::move(g), std::move(p));
}

// Genus 1 (the torus embeds on it); Appendix C's genus-g column.
inline Instance genus_instance(int side, Rng& rng) {
  auto g = graph::gen::torus(side, side);
  auto p = graph::random_bfs_partition(g, std::max(2, side / 2), rng);
  return make_instance("genus1(torus)", std::move(g), std::move(p));
}

inline Instance treewidth_instance(int n, int k, Rng& rng) {
  auto g = graph::gen::k_tree(n, k, rng);
  auto p = graph::random_bfs_partition(g, std::max(2, n / 24), rng);
  return make_instance("treewidth(k-tree,k=" + std::to_string(k) + ")",
                       std::move(g), std::move(p));
}

inline Instance pathwidth_instance(int spine, int legs, Rng& rng) {
  auto g = graph::gen::caterpillar(spine, legs);
  auto p = graph::random_bfs_partition(g, std::max(2, spine / 8), rng);
  return make_instance("pathwidth(caterpillar)", std::move(g), std::move(p));
}

inline Instance apex_instance(int depth, int width) {
  auto g = graph::gen::apex_grid(depth, width);
  auto p = graph::apex_grid_row_partition(depth, width);
  return make_instance("apex_grid(" + std::to_string(depth) + "x" +
                           std::to_string(width) + ")",
                       std::move(g), std::move(p));
}

struct PaMeasurement {
  sim::PhaseStats setup;   // tree + division + shortcut construction
  sim::PhaseStats query;   // one PA instance (Algorithm 1, all 3 stages)
  std::uint64_t setup_ns = 0;  // wall-clock of the setup phase
  std::uint64_t query_ns = 0;  // wall-clock of the query phase
  int shortcut_congestion = 0;
  int block_parameter = 0;
  int final_guess = 0;
};

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Wall-clock repeats for the corollary benches. A single run per row moved
// 36–42% between back-to-back runs of unchanged code, so each row reports
// the median of kAppReps runs. `once()` builds a fresh engine, times only
// the solve and returns {result, wall_ns}; every repeat must report the
// same rounds and messages (the counts are fixed by the seed), or the bench
// aborts. Returns the first repeat's result and the median wall time.
constexpr int kAppReps = 5;

template <class Once>
auto median_of_reps(Once&& once) {
  auto [res, first_ns] = once();
  std::vector<std::uint64_t> ns{first_ns};
  for (int r = 1; r < kAppReps; ++r) {
    const auto [again, wall_ns] = once();
    PW_CHECK_MSG(again.stats.rounds == res.stats.rounds &&
                     again.stats.messages == res.stats.messages,
                 "app bench drifted across repeats (rounds/messages differ)");
    ns.push_back(wall_ns);
  }
  std::nth_element(ns.begin(), ns.begin() + kAppReps / 2, ns.end());
  return std::pair{std::move(res), ns[kAppReps / 2]};
}

// --- Thread sweeps ----------------------------------------------------------
//
// Every bench that constructs engines sweeps ExecutionPolicy thread counts
// from one shared helper so artifacts are comparable across benches: the
// default sweep is {1, 2, hardware_concurrency} deduped ascending, capped at
// the workload's node count (the engine never holds more shards than nodes).
// 2 stays pinned so the sharded machinery is exercised even on single-core
// hosts, where multi-thread rows measure dispatch overhead, not speedup.
//
// PW_BENCH_THREADS=1,2,4 (comma-separated) overrides the sweep — still
// deduped and capped — which is how baselines gain rows a 1-core host would
// not emit and how a CI runner class can be pinned to a fixed sweep.

inline int detected_cores() {
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

inline std::vector<int> thread_sweep(int n) {
  std::vector<int> t;
  if (const char* env = std::getenv("PW_BENCH_THREADS")) {
    // No host has more hardware threads than this; saturating here keeps a
    // runaway digit string from overflowing the accumulator — or from
    // requesting an engine with tens of thousands of workers.
    constexpr int kMaxThreads = 1024;
    int cur = 0;
    bool in_number = false;
    for (const char* c = env;; ++c) {
      if (*c >= '0' && *c <= '9') {
        cur = std::min(kMaxThreads, cur * 10 + (*c - '0'));
        in_number = true;
      } else {
        if (in_number && cur > 0) t.push_back(cur);
        cur = 0;
        in_number = false;
        if (*c == '\0') break;
      }
    }
  }
  if (t.empty()) t = {1, 2, detected_cores()};
  for (auto& x : t) x = std::min(x, std::max(1, n));
  std::sort(t.begin(), t.end());
  t.erase(std::unique(t.begin(), t.end()), t.end());
  return t;
}

inline PaMeasurement measure_pa(const Instance& inst, core::PaSolverConfig cfg,
                                std::uint64_t value_seed = 7) {
  sim::Engine eng(inst.g);
  core::PaSolver solver(eng, cfg);
  const auto s0 = eng.snap();
  const auto t0 = now_ns();
  solver.set_partition(inst.p);
  PaMeasurement m;
  m.setup_ns = now_ns() - t0;
  m.setup = eng.since(s0);

  Rng rng(value_seed);
  std::vector<std::uint64_t> values(inst.g.n());
  for (auto& x : values) x = rng.next_below(1u << 20);
  const auto s1 = eng.snap();
  const auto t1 = now_ns();
  solver.aggregate(agg::min(), values);
  m.query_ns = now_ns() - t1;
  m.query = eng.since(s1);

  const auto& st = solver.structures();
  m.shortcut_congestion = shortcut::congestion(st.sc);
  m.block_parameter = shortcut::block_parameter(inst.g, st.t, inst.p, st.sc);
  m.final_guess = st.final_guess;
  return m;
}

inline std::string fm(std::uint64_t v) { return Table::fmt(v); }
inline std::string fd(double v, int prec = 2) { return Table::fmt(v, prec); }

// --- Machine-readable bench artifacts (BENCH_*.json) -----------------------
//
// Every bench binary that feeds the perf trajectory writes a flat JSON file
// next to its human-readable table: {"benchmark": ..., "rows": [{...}, ...]}.
// Rows are flat objects of numbers and strings so any plotting/regression
// script can consume them without a schema. Times are wall-clock nanoseconds.

class JsonValue {
 public:
  JsonValue(double v) : kind_(Kind::Number) { num_ = v; }            // NOLINT
  JsonValue(std::uint64_t v) : kind_(Kind::Unsigned) { u_ = v; }     // NOLINT
  JsonValue(int v) : kind_(Kind::Unsigned) {                         // NOLINT
    if (v < 0) {
      kind_ = Kind::Number;
      num_ = v;
    } else {
      u_ = static_cast<std::uint64_t>(v);
    }
  }
  JsonValue(std::string v) : kind_(Kind::String), str_(std::move(v)) {}  // NOLINT
  JsonValue(const char* v) : kind_(Kind::String), str_(v) {}             // NOLINT

  std::string dump() const {
    switch (kind_) {
      case Kind::Unsigned:
        return std::to_string(u_);
      case Kind::Number: {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.6g", num_);
        return buf;
      }
      case Kind::String: {
        std::string out = "\"";
        for (const char c : str_) {
          switch (c) {
            case '"': out += "\\\""; break;
            case '\\': out += "\\\\"; break;
            case '\n': out += "\\n"; break;
            case '\t': out += "\\t"; break;
            default:
              if (static_cast<unsigned char>(c) < 0x20) {
                char esc[8];
                std::snprintf(esc, sizeof(esc), "\\u%04x", c);
                out += esc;
              } else {
                out += c;
              }
          }
        }
        out += '"';
        return out;
      }
    }
    return "null";
  }

 private:
  enum class Kind { Number, Unsigned, String };
  Kind kind_;
  double num_ = 0;
  std::uint64_t u_ = 0;
  std::string str_;
};

using JsonRow = std::vector<std::pair<std::string, JsonValue>>;

class JsonEmitter {
 public:
  explicit JsonEmitter(std::string benchmark) : benchmark_(std::move(benchmark)) {}

  void add_row(JsonRow row) { rows_.push_back(std::move(row)); }

  // Writes the artifact; returns false (and warns) if the file can't be
  // opened or written in full, so a read-only working directory never fails
  // a bench run but a truncated artifact is never reported as success.
  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write %s\n", path.c_str());
      return false;
    }
    std::string out = "{\n  \"benchmark\": " + JsonValue(benchmark_).dump() +
                      ",\n  \"rows\": [\n";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out += "    {";
      for (std::size_t j = 0; j < rows_[i].size(); ++j) {
        if (j > 0) out += ", ";
        out += JsonValue(rows_[i][j].first).dump() + ": " +
               rows_[i][j].second.dump();
      }
      out += i + 1 < rows_.size() ? "},\n" : "}\n";
    }
    out += "  ]\n}\n";
    const std::size_t written = std::fwrite(out.data(), 1, out.size(), f);
    const bool ok = (std::fclose(f) == 0) && written == out.size();
    if (!ok) {
      std::fprintf(stderr, "warning: short write to %s, artifact is invalid\n",
                   path.c_str());
      return false;
    }
    std::printf("wrote %s (%zu rows)\n", path.c_str(), rows_.size());
    return true;
  }

 private:
  std::string benchmark_;
  std::vector<JsonRow> rows_;
};

}  // namespace pw::bench
