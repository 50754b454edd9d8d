// Measurement helpers of the benchmark: percentiles with the sample-count
// rule, spans with self times and a Chrome trace-event writer, the
// per-workload output oracles, and the metric-name grammar. Everything here
// is host-side bookkeeping; none of it runs inside a timed region except
// Tracer::begin/end, whose cost the traced run reports as its overhead.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

#include "src/graph/dsu.hpp"
#include "src/graph/graph.hpp"
#include "src/util/agg.hpp"

namespace pb {

// ---------------------------------------------------------------------------
// Percentiles.
// ---------------------------------------------------------------------------

// Percentile q in [0, 1] by linear interpolation between closest ranks (the
// "linear" rule of numpy and of Python's statistics.quantiles inclusive
// method). Returns NaN for an empty sample.
inline double percentile(std::vector<double> xs, double q) {
  if (xs.empty()) return std::nan("");
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

inline double median(const std::vector<double>& xs) {
  return percentile(xs, 0.5);
}

// Number of the n samples that lie beyond the q-th percentile's rank.
inline std::size_t samples_beyond(std::size_t n, double q) {
  const auto at = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n) - 1e-9));
  return n > at ? n - at : 0;
}

// The highest tail percentile that has at least ten samples beyond it, out
// of p99, p95 and p90; 0 when even p90 lacks them (report the median only).
inline double reportable_tail(std::size_t n) {
  for (const double q : {0.99, 0.95, 0.90})
    if (samples_beyond(n, q) >= 10) return q;
  return 0.0;
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

// Counts recorded at a span's boundaries, as deltas over the span.
struct SpanCounts {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  long vol_csw = 0;
  long minflt = 0;
};

struct Span {
  std::string name;
  double start_s = 0;  // seconds since the tracer's origin
  double end_s = 0;
  int parent = -1;     // index into the tracer's span list, -1 at top level
  SpanCounts counts;
  double dur() const { return end_s - start_s; }
};

// In-memory span recorder. begin() nests under the innermost open span;
// end() closes the innermost one. Spans are written out only at the end.
class Tracer {
 public:
  void begin(std::string name, double now_s) {
    const int parent = open_.empty() ? -1 : open_.back();
    spans_.push_back({std::move(name), now_s, now_s, parent, {}});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
  }
  void end(double now_s, const SpanCounts& c = {}) {
    Span& s = spans_[static_cast<std::size_t>(open_.back())];
    s.end_s = now_s;
    s.counts = c;
    open_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

// Self time of every span: its duration minus the part of its interval that
// its direct children cover (overlapping children are counted once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0)
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s, s.end_s);
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (auto [lo, hi] : iv) {
      lo = std::max(lo, spans[i].start_s);
      hi = std::min(hi, spans[i].end_s);
      if (hi <= lo) continue;
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = spans[i].dur() - covered;
  }
  return self;
}

// Chrome trace-event JSON ("X" complete events, microseconds), which
// Perfetto and chrome://tracing open directly. Returns false on I/O error.
inline bool write_chrome_trace(const std::string& path,
                               const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  const auto self = self_times(spans);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::fprintf(
        f,
        "%s{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
        "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,"
        "\"self_us\":%.3f,\"rounds\":%llu,\"messages\":%llu,"
        "\"vol_csw\":%ld,\"minflt\":%ld}}\n",
        i ? "," : "", s.name.c_str(),
        s.name.substr(0, s.name.find('.')).c_str(), s.start_s * 1e6,
        s.dur() * 1e6, i, s.parent, self[i] * 1e6,
        static_cast<unsigned long long>(s.counts.rounds),
        static_cast<unsigned long long>(s.counts.messages), s.counts.vol_csw,
        s.counts.minflt);
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// ---------------------------------------------------------------------------
// Metric names.
// ---------------------------------------------------------------------------

// [A-Za-z0-9_.-]+, at most 64 characters, starting with a letter or digit.
inline bool valid_metric_name(std::string_view s) {
  if (s.empty() || s.size() > 64) return false;
  auto alnum = [](char c) {
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9');
  };
  if (!alnum(s.front())) return false;
  return std::all_of(s.begin(), s.end(), [&](char c) {
    return alnum(c) || c == '_' || c == '.' || c == '-';
  });
}

// ---------------------------------------------------------------------------
// Oracles. Each returns whether the output is correct; none aborts.
// ---------------------------------------------------------------------------

// Part-wise aggregation: every part's value is the sequential fold of its
// members' inputs, and every node holds its own part's value.
inline bool pa_fold_ok(const std::vector<int>& part_of, int num_parts,
                       const std::vector<std::uint64_t>& values,
                       const pw::Agg& agg,
                       const std::vector<std::uint64_t>& part_value,
                       const std::vector<std::uint64_t>& node_value) {
  if (values.size() != part_of.size() || node_value.size() != part_of.size() ||
      part_value.size() != static_cast<std::size_t>(num_parts))
    return false;
  std::vector<std::uint64_t> fold(static_cast<std::size_t>(num_parts),
                                  agg.identity);
  for (std::size_t v = 0; v < part_of.size(); ++v) {
    const int p = part_of[v];
    if (p < 0 || p >= num_parts) return false;
    fold[static_cast<std::size_t>(p)] = agg(fold[static_cast<std::size_t>(p)], values[v]);
  }
  if (fold != part_value) return false;
  for (std::size_t v = 0; v < part_of.size(); ++v)
    if (node_value[v] != fold[static_cast<std::size_t>(part_of[v])]) return false;
  return true;
}

// One flood from a single source over a connected graph with m edges: every
// node was reached, exactly 2m messages were sent (each node forwards on all
// ports once), and it took ecc(source) + 2 rounds: nodes at distance d send
// in round d + 1, and the last round only delivers the farthest nodes'
// messages, which nobody forwards.
inline bool flood_ok(const std::vector<char>& seen, std::uint64_t rounds,
                     std::uint64_t messages, int m, int ecc) {
  const bool all_seen =
      std::all_of(seen.begin(), seen.end(), [](char c) { return c != 0; });
  return all_seen && messages == 2 * static_cast<std::uint64_t>(m) &&
         rounds == static_cast<std::uint64_t>(ecc) + 2;
}

// The marked edges form a spanning tree: n-1 of them and no cycle. Same
// checks as pw::apps::validate_spanning_tree, returning instead of aborting.
inline bool spanning_tree_ok(const pw::graph::Graph& g,
                             const std::vector<char>& in_tree) {
  if (in_tree.size() != static_cast<std::size_t>(g.m())) return false;
  pw::graph::Dsu dsu(g.n());
  int count = 0;
  for (int e = 0; e < g.m(); ++e) {
    if (!in_tree[static_cast<std::size_t>(e)]) continue;
    ++count;
    if (!dsu.unite(g.edge(e).u, g.edge(e).v)) return false;
  }
  return count == g.n() - 1;
}

}  // namespace pb
