// One delivery-trace recorder for the engine suites. A callback (or a manual
// round loop) calls record(eng, v) for every activation; the recorder keeps
// what node v saw — the activation itself and every inbox entry, with the
// round it arrived in — plus any end-of-run values a suite wants pinned
// (accounting totals, fault counters). SameTrace() compares two recordings
// and, on a mismatch, names the policy and the first diverging
// (round, receiver, port, message) instead of dumping two vectors.
//
// Events are appended per receiver, so shard-parallel callbacks may record
// their own node without synchronization (DESIGN.md §7 contract). Active
// sets are ascending within a round, so ordering all events by (round,
// receiver) reproduces the order a sequential engine delivered them in.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/sim/engine.hpp"

namespace pw::sim {

// One observation: `receiver` ran in round `round` (rounds() at the time)
// and found `msg` from `from` on its port `port`. An activation is recorded
// as an event with from == -1 ahead of its inbox, so a node woken with an
// empty inbox still leaves a mark.
struct TraceEvent {
  std::uint64_t round = 0;
  int receiver = -1;
  int from = -1;
  int port = -1;
  Msg msg;

  bool operator==(const TraceEvent& o) const {
    return round == o.round && receiver == o.receiver && from == o.from &&
           port == o.port && msg.tag == o.msg.tag && msg.a == o.msg.a &&
           msg.b == o.msg.b && msg.c == o.msg.c;
  }
};

inline std::ostream& operator<<(std::ostream& os, const TraceEvent& e) {
  os << "round " << e.round << ", receiver " << e.receiver;
  if (e.from < 0) return os << ": activation";
  return os << ", port " << e.port << ": message {tag " << e.msg.tag << ", a "
            << e.msg.a << ", b " << e.msg.b << ", c " << e.msg.c
            << "} from node " << e.from;
}

class TraceRecorder {
 public:
  explicit TraceRecorder(int n) : rows_(static_cast<std::size_t>(n)) {}

  // Records v's activation in the engine's current round and its whole
  // inbox, in delivery order.
  void record(const Engine& eng, int v) {
    auto& row = rows_[static_cast<std::size_t>(v)];
    const std::uint64_t round = eng.rounds();
    row.push_back({round, v, -1, -1, Msg{}});
    for (const Incoming& in : eng.inbox(v))
      row.push_back({round, v, in.from, in.port, in.msg});
  }

  // Pins an end-of-run value next to the trace; SameTrace compares notes by
  // position and names the first that differs.
  void note(std::string what, std::uint64_t value) {
    notes_.emplace_back(std::move(what), value);
  }
  void note_totals(const Engine& eng) {
    note("rounds", eng.rounds());
    note("messages", eng.messages());
  }
  void note_faults(const FaultStats& fs) {
    note("messages_dropped", fs.messages_dropped);
    note("messages_delayed", fs.messages_delayed);
    note("messages_duplicated", fs.messages_duplicated);
    note("messages_shed_crashed", fs.messages_shed_crashed);
    note("wakes_suppressed", fs.wakes_suppressed);
  }

  // The value of the first note named `what` (0 when absent).
  std::uint64_t noted(std::string_view what) const {
    for (const auto& [name, value] : notes_)
      if (name == what) return value;
    return 0;
  }

  // Every event, ordered by (round, receiver), each receiver's events in the
  // order it saw them.
  std::vector<TraceEvent> events() const {
    std::vector<TraceEvent> out;
    for (const auto& row : rows_) out.insert(out.end(), row.begin(), row.end());
    std::stable_sort(out.begin(), out.end(),
                     [](const TraceEvent& x, const TraceEvent& y) {
                       return x.round != y.round ? x.round < y.round
                                                 : x.receiver < y.receiver;
                     });
    return out;
  }

  const std::vector<std::pair<std::string, std::uint64_t>>& notes() const {
    return notes_;
  }

 private:
  std::vector<std::vector<TraceEvent>> rows_;
  std::vector<std::pair<std::string, std::uint64_t>> notes_;
};

// Passes when both recordings hold the same events and notes. Otherwise the
// failure message names `label` (the policy under test) and the first point
// where `actual` departs from `expected`.
inline testing::AssertionResult SameTrace(const TraceRecorder& expected,
                                          const TraceRecorder& actual,
                                          const std::string& label) {
  const auto want = expected.events();
  const auto got = actual.events();
  const std::size_t common = std::min(want.size(), got.size());
  for (std::size_t i = 0; i < common; ++i)
    if (!(want[i] == got[i]))
      return testing::AssertionFailure()
             << label << ": trace diverges at event " << i << " of "
             << want.size() << "\n  expected " << want[i] << "\n  actual   "
             << got[i];
  if (want.size() != got.size()) {
    std::ostringstream extra;
    if (got.size() > want.size())
      extra << "first extra event: " << got[common];
    else
      extra << "first missing event: " << want[common];
    return testing::AssertionFailure()
           << label << ": trace has " << got.size() << " events, expected "
           << want.size() << "; " << extra.str();
  }
  const auto& wn = expected.notes();
  const auto& gn = actual.notes();
  for (std::size_t i = 0; i < std::min(wn.size(), gn.size()); ++i)
    if (wn[i] != gn[i])
      return testing::AssertionFailure()
             << label << ": expected " << wn[i].first << " = "
             << wn[i].second << ", actual " << gn[i].first << " = "
             << gn[i].second;
  if (wn.size() != gn.size())
    return testing::AssertionFailure()
           << label << ": " << gn.size() << " notes, expected " << wn.size();
  return testing::AssertionSuccess();
}

}  // namespace pw::sim
