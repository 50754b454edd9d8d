// The execution-policy matrix the engine and apps suites replay every
// workload across: {1, 2, 4} threads (DESIGN.md §7). Index 0 is the
// sequential reference; every other entry must reproduce its traces, counts,
// and results bit for bit.
#pragma once

#include <string>

#include "src/sim/executor.hpp"

namespace pw::sim {

inline constexpr ExecutionPolicy kPolicies[] = {
    {.num_threads = 1}, {.num_threads = 2}, {.num_threads = 4}};

// "sequential", or "sharded@<threads>" — e.g. "sharded@4".
inline std::string policy_name(const ExecutionPolicy& p) {
  if (p.num_threads == 1) return "sequential";
  return "sharded@" + std::to_string(p.num_threads);
}

}  // namespace pw::sim
