// The execution-policy matrix the engine and apps suites replay every
// workload across: {1} ∪ {2,4} threads × {barriered, pipelined} round close
// (DESIGN.md §7, §8). Index 0 is the sequential reference; every other entry
// must reproduce its traces, counts, and results bit for bit. Suites that
// also vary the §10 transport set it per entry.
#pragma once

#include <string>

#include "src/sim/executor.hpp"

namespace pw::sim {

inline constexpr ExecutionPolicy kPolicies[] = {
    {.num_threads = 1, .pipeline = false},
    {.num_threads = 2, .pipeline = false},
    {.num_threads = 2, .pipeline = true},
    {.num_threads = 4, .pipeline = false},
    {.num_threads = 4, .pipeline = true}};

// "sequential", or "<close>[/shm]@<threads>" — e.g. "pipelined/shm@4".
inline std::string policy_name(const ExecutionPolicy& p) {
  if (p.num_threads == 1) return "sequential";
  std::string out = p.pipeline ? "pipelined" : "barriered";
  if (p.transport == TransportKind::kShmRing) out += "/shm";
  return out + "@" + std::to_string(p.num_threads);
}

}  // namespace pw::sim
