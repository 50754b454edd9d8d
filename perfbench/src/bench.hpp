// Shared plumbing of the benchmark program: options, clocks, the measured
// call wrapper (with spans when tracing), the solve-sample loop with its
// determinism guard, the engine probes of the sim layer, and the result
// record main.cpp prints.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "helpers.hpp"
#include "src/sim/engine.hpp"

namespace pb {

namespace sim = pw::sim;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;  // Chrome trace path (traced runs only)
};

double wall_now();
double cpu_now();  // process CPU time, all threads
struct rusage usage_now();

// What one measured call cost. vol_csw/minflt are read only when tracing.
struct Meas {
  double wall = 0;
  double cpu = 0;
  long vol_csw = 0;
  long minflt = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
};

class Run {
 public:
  explicit Run(const Options& o);

  const Options& opt() const { return opt_; }
  bool tracing() const { return opt_.trace; }

  // Times fn(). With `span` set (traced runs only) it also records a span
  // named `name` with getrusage and engine counts taken at its boundaries.
  // Rounds and messages come from `eng` when given.
  Meas measure(const char* name, bool span, const std::function<void()>& fn,
               const sim::Engine* eng = nullptr);
  Meas measure(const char* name, const std::function<void()>& fn,
               const sim::Engine* eng = nullptr) {
    return measure(name, tracing(), fn, eng);
  }
  const Tracer& tracer() const { return tracer_; }

 private:
  Options opt_;
  double origin_;
  Tracer tracer_;
};

// One timed solve (one pass over a workload's instances) and whether the
// oracle accepted every output of it.
struct Sample {
  double wall = 0;
  double cpu = 0;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  long vol_csw = 0;
  bool traced = false;
  bool ok = true;

  void add(const Meas& m, bool output_ok) {
    wall += m.wall;
    cpu += m.cpu;
    rounds += m.rounds;
    messages += m.messages;
    vol_csw += m.vol_csw;
    ok = ok && output_ok;
  }
};

struct Samples {
  std::vector<Sample> all;
  bool drift = false;  // rounds or messages differed between samples

  std::size_t failed() const;
  std::vector<double> wall(bool traced) const;
  std::vector<double> cpu(bool traced) const;
};

// Calls solve(traced) until `seconds` have passed and at least `min_samples`
// were taken. In a traced run the samples alternate untraced and traced, so
// both sides see the same host conditions.
Samples collect(Run& run, int min_samples,
                const std::function<Sample(bool traced)>& solve);

// Sim-layer probes on a workload's own engine and policy.
double probe_empty_round_us(Run& run, sim::Engine& eng);
double probe_flood_ns_per_msg(Run& run, sim::Engine& eng);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

struct Result {
  bool correct = true;
  long attempted = 0;
  long failed = 0;
  std::vector<Metric> metrics;
  std::map<std::string, std::string> context;  // host and run diagnostics
};

// Everything a workload hands to the shared reporting code. A workload runs
// `instances` independent inputs drawn from the seed; one sample (a "solve")
// is one pass over all of them, so its rounds and messages are sums.
struct WorkloadOut {
  Samples samples;
  std::vector<double> setup_s;  // one entry per instance set-up
  int instances = 0;
  int n = 0;                    // nodes per instance
  double m = 0;                 // edges, summed over instances
  double bound = 0;             // sum of D + sqrt(n)
  std::vector<int> diameters;   // graph::diameter_estimate per instance
  int threads = 1;
  std::map<std::string, double> layer;  // per-layer values measured so far
  std::vector<std::string> na;
  bool replay_ok = true;
};

// The per-layer metric names and units, in report order.
const std::vector<std::pair<std::string, std::string>>& per_layer_metrics();

// The sim.* metrics measured on every workload, from the probes and the
// traced samples, and trace.overhead_s. Traced runs only.
void add_sim_layers(Run& run, sim::Engine& eng, WorkloadOut& w);

Result finish(Run& run, WorkloadOut& w);

WorkloadOut run_mst_gnm(Run& run);
WorkloadOut run_flood_gnm(Run& run);

}  // namespace pb
