// perfbench — the repository's end-to-end benchmark program (see README.md).
//
//   perfbench --workload <mst_gnm|flood_gnm> --seed <n>
//             --seconds <s> --trace <0|1> [--trace-out <file.json>]
//
// Prints one `context {...}` line of run and host diagnostics, then, as the
// last line, {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics untraced (--trace 0) or the per-layer metrics traced (--trace 1).
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <string>

#include "bench.hpp"
#include "bench/workloads.hpp"

namespace pb {

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

struct rusage usage_now() {
  struct rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return ru;
}

namespace {

// Steal ticks of all CPUs from /proc/stat, or -1 where it is unreadable.
long long steal_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  long long v[8] = {};
  if (!(f >> cpu) || cpu != "cpu") return -1;
  for (auto& x : v)
    if (!(f >> x)) return -1;
  return v[7];
}

std::string num(double x) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", x);
  return buf;
}

template <class T, class F>
std::string json_list(const std::vector<T>& xs, F&& fmt) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i) out += ",";
    out += fmt(xs[i]);
  }
  return out + "]";
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

struct HostStart {
  long long steal = steal_ticks();
  long nivcsw = usage_now().ru_nivcsw;
};

HostStart& host_start() {
  static HostStart h;
  return h;
}

}  // namespace

Run::Run(const Options& o) : opt_(o), origin_(wall_now()) { host_start(); }

Meas Run::measure(const char* name, bool span,
                  const std::function<void()>& fn, const sim::Engine* eng) {
  Meas m;
  struct rusage ru0{};
  sim::Snapshot snap;
  if (span) {
    tracer_.begin(name, wall_now() - origin_);
    ru0 = usage_now();
  }
  if (eng) snap = eng->snap();
  const double w0 = wall_now();
  const double c0 = cpu_now();
  fn();
  m.cpu = cpu_now() - c0;
  m.wall = wall_now() - w0;
  if (eng) {
    const auto st = eng->since(snap);
    m.rounds = st.rounds;
    m.messages = st.messages;
  }
  if (span) {
    const struct rusage ru1 = usage_now();
    m.vol_csw = ru1.ru_nvcsw - ru0.ru_nvcsw;
    m.minflt = ru1.ru_minflt - ru0.ru_minflt;
    tracer_.end(wall_now() - origin_,
                {m.rounds, m.messages, m.vol_csw, m.minflt});
  }
  return m;
}

std::size_t Samples::failed() const {
  std::size_t f = 0;
  for (const auto& s : all) f += s.ok ? 0 : 1;
  return f;
}

std::vector<double> Samples::wall(bool traced) const {
  std::vector<double> out;
  for (const auto& s : all)
    if (s.traced == traced) out.push_back(s.wall);
  return out;
}

std::vector<double> Samples::cpu(bool traced) const {
  std::vector<double> out;
  for (const auto& s : all)
    if (s.traced == traced) out.push_back(s.cpu);
  return out;
}

Samples collect(Run& run, int min_samples,
                const std::function<Sample(bool traced)>& solve) {
  Samples s;
  if (run.tracing()) min_samples *= 2;
  const double t0 = wall_now();
  for (int i = 0; i < min_samples || wall_now() - t0 < run.opt().seconds; ++i) {
    Sample x = solve(run.tracing() && i % 2 == 1);
    if (!s.all.empty() && (x.rounds != s.all[0].rounds ||
                           x.messages != s.all[0].messages)) {
      std::fprintf(stderr,
                   "perfbench: determinism guard: sample %d did %llu rounds / "
                   "%llu messages, sample 0 did %llu / %llu\n",
                   i, static_cast<unsigned long long>(x.rounds),
                   static_cast<unsigned long long>(x.messages),
                   static_cast<unsigned long long>(s.all[0].rounds),
                   static_cast<unsigned long long>(s.all[0].messages));
      s.drift = true;
    }
    s.all.push_back(x);
  }
  return s;
}

double probe_empty_round_us(Run& run, sim::Engine& eng) {
  auto batch = [&](std::uint64_t rounds) {
    eng.wake(0);
    const Meas m = run.measure(
        "sim.empty_round",
        [&] { eng.run([&](int v) { eng.wake(v); }, rounds); }, &eng);
    eng.drain();
    return m.wall * 1e6 / static_cast<double>(m.rounds);
  };
  // Grow the batch until one lasts 20 ms, then take the median of 9.
  std::uint64_t rounds = 64;
  while (batch(rounds) * static_cast<double>(rounds) < 2e4 && rounds < (1u << 22))
    rounds *= 2;
  std::vector<double> us;
  for (int i = 0; i < 9; ++i) us.push_back(batch(rounds));
  return median(us);
}

double probe_flood_ns_per_msg(Run& run, sim::Engine& eng) {
  std::vector<char> seen(static_cast<std::size_t>(eng.graph().n()));
  std::vector<double> ns;
  const double t0 = wall_now();
  while (ns.size() < 9 || (wall_now() - t0 < 0.3 && ns.size() < 1000)) {
    const Meas m = run.measure(
        "sim.flood_probe", [&] { pw::bench::flood_workload(eng, seen); }, &eng);
    ns.push_back(m.wall * 1e9 / static_cast<double>(m.messages));
  }
  return median(ns);
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> k = {
      {"graph.gen_s", "s"},
      {"sim.engine_ctor_s", "s"},
      {"sim.engine_ctor_minflt", "count"},
      {"sim.empty_round_us", "us"},
      {"sim.ns_per_msg", "ns"},
      {"sim.msgs_per_round", "msgs"},
      {"sim.est_share", "ratio"},
      {"sim.vol_csw_per_round", "count"},
      {"sim.cpu_per_wall", "ratio"},
      {"tree.leader_s", "s"},
      {"tree.leader_rounds", "rounds"},
      {"tree.leader_messages", "msgs"},
      {"tree.bfs_s", "s"},
      {"tree.bfs_rounds", "rounds"},
      {"tree.bfs_messages", "msgs"},
      {"shortcut.division_s", "s"},
      {"shortcut.division_rounds", "rounds"},
      {"shortcut.division_messages", "msgs"},
      {"shortcut.subparts", "count"},
      {"core.set_partition_s", "s"},
      {"core.shortcut_self_s", "s"},
      {"core.shortcut_rounds", "rounds"},
      {"core.shortcut_messages", "msgs"},
      {"core.final_guess", "count"},
      {"core.congestion", "count"},
      {"core.aggregate_s", "s"},
      {"core.aggregate_rounds", "rounds"},
      {"core.aggregate_messages", "msgs"},
      {"core.aggregate_ns_per_msg", "ns"},
      {"apps.mst_phases", "count"},
      {"apps.select_rounds", "rounds"},
      {"apps.select_messages", "msgs"},
      {"apps.rebuild_rounds", "rounds"},
      {"apps.rebuild_messages", "msgs"},
      {"trace.overhead_s", "s"},
  };
  return k;
}

void add_sim_layers(Run& run, sim::Engine& eng, WorkloadOut& w) {
  if (!run.tracing()) return;
  const double empty_us = probe_empty_round_us(run, eng);
  const double ns_msg = probe_flood_ns_per_msg(run, eng);
  const Sample& s0 = w.samples.all.front();
  const double traced_p50 = median(w.samples.wall(true));
  std::vector<double> csw, cpw;
  for (const auto& s : w.samples.all) {
    if (!s.traced) continue;
    csw.push_back(static_cast<double>(s.vol_csw) / static_cast<double>(s.rounds));
    cpw.push_back(s.cpu / s.wall);
  }
  const auto r = static_cast<double>(s0.rounds);
  const auto msgs = static_cast<double>(s0.messages);
  w.layer["sim.empty_round_us"] = empty_us;
  w.layer["sim.ns_per_msg"] = ns_msg;
  w.layer["sim.msgs_per_round"] = msgs / r;
  // Modelled, not measured: what the solve would cost if it were nothing
  // but empty rounds plus flood-priced messages on this engine.
  w.layer["sim.est_share"] = (r * empty_us * 1e-6 + msgs * ns_msg * 1e-9) / traced_p50;
  w.layer["sim.vol_csw_per_round"] = median(csw);
  w.layer["sim.cpu_per_wall"] = median(cpw);
  w.layer["trace.overhead_s"] = traced_p50 - median(w.samples.wall(false));
}

Result finish(Run& run, WorkloadOut& w) {
  Result res;
  const Samples& s = w.samples;
  res.attempted = static_cast<long>(s.all.size());
  res.failed = static_cast<long>(s.failed());
  res.correct = res.failed == 0 && !s.drift && w.replay_ok;

  const auto walls = s.wall(false);
  const double solve_p50 = median(walls);
  const Sample& s0 = s.all.front();
  if (!run.tracing()) {
    const auto rounds = static_cast<double>(s0.rounds);
    const auto messages = static_cast<double>(s0.messages);
    res.metrics = {
        {"solve_s_p50", solve_p50, "s"},
        {"cpu_s_p50", median(s.cpu(false)), "s"},
        {"sim_msgs_per_s", messages / solve_p50, "msg/s"},
        {"setup_s", median(w.setup_s), "s"},
        {"peak_rss_mb", static_cast<double>(usage_now().ru_maxrss) / 1024.0, "MB"},
        {"rounds", rounds, "rounds"},
        {"messages", messages, "msgs"},
        {"msgs_per_m", messages / w.m, "ratio"},
        {"rounds_per_bound", rounds / w.bound, "ratio"},
        {"oracle_pass_rate",
         static_cast<double>(res.attempted - res.failed) /
             static_cast<double>(res.attempted),
         "fraction"},
    };
  } else {
    for (const auto& na : w.na) w.layer.emplace(na, 0.0);
    for (const auto& [name, unit] : per_layer_metrics()) {
      const auto it = w.layer.find(name);
      if (it == w.layer.end()) {
        std::fprintf(stderr, "perfbench: per-layer metric %s not measured\n",
                     name.c_str());
        res.correct = false;
        continue;
      }
      res.metrics.push_back({name, it->second, unit});
    }
  }

  auto& c = res.context;
  c["workload"] = quoted(run.opt().workload);
  c["seed"] = std::to_string(run.opt().seed);
  c["instances"] = std::to_string(w.instances);
  c["n"] = std::to_string(w.n);
  c["m_total"] = num(w.m);
  c["diameter_estimate"] =
      json_list(w.diameters, [](int d) { return std::to_string(d); });
  c["engine_threads"] = std::to_string(w.threads);
  c["samples_untraced"] = std::to_string(walls.size());
  c["samples_traced"] = std::to_string(s.all.size() - walls.size());
  c["setup_s_each"] = json_list(w.setup_s, num);
  c["solve_s_each"] = json_list(walls, num);
  const double tail = reportable_tail(walls.size());
  c["solve_s_tail"] =
      tail > 0 ? "{\"q\":" + num(tail) + ",\"value\":" + num(percentile(walls, tail)) + "}"
               : "null";
  c["nproc"] = std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  c["nivcsw"] = std::to_string(usage_now().ru_nivcsw - host_start().nivcsw);
  const long long steal = steal_ticks();
  c["steal_ticks"] = steal >= 0 && host_start().steal >= 0
                         ? std::to_string(steal - host_start().steal)
                         : "null";
  if (run.tracing()) {
    c["na"] = json_list(w.na, quoted);
    // Total and self time per span name, from the in-memory spans.
    const auto& spans = run.tracer().spans();
    const auto self = self_times(spans);
    std::map<std::string, std::pair<double, double>> by_name;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      by_name[spans[i].name].first += spans[i].dur();
      by_name[spans[i].name].second += self[i];
    }
    std::string js = "{";
    for (const auto& [name, ts] : by_name)
      js += (js.size() > 1 ? ",\"" : "\"") + name + "\":{\"total_s\":" +
            num(ts.first) + ",\"self_s\":" + num(ts.second) + "}";
    c["span_times"] = js + "}";
    const bool wrote = !run.opt().trace_out.empty() &&
                       write_chrome_trace(run.opt().trace_out, spans);
    c["trace_file"] = wrote ? quoted(run.opt().trace_out) : "null";
  }
  return res;
}

}  // namespace pb

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <mst_gnm|flood_gnm> "
               "--seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  pb::Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage();
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) usage();
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), &end);
      if (*end || !(o.seconds > 0)) usage();
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage();
      o.trace = v == "1";
    } else if (a == "--trace-out") {
      o.trace_out = v;
    } else {
      usage();
    }
  }

  pb::Run run(o);
  pb::WorkloadOut w;
  if (o.workload == "mst_gnm") {
    w = pb::run_mst_gnm(run);
  } else if (o.workload == "flood_gnm") {
    w = pb::run_flood_gnm(run);
  } else {
    usage();
  }
  const pb::Result r = pb::finish(run, w);

  std::string ctx = "{";
  for (const auto& [k, v] : r.context)
    ctx += (ctx.size() > 1 ? ",\"" : "\"") + k + "\":" + v;
  std::printf("context %s}\n", ctx.c_str());

  std::string metrics;
  for (const auto& m : r.metrics) {
    if (!pb::valid_metric_name(m.name) || !std::isfinite(m.value)) {
      std::fprintf(stderr, "perfbench: bad metric %s = %g\n", m.name.c_str(),
                   m.value);
      return 1;
    }
    char buf[256];
    std::snprintf(buf, sizeof buf, "%s\"%s\":{\"value\":%.17g,\"unit\":\"%s\"}",
                  metrics.empty() ? "" : ",", m.name.c_str(), m.value,
                  m.unit.c_str());
    metrics += buf;
  }
  std::printf("{\"correct\":%s,\"attempted\":%ld,\"failed\":%ld,\"metrics\":{%s}}\n",
              r.correct ? "true" : "false", r.attempted, r.failed,
              metrics.c_str());
  return 0;
}
