// perfbench: FluentPS end-to-end benchmark with per-layer timing.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-out <file>]
//
// Runs one workload for about --seconds, checks its outputs and prints one
// JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
// The human-readable report (every metric with unit and sample count, the
// output checks, the hop budget) goes to stderr. Exit code 0 iff every check
// passed and no operation failed.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench.h"
#include "common/rng.h"

namespace perfbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json ("end_to_end" and "per_layer").
constexpr MetricDef kEndToEnd[] = {
    {"iters_per_s", "1/s"},    {"sync_p50_us", "us"},   {"sync_p99_us", "us"},
    {"reads_per_s", "1/s"},    {"final_accuracy", "ratio"}, {"makespan_s", "s"},
    {"setup_s", "s"},          {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"ml.grad_us", "us"},
    {"ml.update_us", "us"},
    {"ps.worker.push_us", "us"},
    {"ps.worker.pull_us", "us"},
    {"ps.worker.wait_pull_us", "us"},
    {"ps.worker.handle_us", "us"},
    {"ps.server.push_handle_us", "us"},
    {"ps.server.pull_handle_us", "us"},
    {"ps.server.busy_frac", "ratio"},
    {"ps.server.pushes_per_sweep", "count"},
    {"ps.server.ring_stalls", "count"},
    {"ps.engine.dprs_per_100_iters", "count"},
    {"ps.engine.gated_pull_share", "ratio"},
    {"net.frames_per_iter", "count"},
    {"net.bytes_per_iter", "bytes"},
    {"net.recv_allocs", "count"},
    {"net.unattributed_us", "us"},
    {"sim.events_per_s", "1/s"},
    {"sim.events_per_iter", "count"},
    {"sim.messages_per_iter", "count"},
    {"sim.bytes_per_iter", "bytes"},
    {"replica.read_share", "ratio"},
    {"replica.fallbacks", "count"},
    {"replica.violations", "count"},
    {"replica.forwards_per_push", "count"},
    {"replica.fleet_pulls_per_s", "1/s"},
    {"trace.iteration_us", "us"},
    {"trace.residual_us", "us"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "<dense-small-inproc|dense-large-tcp|sim-64w-pssp|read-fleet-r2> --seed <n> "
               "--seconds <s> --trace <0|1> [--trace-out <file>]\n",
               msg);
  std::exit(2);
}

RunArgs parse(int argc, char** argv) {
  RunArgs a;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + key).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = val;
      have_workload = true;
    } else if (key == "--seed") {
      a.seed = std::strtoull(val.c_str(), &end, 10);
      if (*end != '\0') usage("--seed must be a whole number");
    } else if (key == "--seconds") {
      a.seconds = std::strtod(val.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0) || a.seconds > 120.0) {
        usage("--seconds must be in (0, 120]");
      }
    } else if (key == "--trace") {
      if (val != "0" && val != "1") usage("--trace must be 0 or 1");
      a.trace = val == "1";
    } else if (key == "--trace-out") {
      a.trace_out = val;
    } else {
      usage(("unknown argument " + key).c_str());
    }
  }
  if (!have_workload) usage("--workload is required");
  return a;
}

void json_number(std::string& out, double v) {
  if (!std::isfinite(v)) v = 0.0;  // JSON has no NaN/Inf; failures are flagged elsewhere
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

void Outcome::check(bool ok, std::int64_t ops, const std::string& what) {
  if (ok) return;
  failures.push_back(what);
  failed += std::max<std::int64_t>(ops, 1);
}

std::uint64_t episode_seed(std::uint64_t run_seed, std::size_t index) {
  return fluentps::derive_seed(run_seed, 0xE915u + index);
}

std::string episode_spread(const std::vector<double>& iters_per_s,
                           const std::vector<double>& steal) {
  std::vector<double> v = iters_per_s;
  std::sort(v.begin(), v.end());
  const std::vector<double> quiet = pick(iters_per_s, quiet_episodes(steal));
  char buf[240];
  std::snprintf(buf, sizeof(buf),
                "episodes: %zu, iters/s min %.1f median %.1f max %.1f; steal share median "
                "%.2f%% max %.2f%%; %zu quiet episodes, iters/s upper decile %.1f",
                v.size(), v.empty() ? 0.0 : v.front(), median(v), v.empty() ? 0.0 : v.back(),
                100.0 * median(steal), steal.empty() ? 0.0 : 100.0 * *std::max_element(
                                                                   steal.begin(), steal.end()),
                quiet.size(), fast_rate(quiet));
  return buf;
}

double now_s() noexcept {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                        std::chrono::steady_clock::now().time_since_epoch())
                                        .count());
}

double peak_rss_mb() {
  // VmHWM is the peak of this program's own address space. ru_maxrss would
  // also count the image the launcher had before exec (Linux carries the
  // pre-exec peak over), so it reads the Python launcher's size.
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

double quantile(std::vector<double>& v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

double median(std::vector<double> v) { return quantile(v, 0.5); }
double fast_rate(std::vector<double> rates) { return quantile(rates, 0.9); }
double fast_time(std::vector<double> times) { return quantile(times, 0.1); }

CpuTicks cpu_ticks() {
  // First line: "cpu  user nice system idle iowait irq softirq steal guest guest_nice".
  std::ifstream in("/proc/stat");
  std::string label;
  in >> label;
  CpuTicks t;
  if (label != "cpu") return t;
  for (int field = 0; field < 8; ++field) {
    std::uint64_t v = 0;
    if (!(in >> v)) return CpuTicks{};
    if (field != 3 && field != 4) t.busy += v;  // idle, iowait
    if (field == 7) t.steal = v;
  }
  return t;
}

double steal_share(const CpuTicks& from, const CpuTicks& to) {
  if (to.busy <= from.busy) return 0.0;
  return static_cast<double>(to.steal - from.steal) / static_cast<double>(to.busy - from.busy);
}

std::vector<std::size_t> quiet_episodes(const std::vector<double>& steal) {
  constexpr double kQuietSteal = 0.05;
  std::vector<double> sorted = steal;
  const double limit = std::max(kQuietSteal, quantile(sorted, 0.25));
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < steal.size(); ++i) {
    if (steal[i] <= limit) idx.push_back(i);
  }
  return idx;
}

std::vector<double> pick(const std::vector<double>& v, const std::vector<std::size_t>& idx) {
  std::vector<double> out;
  out.reserve(idx.size());
  for (const std::size_t i : idx) out.push_back(v[i]);
  return out;
}

void print_result(const RunArgs& args, const Outcome& out) {
  const bool correct = out.failures.empty() && out.failed == 0;
  std::fprintf(stderr, "\n== perfbench %s seed=%llu seconds=%g trace=%d ==\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.seconds,
               args.trace ? 1 : 0);
  for (const std::string& line : out.report) std::fprintf(stderr, "%s\n", line.c_str());

  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(std::max<std::int64_t>(out.attempted, 1));
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  std::fprintf(stderr, "%-30s %16s  %-6s %s\n", "metric", "value", "unit", "samples");
  bool first = true;
  auto emit = [&](const MetricDef& def) {
    const auto it = out.metrics.find(def.name);
    const Value v = it == out.metrics.end() ? Value{} : it->second;
    std::fprintf(stderr, "%-30s %16.6g  %-6s %zu\n", def.name, v.value, def.unit, v.samples);
    if (!first) json += ", ";
    first = false;
    json += "\"";
    json += def.name;
    json += "\": {\"value\": ";
    json_number(json, v.value);
    json += ", \"unit\": \"";
    json += def.unit;
    json += "\"}";
  };
  if (args.trace) {
    for (const MetricDef& d : kPerLayer) emit(d);
  } else {
    for (const MetricDef& d : kEndToEnd) emit(d);
  }
  const double ratio = static_cast<double>(out.failed) /
                       static_cast<double>(std::max<std::int64_t>(out.attempted, 1));
  std::fprintf(stderr, "%-30s %16.6g  %-6s %lld attempted\n", "failed_ops_ratio", ratio, "ratio",
               static_cast<long long>(out.attempted));
  for (const std::string& f : out.failures) std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  std::fprintf(stderr, "checks: %s\n", correct ? "all passed" : "FAILED");
  json += "}}";
  std::fflush(stderr);
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

Watchdog::Watchdog(const RunArgs& args)
    : args_(args), thread_([this](std::stop_token st) { watch(st); }) {}

Watchdog::~Watchdog() {
  thread_.request_stop();
  thread_.join();
}

void Watchdog::arm(std::size_t clients, double deadline_s, std::int64_t attempted_before,
                   std::int64_t episode_ops) {
  clients = std::min(clients, kMaxClients);
  for (std::size_t c = 0; c < clients; ++c) enter(c, "(not started)", -1);
  clients_.store(clients, std::memory_order_relaxed);
  done_.store(0, std::memory_order_relaxed);
  episode_ops_.store(episode_ops, std::memory_order_relaxed);
  attempted_before_.store(attempted_before, std::memory_order_relaxed);
  deadline_.store(now_s() + deadline_s, std::memory_order_release);
}

void Watchdog::disarm() { deadline_.store(0.0, std::memory_order_release); }

void Watchdog::watch(std::stop_token stop) {
  while (!stop.stop_requested()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const double deadline = deadline_.load(std::memory_order_acquire);
    if (deadline == 0.0 || now_s() < deadline) continue;

    const std::int64_t unfinished =
        episode_ops_.load(std::memory_order_relaxed) - done_.load(std::memory_order_relaxed);
    std::fprintf(stderr, "WATCHDOG: %s stalled past its deadline with %lld operations unfinished\n",
                 args_.workload.c_str(), static_cast<long long>(unfinished));
    const std::size_t n = clients_.load(std::memory_order_relaxed);
    for (std::size_t c = 0; c < n; ++c) {
      const std::int64_t iter = slots_[c].iter.load(std::memory_order_relaxed);
      std::fprintf(stderr, "WATCHDOG:   client %zu last open span: %s", c,
                   slots_[c].call.load(std::memory_order_relaxed));
      if (iter >= 0) std::fprintf(stderr, " at iteration %lld", static_cast<long long>(iter));
      std::fprintf(stderr, "\n");
    }
    Outcome out;
    out.attempted = attempted_before_.load(std::memory_order_relaxed) +
                    episode_ops_.load(std::memory_order_relaxed);
    out.failed = std::max<std::int64_t>(unfinished, 1);
    out.failures.push_back("watchdog: episode did not finish before its deadline");
    print_result(args_, out);
    // The stalled threads are blocked inside the program and cannot be
    // joined; end the process without running destructors.
    std::_Exit(3);
  }
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const RunArgs args = parse(argc, argv);
  Outcome out;
  {
    Watchdog wd(args);
    if (args.workload == "dense-small-inproc" || args.workload == "dense-large-tcp") {
      out = run_dense(args, wd);
    } else if (args.workload == "sim-64w-pssp") {
      out = run_sim(args, wd);
    } else if (args.workload == "read-fleet-r2") {
      out = run_fleet(args, wd);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  }
  if (!args.trace) {
    out.set("peak_rss_mb", peak_rss_mb(), 1);
    for (const auto& def : kEndToEnd) {
      const auto it = out.metrics.find(def.name);
      out.check(it != out.metrics.end() && it->second.value > 0.0, 0,
                std::string("end-to-end metric ") + def.name + " missing or not positive");
    }
  }
  print_result(args, out);
  return out.failures.empty() && out.failed == 0 ? 0 : 1;
}
