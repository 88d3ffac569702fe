// Shared types of the end-to-end benchmark driver (perfbench/README.md).
//
// A workload runs a number of fixed-size episodes until its time budget is
// spent and reports named metrics: the end-to-end set when untraced, the
// per-layer set when traced. Output checks are recorded on the Outcome, and
// every failed or missing operation is counted against the attempted ones.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< traced run: Chrome-trace file for the last traced episode
};

struct Value {
  double value = 0.0;
  std::size_t samples = 0;  ///< observations behind the value (episodes, iterations, ...)
};

struct Outcome {
  std::map<std::string, Value> metrics;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  ///< failed output checks, one line each
  std::vector<std::string> report;    ///< extra human-readable lines (hop budget, ...)

  void set(const std::string& name, double value, std::size_t samples) {
    metrics[name] = Value{value, samples};
  }
  /// Record an output check; a failed check counts `ops` operations as failed.
  void check(bool ok, std::int64_t ops, const std::string& what);
};

/// Stall detector: every client publishes the call it is in ("last open
/// span"). When an episode outlives its deadline, the watchdog prints who is
/// blocked where, counts the unfinished operations as failed, prints the
/// result line and exits non-zero — a hang becomes a diagnosed failure.
class Watchdog {
 public:
  explicit Watchdog(const RunArgs& args);
  ~Watchdog();
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

  /// Start an episode of `clients` clients and `episode_ops` operations that
  /// must finish within `deadline_s`; `attempted_before` counts the run's
  /// operations in earlier episodes.
  void arm(std::size_t clients, double deadline_s, std::int64_t attempted_before,
           std::int64_t episode_ops);
  void disarm();

  /// Client `c` enters `call` during iteration `iter` (relaxed stores).
  void enter(std::size_t c, const char* call, std::int64_t iter) noexcept {
    slots_[c].call.store(call, std::memory_order_relaxed);
    slots_[c].iter.store(iter, std::memory_order_relaxed);
  }
  /// One operation of the armed episode completed.
  void op_done() noexcept { done_.fetch_add(1, std::memory_order_relaxed); }

 private:
  struct alignas(64) Slot {
    std::atomic<const char*> call{"(not started)"};
    std::atomic<std::int64_t> iter{-1};
  };
  void watch(std::stop_token stop);

  const RunArgs& args_;
  static constexpr std::size_t kMaxClients = 16;
  Slot slots_[kMaxClients];
  std::atomic<std::size_t> clients_{0};
  std::atomic<double> deadline_{0.0};  ///< steady seconds; 0 = disarmed
  std::atomic<std::int64_t> done_{0};
  std::atomic<std::int64_t> episode_ops_{0};
  std::atomic<std::int64_t> attempted_before_{0};
  std::jthread thread_;
};

/// Input seed of episode `index` of a run: every episode draws fresh inputs,
/// so a run's medians average over several datasets and initialisations.
std::uint64_t episode_seed(std::uint64_t run_seed, std::size_t index);

/// One report line: min / median / upper decile / max of the per-episode
/// iteration rates, and how many episodes were quiet.
std::string episode_spread(const std::vector<double>& iters_per_s,
                           const std::vector<double>& steal);

/// Seconds on the steady clock (shared epoch for deadlines).
double now_s() noexcept;
/// Nanoseconds on the steady clock.
std::uint64_t now_ns() noexcept;

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// q-quantile (0..1) by linear interpolation; sorts `v` in place.
double quantile(std::vector<double>& v, double q);
double median(std::vector<double> v);

/// Wall-clock figures over a run's episodes. Other tenants of the host only
/// ever slow an episode down, and can slow whole stretches of a run by 2x or
/// more, so a run reports the decile on the fast side rather than the
/// median: the upper decile of a rate, the lower decile of a time.
double fast_rate(std::vector<double> rates);
double fast_time(std::vector<double> times);

/// Machine-wide CPU ticks from /proc/stat: the busy ones (every tick but
/// idle and iowait), and among them the "steal" ticks in which a virtual CPU
/// wanted to run but the hypervisor ran another guest. Zeros where
/// /proc/stat cannot be read.
struct CpuTicks {
  std::uint64_t steal = 0;
  std::uint64_t busy = 0;
};
CpuTicks cpu_ticks();
/// Stolen share of the busy ticks between two samples; 0 if none were
/// counted. Busy rather than all ticks, so that a workload that keeps one of
/// four CPUs busy sees the share its own CPU lost.
double steal_share(const CpuTicks& from, const CpuTicks& to);

/// The episodes a run takes its wall-clock figures from. On a shared host,
/// stretches of heavy steal slow episodes 3x and more; the program never
/// causes steal, so a run uses the episodes whose steal share is at most
/// max(5 %, the run's lower quartile of steal shares). That keeps every
/// episode of an undisturbed run and at least a quarter of any run.
std::vector<std::size_t> quiet_episodes(const std::vector<double>& steal);
/// The elements of `v` at `idx`.
std::vector<double> pick(const std::vector<double>& v, const std::vector<std::size_t>& idx);

/// Print the result line (and the human-readable report on stderr).
void print_result(const RunArgs& args, const Outcome& out);

// Workloads.
Outcome run_dense(const RunArgs& args, Watchdog& wd);
Outcome run_sim(const RunArgs& args, Watchdog& wd);
Outcome run_fleet(const RunArgs& args, Watchdog& wd);

}  // namespace perfbench
