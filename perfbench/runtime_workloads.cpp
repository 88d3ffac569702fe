// Workloads that go through core::run_experiment and read the program's own
// counts from ExperimentResult: the 64-worker PSSP simulation and the
// replicated read fleet on the threads backend.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <sstream>

#include "bench.h"
#include "common/rng.h"
#include "core/experiment.h"
#include "ml/eval.h"
#include "ml/model.h"
#include "ml/optimizer.h"
#include "obs/telemetry.h"

namespace perfbench {
namespace {

using namespace fluentps;

constexpr double kEpisodeDeadlineSeconds = 60.0;

/// The sim workload: the paper's Fig 9/10 regime. Same values as the
/// alexnet_like(64, 4, iters) config of the figure benches (bench/bench_util.h),
/// copied so that the benchmark's inputs change only when this file does.
core::ExperimentConfig sim_config(std::uint64_t seed, std::int64_t iters) {
  core::ExperimentConfig cfg;
  cfg.backend = core::Backend::kSim;
  cfg.num_workers = 64;
  cfg.num_servers = 4;
  cfg.max_iters = iters;
  cfg.model.kind = "mlp";
  cfg.model.hidden = 256;
  cfg.data.dim = 32;
  cfg.data.num_classes = 10;
  cfg.data.num_train = 4096;
  cfg.data.num_test = 1024;
  cfg.data.seed = derive_seed(seed, 0xDA7A);
  cfg.opt.kind = "momentum";
  cfg.opt.momentum = 0.9;
  cfg.opt.lr.base = 0.4;
  cfg.batch_size = 16;
  cfg.slicer = "eps";
  cfg.compute.kind = "heterogeneous";
  cfg.compute.base_seconds = 3.2 / 64.0;
  cfg.compute.sigma = 0.25;
  cfg.compute.worker_sigma = 0.25;
  cfg.compute.straggler_prob = 0.02;
  cfg.compute.slowdown = 4.0;
  cfg.net.latency_seconds = 200e-6;
  cfg.net.bandwidth_bytes_per_sec = 3e7;
  cfg.seed = seed;
  cfg.sync = {.kind = "pssp", .staleness = 3, .prob = 0.3};
  cfg.dpr_mode = ps::DprMode::kLazy;
  cfg.trace_iters = iters;  // per-iteration virtual sync times
  return cfg;
}

/// The read-fleet workload: 2 training workers under SSP on r=2 chains plus
/// 2 pull-only clients issuing staleness-bounded whole-model reads that
/// prefer replicas, with no modeled service sleep.
core::ExperimentConfig fleet_config(std::uint64_t seed, std::int64_t iters, std::int64_t pulls) {
  core::ExperimentConfig cfg;
  cfg.backend = core::Backend::kThreads;
  cfg.num_workers = 2;
  cfg.num_servers = 2;
  cfg.max_iters = iters;
  cfg.model.kind = "mlp";
  cfg.model.hidden = 32;
  cfg.data.dim = 32;
  cfg.data.num_classes = 10;
  cfg.data.num_train = 2048;
  cfg.data.num_test = 512;
  cfg.data.seed = derive_seed(seed, 0xDA7A);
  cfg.opt.kind = "sgd";
  cfg.opt.lr.base = 0.1;
  cfg.batch_size = 16;
  cfg.eps_chunk = 128;  // ~1.4k params: both servers own slices
  cfg.seed = seed;
  cfg.sync = {.kind = "ssp", .staleness = 3};
  cfg.dpr_mode = ps::DprMode::kLazy;
  cfg.replication_factor = 2;
  cfg.read.fleet = 2;
  cfg.read.pulls = pulls;
  cfg.read.max_staleness_clocks = 3;
  cfg.read.prefer_replica = true;
  cfg.read.serve_seconds = 0.0;
  // Registry only: no span capture, no snapshot thread, no files. The
  // worker.sync_ns histogram is the per-iteration sync time source.
  cfg.telemetry.enabled = true;
  cfg.telemetry.interval_ms = 0;
  cfg.telemetry.trace_spans = false;
  return cfg;
}

/// Model, initial parameters and initial test loss for a config; the
/// initial parameters are handed to the program as its input.
struct Inputs {
  ml::Dataset data;
  std::unique_ptr<ml::Model> model;
  std::vector<float> w0;
  double initial_loss = 0.0;
};

Inputs make_inputs(const core::ExperimentConfig& cfg) {
  Inputs in{ml::Dataset::synthesize(cfg.data), nullptr, {}, 0.0};
  in.model = ml::make_model(cfg.model, in.data.dim(), in.data.num_classes());
  in.w0.resize(in.model->num_params());
  Rng rng(cfg.seed, /*stream=*/0x1717);
  in.model->init_params(in.w0, rng);
  ml::Workspace ws;
  in.initial_loss = ml::test_loss(*in.model, in.w0, in.data, ws);
  return in;
}

/// Mean time of one grad and one optimizer update for the config's model and
/// batch size, measured outside the runtime (the runtime has no spans).
void time_ml(const core::ExperimentConfig& cfg, const Inputs& in, Outcome& out) {
  constexpr int kReps = 200;
  const std::size_t n = in.model->num_params();
  std::vector<float> grad(n);
  std::vector<float> update(n);
  auto opt = ml::make_optimizer(cfg.opt, *in.model);
  ml::BatchSampler sampler(in.data, 0, cfg.num_workers, cfg.batch_size, cfg.seed);
  ml::Workspace ws;
  double grad_s = 0.0;
  double update_s = 0.0;
  for (int i = 0; i < kReps; ++i) {
    const ml::Batch batch = sampler.next();
    const double t0 = now_s();
    (void)in.model->grad(in.w0, batch, grad, ws);
    const double t1 = now_s();
    opt->compute_update(in.w0, grad, i, update);
    update_s += now_s() - t1;
    grad_s += t1 - t0;
  }
  out.set("ml.grad_us", grad_s / kReps * 1e6, kReps);
  out.set("ml.update_us", update_s / kReps * 1e6, kReps);
}

/// FNV-1a over the raw float encodings: bit-exact parameter identity.
std::uint64_t digest(const std::vector<float>& params) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const float f : params) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, &f, sizeof(bits));
    for (int b = 0; b < 4; ++b) {
      h ^= (bits >> (8 * b)) & 0xFFu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Run one experiment under the watchdog; returns the result and wall time.
core::ExperimentResult run_watched(const core::ExperimentConfig& cfg, Watchdog& wd,
                                   std::int64_t attempted_before, std::int64_t ops,
                                   double* wall_s) {
  // The runtime has no hooks: a stall names only the call, not the worker
  // or iteration blocked inside it.
  wd.arm(1, kEpisodeDeadlineSeconds, attempted_before, ops);
  wd.enter(0, "core::run_experiment", -1);
  const double t0 = now_s();
  core::ExperimentResult r = core::run_experiment(cfg);
  *wall_s = now_s() - t0;
  wd.disarm();
  return r;
}

void check_common(const core::ExperimentResult& r, const core::ExperimentConfig& cfg,
                  const Inputs& in, std::int64_t ops, Outcome& out) {
  // shard_imbalance is max/mean shard size of the placement the runtime
  // used; with one of S servers empty it is at least S / (S - 1).
  const double s = cfg.num_servers;
  out.check(r.shard_imbalance < s / (s - 1.0), ops,
            "a server owns no slice (shard imbalance " + std::to_string(r.shard_imbalance) + ")");
  out.check(std::isfinite(r.final_loss), ops, "final loss is not finite");
  out.check(r.final_loss < in.initial_loss, ops,
            "loss did not fall: initial " + std::to_string(in.initial_loss) + ", final " +
                std::to_string(r.final_loss));
}

/// The worker.sync_ns histogram of a run's Prometheus dump (cumulative
/// buckets), as per-bucket counts keyed by each bucket's upper bound.
std::map<double, double> sync_histogram(const std::string& prom) {
  std::map<double, double> counts;
  std::istringstream in(prom);
  std::string line;
  const std::string prefix = "fluentps_worker_sync_ns_bucket{";
  double cumulative = 0.0;
  while (std::getline(in, line)) {
    if (line.rfind(prefix, 0) != 0) continue;
    const auto le = line.find("le=\"");
    const auto space = line.rfind(' ');
    if (le == std::string::npos || space == std::string::npos) continue;
    const auto close = line.find('"', le + 4);
    if (close == std::string::npos) continue;
    const std::string bound = line.substr(le + 4, close - le - 4);
    const double hi = bound == "+Inf" ? INFINITY : std::strtod(bound.c_str(), nullptr);
    const double cum = std::strtod(line.c_str() + space + 1, nullptr);
    counts[hi] += cum - cumulative;
    cumulative = cum;
  }
  return counts;
}

double total_count(const std::map<double, double>& counts) {
  double n = 0.0;
  for (const auto& [hi, c] : counts) n += c;
  return n;
}

/// q-quantile of a log2-bucketed histogram, interpolated linearly inside the
/// bucket that holds it (as Prometheus' histogram_quantile does).
double histogram_quantile(const std::map<double, double>& counts, double q) {
  const double rank = q * total_count(counts);
  double below = 0.0;
  for (const auto& [hi, c] : counts) {
    if (c > 0.0 && below + c >= rank && std::isfinite(hi)) {
      const auto b = obs::Histogram::bucket_of(static_cast<std::uint64_t>(hi));
      const double lo = static_cast<double>(obs::Histogram::bucket_lo(b));
      return lo + (hi + 1.0 - lo) * (rank - below) / c;
    }
    below += c;
  }
  return 0.0;
}

}  // namespace

Outcome run_sim(const RunArgs& args, Watchdog& wd) {
  constexpr std::int64_t kIters = 60;
  constexpr std::uint32_t kWorkers = 64;
  const std::int64_t ops = kIters * kWorkers;
  Outcome out;
  const double t0 = now_s();

  std::vector<double> ips;
  std::vector<double> setups;
  std::vector<double> makespans;
  std::vector<double> accs;
  std::vector<double> worker_sync;  // per worker: mean virtual sync per iteration
  std::vector<double> events_per_s;
  std::vector<double> steal;  // per episode, probe and run
  double events = 0.0;
  double messages = 0.0;
  double bytes = 0.0;
  double dprs = 0.0;
  double sweeps = 0.0;
  double stalls = 0.0;
  core::ExperimentConfig first_cfg;
  std::uint64_t first_digest = 0;
  std::size_t episodes = 0;
  while (episodes < 2 || now_s() - t0 < args.seconds) {
    core::ExperimentConfig cfg = sim_config(episode_seed(args.seed, episodes), kIters);
    const Inputs in = make_inputs(cfg);
    cfg.initial_params = in.w0;

    // Set-up time: a one-iteration run is almost all set-up (inputs, model,
    // placement, DES and node construction).
    const CpuTicks ticks_start = cpu_ticks();
    core::ExperimentConfig probe = cfg;
    probe.max_iters = 1;
    probe.trace_iters = 0;
    double wall = 0.0;
    (void)run_watched(probe, wd, out.attempted, kWorkers, &wall);
    out.attempted += kWorkers;
    setups.push_back(wall);

    core::ExperimentResult r = run_watched(cfg, wd, out.attempted, ops, &wall);
    steal.push_back(steal_share(ticks_start, cpu_ticks()));
    out.attempted += ops;
    check_common(r, cfg, in, ops, out);
    // Every sweep of a server's push combiner applies between 1 and
    // max_apply_batch pushes, so the summed sweeps bound the applied pushes.
    const std::int64_t want_pushes = ops * cfg.num_servers;
    const auto swept = static_cast<std::int64_t>(r.extra.at("apply_sweeps"));
    const auto max_batch = static_cast<std::int64_t>(r.extra.at("max_apply_batch"));
    out.check(swept <= want_pushes && want_pushes <= swept * max_batch, ops,
              "servers swept pushes " + std::to_string(swept) + " times, at most " +
                  std::to_string(max_batch) + " per sweep; want " + std::to_string(want_pushes) +
                  " pushes applied");
    if (episodes == 0) {
      first_cfg = cfg;
      first_digest = digest(r.final_params);
    }
    std::vector<double> per_worker(kWorkers, 0.0);
    for (const auto& t : r.trace) per_worker[t.worker] += (t.sync_end - t.compute_end) * 1e6;
    for (const double s : per_worker) worker_sync.push_back(s / static_cast<double>(kIters));
    ips.push_back(static_cast<double>(ops) / wall);
    makespans.push_back(r.total_time);
    accs.push_back(r.final_accuracy);
    events_per_s.push_back(r.extra["events"] / wall);
    events += r.extra["events"];
    messages += static_cast<double>(r.messages);
    bytes += r.bytes_total;
    dprs += static_cast<double>(r.dpr_total);
    sweeps += r.extra["apply_sweeps"];
    stalls += r.extra["ring_stalls"];
    ++episodes;
  }

  // Determinism oracle: the first episode's seed, run again, must give a
  // bit-identical model.
  {
    double wall = 0.0;
    const core::ExperimentResult again = run_watched(first_cfg, wd, out.attempted, ops, &wall);
    out.attempted += ops;
    out.check(digest(again.final_params) == first_digest, ops,
              "sim params digest differs between two runs of one seed");
  }

  const std::size_t n_sync = worker_sync.size();
  const std::vector<std::size_t> quiet = quiet_episodes(steal);
  const double iters_per_s = fast_rate(pick(ips, quiet));
  out.set("iters_per_s", iters_per_s, quiet.size());
  out.set("sync_p50_us", quantile(worker_sync, 0.50), n_sync);  // virtual time
  out.set("sync_p99_us", quantile(worker_sync, 0.99), n_sync);
  out.set("reads_per_s", iters_per_s, quiet.size());  // one whole-model pull per iteration
  out.set("final_accuracy", median(accs), episodes);
  out.set("makespan_s", median(makespans), episodes);  // virtual time
  out.set("setup_s", fast_time(pick(setups, quiet)), quiet.size());
  out.report.push_back(episode_spread(ips, steal));
  char line[200];
  std::snprintf(line, sizeof(line),
                "params digest %016llx of episode 0 reproduced bit-exactly by a second run",
                static_cast<unsigned long long>(first_digest));
  out.report.push_back(line);

  if (args.trace) {
    const auto k = static_cast<double>(episodes);
    const double n_iter = static_cast<double>(ops) * k;
    const double shard_pulls = n_iter * first_cfg.num_servers;
    time_ml(first_cfg, make_inputs(first_cfg), out);
    out.set("ps.engine.dprs_per_100_iters", dprs * 100.0 / (static_cast<double>(kIters) * k),
            episodes);
    out.set("ps.engine.gated_pull_share", dprs / shard_pulls, episodes);
    out.set("ps.server.pushes_per_sweep", sweeps > 0.0 ? shard_pulls / sweeps : 0.0, episodes);
    out.set("ps.server.ring_stalls", stalls, episodes);
    out.set("sim.events_per_s", fast_rate(pick(events_per_s, quiet)), quiet.size());
    out.set("sim.events_per_iter", events / n_iter, episodes);
    out.set("sim.messages_per_iter", messages / n_iter, episodes);
    out.set("sim.bytes_per_iter", bytes / n_iter, episodes);
    const double ml_share = out.metrics["ml.grad_us"].value * 1e-6 * iters_per_s;
    std::snprintf(line, sizeof(line),
                  "sim: %.0f events per run; gradient math is ~%.0f%% of wall time "
                  "(ml.grad_us x iters_per_s)",
                  events / k, 100.0 * ml_share);
    out.report.push_back(line);
  }
  return out;
}

Outcome run_fleet(const RunArgs& args, Watchdog& wd) {
  // Short episodes (about 0.12 s): a run of many of them still finds quiet
  // ones when steal storms cover most of it.
  constexpr std::int64_t kIters = 1000;
  constexpr std::int64_t kPulls = 2000;
  Outcome out;
  const double t0 = now_s();
  const core::ExperimentConfig base = fleet_config(args.seed, kIters, kPulls);
  const std::int64_t train_ops = kIters * base.num_workers;
  const std::int64_t fleet_ops = kPulls * base.read.fleet;
  const std::int64_t ops = train_ops + fleet_ops;
  const double shard_pushes = static_cast<double>(train_ops) * base.num_servers;

  std::vector<double> ips;
  std::vector<double> rps;
  std::vector<double> makespans;
  std::vector<double> setups;
  std::vector<double> accs;
  std::vector<double> fleet_rate;
  std::vector<double> p50s;  // per episode, from the worker.sync_ns histogram (us)
  std::vector<double> p99s;
  std::vector<double> steal;
  double n_sync = 0.0;
  double replica_reads = 0.0;
  double head_reads = 0.0;
  double fallbacks = 0.0;
  double violations = 0.0;
  double forwards = 0.0;
  double dprs = 0.0;
  double messages = 0.0;
  double sweeps = 0.0;
  double stalls = 0.0;
  std::int64_t retries = 0;
  std::size_t episodes = 0;
  while (episodes < 3 || now_s() - t0 < args.seconds) {
    core::ExperimentConfig cfg = fleet_config(episode_seed(args.seed, episodes), kIters, kPulls);
    const Inputs in = make_inputs(cfg);
    cfg.initial_params = in.w0;
    double wall = 0.0;
    const CpuTicks ticks_start = cpu_ticks();
    const core::ExperimentResult r = run_watched(cfg, wd, out.attempted, ops, &wall);
    steal.push_back(steal_share(ticks_start, cpu_ticks()));
    out.attempted += ops;
    check_common(r, cfg, in, train_ops, out);
    out.check(r.read_violations == 0, r.read_violations,
              std::to_string(r.read_violations) + " bounded reads violated the staleness bound");
    out.check(r.fleet_pulls == fleet_ops, fleet_ops - std::min(fleet_ops, r.fleet_pulls),
              "fleet completed " + std::to_string(r.fleet_pulls) + " pulls, want " +
                  std::to_string(fleet_ops));
    const auto replica_applied = static_cast<std::int64_t>(r.extra.at("replica_applied"));
    out.check(r.replicated_updates == static_cast<std::int64_t>(shard_pushes) &&
                  replica_applied == static_cast<std::int64_t>(shard_pushes),
              train_ops,
              "chains applied " + std::to_string(r.replicated_updates) + " head / " +
                  std::to_string(replica_applied) + " replica pushes, want " +
                  std::to_string(static_cast<std::int64_t>(shard_pushes)) + " each");
    const double train_s = r.compute_time + r.comm_time;  // mean per-worker loop time
    ips.push_back(static_cast<double>(train_ops) / train_s);
    rps.push_back(static_cast<double>(train_ops + r.fleet_pulls) / r.total_time);
    makespans.push_back(r.total_time);
    setups.push_back(wall - r.total_time);
    accs.push_back(r.final_accuracy);
    fleet_rate.push_back(r.fleet_throughput);
    const std::map<double, double> sync_hist = sync_histogram(r.prometheus);
    n_sync += total_count(sync_hist);
    p50s.push_back(histogram_quantile(sync_hist, 0.50) / 1e3);
    p99s.push_back(histogram_quantile(sync_hist, 0.99) / 1e3);
    replica_reads += static_cast<double>(r.replica_reads_served);
    head_reads += static_cast<double>(r.head_reads_served);
    fallbacks += static_cast<double>(r.replica_read_fallbacks);
    violations += static_cast<double>(r.read_violations);
    forwards += static_cast<double>(r.replicated_updates);
    dprs += static_cast<double>(r.dpr_total);
    messages += static_cast<double>(r.messages);
    sweeps += r.extra.at("apply_sweeps");
    stalls += r.extra.at("ring_stalls");
    retries += r.worker_retries;
    ++episodes;
  }
  const std::vector<std::size_t> quiet = quiet_episodes(steal);
  const std::size_t n_quiet = quiet.size();
  out.set("iters_per_s", fast_rate(pick(ips, quiet)), n_quiet);
  out.set("sync_p50_us", fast_time(pick(p50s, quiet)), static_cast<std::size_t>(n_sync));
  out.set("sync_p99_us", fast_time(pick(p99s, quiet)), static_cast<std::size_t>(n_sync));
  out.set("reads_per_s", fast_rate(pick(rps, quiet)), n_quiet);
  out.set("final_accuracy", median(accs), episodes);
  out.set("makespan_s", fast_time(pick(makespans, quiet)), n_quiet);
  out.set("setup_s", fast_time(pick(setups, quiet)), n_quiet);
  out.report.push_back(episode_spread(ips, steal));
  // Replication turns on the retransmit ladder; timeouts under a slow host
  // show up here.
  out.report.push_back("worker retransmit rounds: " + std::to_string(retries));

  if (args.trace) {
    const auto k = static_cast<double>(episodes);
    const double n_iter = static_cast<double>(train_ops) * k;
    time_ml(base, make_inputs(base), out);
    out.set("ps.engine.dprs_per_100_iters", dprs * 100.0 / (static_cast<double>(kIters) * k),
            episodes);
    out.set("ps.engine.gated_pull_share", dprs / (shard_pushes * k), episodes);
    out.set("ps.server.pushes_per_sweep", sweeps > 0.0 ? shard_pushes * k / sweeps : 0.0,
            episodes);
    out.set("ps.server.ring_stalls", stalls, episodes);
    out.set("net.frames_per_iter", messages / n_iter, episodes);
    const double reads = replica_reads + head_reads;
    out.set("replica.read_share", reads > 0.0 ? replica_reads / reads : 0.0,
            static_cast<std::size_t>(reads));
    out.set("replica.fallbacks", fallbacks / k, episodes);
    out.set("replica.violations", violations, static_cast<std::size_t>(reads));
    out.set("replica.forwards_per_push", forwards / n_iter, episodes);
    out.set("replica.fleet_pulls_per_s", fast_rate(pick(fleet_rate, quiet)), n_quiet);
  }
  return out;
}

}  // namespace perfbench
