// Dense training workloads: a benchmark-owned driver over the public PS API.
//
// Each worker thread runs the same loop as the threads runtime
// (core/thread_runtime.cpp, ThreadRun::worker_loop):
//   ml::Model::grad -> ml::Optimizer::compute_update -> ps::WorkerClient::push
//   -> pull -> wait_pull
// over net::InprocTransport or net::TcpTransport. The driver registers the
// transport handlers itself, so in the traced run it wraps Server::handle and
// WorkerClient::handle in its own spans; nothing inside the library is
// instrumented.
#include <cmath>
#include <cstdio>
#include <latch>
#include <memory>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/eval.h"
#include "ml/model.h"
#include "ml/optimizer.h"
#include "net/inproc_transport.h"
#include "net/tcp_transport.h"
#include "ps/server.h"
#include "ps/slicing.h"
#include "ps/worker.h"
#include "trace.h"

namespace perfbench {
namespace {

using namespace fluentps;

struct DenseShape {
  bool tcp = false;
  std::uint32_t workers = 3;
  std::uint32_t servers = 2;
  ml::ModelSpec model;
  ml::DataSpec data;
  ml::OptimizerSpec opt;
  std::size_t batch = 16;
  std::size_t chunk = 1024;  ///< EPS slicer chunk
  ps::SyncModelSpec sync;
  std::int64_t iters = 100;  ///< per worker per episode
};

DenseShape shape_for(const std::string& workload) {
  DenseShape s;
  if (workload == "dense-small-inproc") {
    // Message-bound: 650-parameter softmax, microseconds of math per
    // iteration, so the transport queue, dispatcher wake and engine gate set
    // the time. Chunk 64 splits the 640-weight layer across both servers
    // (the default chunk of 1024 would leave server 1 only the 10 biases).
    s.tcp = false;
    s.workers = 3;
    s.servers = 2;
    s.model.kind = "softmax";
    s.data.dim = 64;
    s.data.num_classes = 10;
    s.data.num_train = 3072;
    s.data.num_test = 1024;
    s.opt.kind = "sgd";
    s.opt.lr.base = 0.1;
    s.batch = 16;
    s.chunk = 64;
    s.sync = {.kind = "ssp", .staleness = 3};
    s.iters = 2500;
  } else {
    // Bytes-bound: ~268k-parameter (1 MB) MLP, batch 4, BSP, one server over
    // loopback TCP — codec, socket and striped apply/combiner dominate, and
    // each worker has its own connection so server handlers run concurrently.
    s.tcp = true;
    s.workers = 3;
    s.servers = 1;
    s.model.kind = "mlp";
    s.model.hidden = 512;
    s.data.dim = 512;
    s.data.num_classes = 10;
    s.data.num_train = 2048;
    s.data.num_test = 512;
    s.opt.kind = "sgd";
    s.opt.lr.base = 0.05;
    s.batch = 4;
    s.sync = {.kind = "bsp"};
    s.iters = 400;
  }
  return s;
}

/// An episode takes well under a second; one that runs this long is stalled.
constexpr double kEpisodeDeadlineSeconds = 30.0;
/// Iterations per worker written to the Chrome trace (keeps the file small).
constexpr std::size_t kTraceFileIters = 400;

net::NodeId server_node(std::uint32_t m) { return 1 + m; }
net::NodeId worker_node(const DenseShape& s, std::uint32_t w) { return 1 + s.servers + w; }

struct Episode {
  double setup_s = 0.0;
  double wall_s = 0.0;
  double steal = 0.0;  ///< stolen share of the busy CPU ticks, set-up to last iteration
  double sync_p50_us = 0.0;  ///< push start -> wait_pull return, over all iterations
  double sync_p99_us = 0.0;
  double accuracy = 0.0;
  double loss_head = 0.0;  ///< mean minibatch loss over the first tenth of iterations
  double loss_tail = 0.0;  ///< ... and over the last tenth
  bool losses_finite = true;
  std::vector<std::int64_t> pushes_applied;  ///< per server
  std::vector<std::size_t> shard_sizes;      ///< per server
  std::int64_t dprs = 0;
  std::int64_t pulls_answered = 0;
  std::int64_t sweeps = 0;
  std::int64_t ring_stalls = 0;
  std::size_t max_batch = 0;
  std::uint64_t frames = 0;
  std::uint64_t bytes = 0;
  std::uint64_t recv_allocs = 0;
  HopBudget budget;  ///< traced episodes only
};

Episode run_episode(const DenseShape& s, std::uint64_t seed, bool traced, Watchdog& wd,
                    const std::string& trace_path, std::int64_t attempted_before) {
  Episode ep;
  const double t_start = now_s();
  const CpuTicks ticks_start = cpu_ticks();

  // --- set-up: inputs, model, placement, transports, servers, clients ------
  ml::DataSpec data_spec = s.data;
  data_spec.seed = derive_seed(seed, 0xDA7A);
  const ml::Dataset data = ml::Dataset::synthesize(data_spec);
  const auto model = ml::make_model(s.model, data.dim(), data.num_classes());
  const std::size_t n_params = model->num_params();
  std::vector<float> w0(n_params);
  Rng init_rng(seed, /*stream=*/0x1717);
  model->init_params(w0, init_rng);
  const ps::Sharding sharding = ps::EpsSlicer(s.chunk).shard(model->layer_sizes(), s.servers);
  for (const auto& shard : sharding.shards) ep.shard_sizes.push_back(shard.total);

  SpanLog spans;
  std::atomic<std::uint64_t> handled_bytes{0};
  const auto cur_iter = std::make_unique<std::atomic<std::int64_t>[]>(s.workers);
  std::vector<std::vector<IterTimes>> iter_times(s.workers);
  if (traced) {
    for (auto& v : iter_times) v.resize(static_cast<std::size_t>(s.iters));
  }

  // Transports are declared before the nodes that reference them and shut
  // down explicitly before any node is destroyed.
  net::InprocTransport inproc;
  std::vector<std::unique_ptr<net::TcpTransport>> tcp_servers;
  std::vector<std::unique_ptr<net::TcpTransport>> tcp_workers;
  std::vector<std::uint16_t> server_ports;
  if (s.tcp) {
    for (std::uint32_t m = 0; m < s.servers; ++m) {
      tcp_servers.push_back(std::make_unique<net::TcpTransport>());
    }
    for (std::uint32_t w = 0; w < s.workers; ++w) {
      tcp_workers.push_back(std::make_unique<net::TcpTransport>());
    }
  }
  auto server_transport = [&](std::uint32_t m) -> net::Transport& {
    return s.tcp ? static_cast<net::Transport&>(*tcp_servers[m]) : inproc;
  };
  auto worker_transport = [&](std::uint32_t w) -> net::Transport& {
    return s.tcp ? static_cast<net::Transport&>(*tcp_workers[w]) : inproc;
  };

  std::vector<std::unique_ptr<ps::Server>> servers;
  for (std::uint32_t m = 0; m < s.servers; ++m) {
    ps::ServerSpec spec;
    spec.node_id = server_node(m);
    spec.server_rank = m;
    spec.num_workers = s.workers;
    spec.layout = sharding.shards[m];
    spec.initial_shard.resize(spec.layout.total);
    spec.layout.gather(w0, spec.initial_shard);
    spec.engine.num_workers = s.workers;
    spec.engine.mode = ps::DprMode::kLazy;
    spec.engine.model = ps::make_sync_model(s.sync, s.workers);
    spec.engine.seed = derive_seed(seed, 0x5E57E8 + m);
    servers.push_back(std::make_unique<ps::Server>(std::move(spec), server_transport(m)));
    ps::Server* srv = servers.back().get();
    const net::NodeId node = server_node(m);
    server_transport(m).register_node(node, [srv, node, traced, &spans,
                                             &handled_bytes](net::Message&& msg) {
      if (!traced) {
        srv->handle(std::move(msg));
        return;
      }
      const std::uint64_t t0 = now_ns();
      const char* name = msg.type == net::MsgType::kPush ? "server.push" : "server.pull";
      const std::uint32_t worker = msg.worker_rank;
      const std::int64_t iter = msg.progress;
      handled_bytes.fetch_add(msg.frame_bytes(), std::memory_order_relaxed);
      srv->handle(std::move(msg));
      spans.record(Span{name, t0, now_ns(), worker, iter, node});
    });
  }

  std::vector<std::unique_ptr<ps::WorkerClient>> clients;
  for (std::uint32_t w = 0; w < s.workers; ++w) {
    ps::WorkerSpec spec;
    spec.node_id = worker_node(s, w);
    spec.worker_rank = w;
    for (std::uint32_t m = 0; m < s.servers; ++m) spec.server_nodes.push_back(server_node(m));
    spec.sharding = &sharding;
    clients.push_back(std::make_unique<ps::WorkerClient>(std::move(spec), worker_transport(w)));
    ps::WorkerClient* cl = clients.back().get();
    const net::NodeId node = worker_node(s, w);
    std::atomic<std::int64_t>* iter_now = &cur_iter[w];
    worker_transport(w).register_node(
        node, [cl, node, w, traced, iter_now, &spans, &handled_bytes](net::Message&& msg) {
          if (!traced) {
            cl->handle(std::move(msg));
            return;
          }
          const std::uint64_t t0 = now_ns();
          const std::int64_t iter = iter_now->load(std::memory_order_relaxed);
          handled_bytes.fetch_add(msg.frame_bytes(), std::memory_order_relaxed);
          cl->handle(std::move(msg));
          spans.record(Span{"worker.handle", t0, now_ns(), w, iter, node});
        });
  }

  if (s.tcp) {
    for (std::uint32_t m = 0; m < s.servers; ++m) server_ports.push_back(tcp_servers[m]->listen());
    for (std::uint32_t w = 0; w < s.workers; ++w) {
      const std::uint16_t port = tcp_workers[w]->listen();
      for (std::uint32_t m = 0; m < s.servers; ++m) {
        tcp_workers[w]->add_route(server_node(m), "127.0.0.1", server_ports[m]);
        tcp_servers[m]->add_route(worker_node(s, w), "127.0.0.1", port);
      }
    }
  }

  // --- training: closed loop per worker -----------------------------------
  std::vector<std::vector<double>> sync_us(s.workers);
  std::vector<std::vector<double>> losses(s.workers);
  std::vector<std::uint64_t> finish_ns(s.workers, 0);
  std::latch ready(s.workers);  // every worker built its local state
  std::latch start(1);
  wd.arm(s.workers, kEpisodeDeadlineSeconds, attempted_before,
         static_cast<std::int64_t>(s.workers) * s.iters);
  {
    std::vector<std::jthread> threads;
    for (std::uint32_t w = 0; w < s.workers; ++w) {
      threads.emplace_back([&, w] {
        ps::WorkerClient& client = *clients[w];
        std::vector<float> params = w0;
        std::vector<float> pulled(n_params);
        std::vector<float> grad(n_params);
        std::vector<float> update(n_params);
        auto opt = ml::make_optimizer(s.opt, *model);
        ml::BatchSampler sampler(data, w, s.workers, s.batch, seed);
        ml::Workspace ws;
        sync_us[w].reserve(static_cast<std::size_t>(s.iters));
        losses[w].reserve(static_cast<std::size_t>(s.iters));
        ready.count_down();
        start.wait();
        for (std::int64_t iter = 0; iter < s.iters; ++iter) {
          cur_iter[w].store(iter, std::memory_order_relaxed);
          IterTimes t;
          if (traced) t.t[0] = now_ns();
          const ml::Batch batch = sampler.next();
          wd.enter(w, "ml::Model::grad", iter);
          if (traced) t.t[1] = now_ns();
          losses[w].push_back(model->grad(params, batch, grad, ws));
          if (traced) t.t[2] = now_ns();
          wd.enter(w, "ml::Optimizer::compute_update", iter);
          opt->compute_update(params, grad, iter, update);
          t.t[3] = now_ns();
          wd.enter(w, "ps::WorkerClient::push", iter);
          client.push(update, iter);
          if (traced) t.t[4] = now_ns();
          wd.enter(w, "ps::WorkerClient::pull", iter);
          const std::uint64_t ticket =
              client.pull(ps::KeyRange::all(), ps::ReadOptions{.clock = iter});
          if (traced) t.t[5] = now_ns();
          wd.enter(w, "ps::WorkerClient::wait_pull", iter);
          client.wait_pull(ticket, pulled);
          t.t[6] = now_ns();
          params = pulled;
          sync_us[w].push_back(static_cast<double>(t.t[6] - t.t[3]) / 1e3);
          if (traced) {
            t.t[7] = now_ns();
            iter_times[w][static_cast<std::size_t>(iter)] = t;
          }
          wd.op_done();
        }
        wd.enter(w, "(finished)", s.iters);
        finish_ns[w] = now_ns();
      });
    }
    ready.wait();
    ep.setup_s = now_s() - t_start;
    const std::uint64_t release_ns = now_ns();
    start.count_down();
    threads.clear();  // join
    ep.steal = steal_share(ticks_start, cpu_ticks());
    std::uint64_t last = release_ns;
    for (const std::uint64_t f : finish_ns) last = std::max(last, f);
    ep.wall_s = static_cast<double>(last - release_ns) / 1e9;
  }
  wd.disarm();  // every iteration completed; a stall ends the process

  // --- collect: final model, counters, spans ------------------------------
  std::vector<float> final_params(n_params, 0.0f);
  for (const auto& srv : servers) {
    srv->snapshot_into(final_params);
    ep.pushes_applied.push_back(srv->pushes_applied());
    ep.dprs += srv->engine().dpr_total();
    ep.pulls_answered += srv->pulls_answered();
    ep.sweeps += srv->apply_sweeps();
    ep.ring_stalls += srv->ring_stalls();
    ep.max_batch = std::max(ep.max_batch, srv->max_batch());
  }
  if (s.tcp) {
    for (const auto& t : tcp_servers) {
      ep.frames += t->frames_sent();
      ep.bytes += t->bytes_sent();
      ep.recv_allocs += t->recv_allocations();
    }
    for (const auto& t : tcp_workers) {
      ep.frames += t->frames_sent();
      ep.bytes += t->bytes_sent();
      ep.recv_allocs += t->recv_allocations();
    }
    for (auto& t : tcp_workers) t->shutdown();
    for (auto& t : tcp_servers) t->shutdown();
  } else {
    ep.frames = inproc.delivered();
    ep.bytes = handled_bytes.load();
  }
  inproc.shutdown();

  ml::Workspace ws;
  ep.accuracy = ml::test_accuracy(*model, final_params, data, ws);
  const std::size_t tenth = std::max<std::size_t>(1, static_cast<std::size_t>(s.iters) / 10);
  double head = 0.0;
  double tail = 0.0;
  for (const auto& l : losses) {
    for (const double v : l) ep.losses_finite = ep.losses_finite && std::isfinite(v);
    for (std::size_t i = 0; i < tenth; ++i) {
      head += l[i];
      tail += l[l.size() - 1 - i];
    }
  }
  ep.loss_head = head / static_cast<double>(tenth * s.workers);
  ep.loss_tail = tail / static_cast<double>(tenth * s.workers);
  std::vector<double> sync;
  for (const auto& v : sync_us) sync.insert(sync.end(), v.begin(), v.end());
  ep.sync_p50_us = quantile(sync, 0.50);
  ep.sync_p99_us = quantile(sync, 0.99);

  if (traced) {
    const std::vector<Span> handlers = spans.collect();
    std::vector<std::uint32_t> nodes;
    for (std::uint32_t m = 0; m < s.servers; ++m) nodes.push_back(server_node(m));
    ep.budget = analyse(iter_times, handlers, nodes,
                        static_cast<std::uint64_t>(ep.wall_s * 1e9));
    if (!trace_path.empty()) {
      write_chrome_trace(trace_path, iter_times, handlers, worker_node(s, 0), kTraceFileIters);
    }
  }
  return ep;
}

/// Iteration-weighted mean of the traced episodes' hop budgets.
HopBudget pool(const std::vector<HopBudget>& budgets) {
  HopBudget out;
  double n = 0.0;
  for (const HopBudget& b : budgets) {
    const auto k = static_cast<double>(b.iterations);
    n += k;
    out.iterations += b.iterations;
    out.iteration_us += k * b.iteration_us;
    out.grad_us += k * b.grad_us;
    out.update_us += k * b.update_us;
    out.push_us += k * b.push_us;
    out.pull_us += k * b.pull_us;
    out.wait_pull_us += k * b.wait_pull_us;
    out.wait_server_us += k * b.wait_server_us;
    out.wait_worker_us += k * b.wait_worker_us;
    out.wait_unattributed_us += k * b.wait_unattributed_us;
    out.residual_us += k * b.residual_us;
    out.worker_handle_us += k * b.worker_handle_us;
    out.server_push_handle_us += k * b.server_push_handle_us;
    out.server_pull_handle_us += k * b.server_pull_handle_us;
    out.server_busy_frac += k * b.server_busy_frac;
  }
  if (n == 0.0) return out;
  for (double* f : {&out.iteration_us, &out.grad_us, &out.update_us, &out.push_us, &out.pull_us,
                    &out.wait_pull_us, &out.wait_server_us, &out.wait_worker_us,
                    &out.wait_unattributed_us, &out.residual_us, &out.worker_handle_us,
                    &out.server_push_handle_us, &out.server_pull_handle_us,
                    &out.server_busy_frac}) {
    *f /= n;
  }
  return out;
}

std::string budget_line(const char* name, double us, double total) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-40s %10.2f us %6.1f%%", name, us,
                total > 0.0 ? 100.0 * us / total : 0.0);
  return buf;
}

}  // namespace

Outcome run_dense(const RunArgs& args, Watchdog& wd) {
  const DenseShape s = shape_for(args.workload);
  Outcome out;
  const std::int64_t ops = static_cast<std::int64_t>(s.workers) * s.iters;
  std::vector<Episode> plain;
  std::vector<Episode> traced;
  const double t0 = now_s();
  // Untraced run: plain episodes only. Traced run: alternate plain and traced
  // episodes, so the tracing overhead is measured under the same conditions.
  while (plain.size() < 3 || (args.trace && traced.size() < 2) || now_s() - t0 < args.seconds) {
    const bool trace_this = args.trace && plain.size() > traced.size();
    const std::string path = trace_this ? args.trace_out : std::string();
    const std::size_t index = plain.size() + traced.size();
    Episode ep = run_episode(s, episode_seed(args.seed, index), trace_this, wd, path,
                             static_cast<std::int64_t>(index) * ops);
    (trace_this ? traced : plain).push_back(std::move(ep));
  }

  std::vector<double> ips;
  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<double> accs;
  std::vector<double> p50s;
  std::vector<double> p99s;
  std::vector<double> steal;
  for (const std::vector<Episode>* set : {&plain, &traced}) {
    for (const Episode& ep : *set) {
      out.attempted += ops;
      for (std::uint32_t m = 0; m < s.servers; ++m) {
        out.check(ep.shard_sizes[m] > 0, ops, "server " + std::to_string(m) + " owns no slice");
        out.check(ep.pushes_applied[m] == ops, ops - std::min(ops, ep.pushes_applied[m]),
                  "server " + std::to_string(m) + " applied " +
                      std::to_string(ep.pushes_applied[m]) + " pushes, want " +
                      std::to_string(ops));
      }
      out.check(ep.losses_finite, ops, "a minibatch loss is not finite");
      out.check(ep.loss_tail < ep.loss_head, ops,
                "loss did not fall: first tenth " + std::to_string(ep.loss_head) +
                    ", last tenth " + std::to_string(ep.loss_tail));
    }
  }
  for (const Episode& ep : plain) {
    ips.push_back(static_cast<double>(ops) / ep.wall_s);
    walls.push_back(ep.wall_s);
    setups.push_back(ep.setup_s);
    accs.push_back(ep.accuracy);
    p50s.push_back(ep.sync_p50_us);
    p99s.push_back(ep.sync_p99_us);
    steal.push_back(ep.steal);
  }
  // Latency quantiles are taken per episode (every iteration of every
  // worker), so memory stays flat however many episodes a run fits.
  const std::vector<std::size_t> quiet = quiet_episodes(steal);
  const auto n_sync = static_cast<std::size_t>(ops) * quiet.size();
  const double iters_per_s = fast_rate(pick(ips, quiet));
  out.set("iters_per_s", iters_per_s, quiet.size());
  out.set("sync_p50_us", fast_time(pick(p50s, quiet)), n_sync);
  out.set("sync_p99_us", fast_time(pick(p99s, quiet)), n_sync);
  out.set("reads_per_s", iters_per_s, quiet.size());  // one whole-model pull per iteration
  out.set("final_accuracy", median(accs), plain.size());
  out.set("makespan_s", fast_time(pick(walls, quiet)), quiet.size());
  out.set("setup_s", fast_time(pick(setups, quiet)), quiet.size());
  out.report.push_back(episode_spread(ips, steal));

  if (args.trace) {
    std::vector<HopBudget> budgets;
    std::vector<double> traced_ips;
    std::vector<double> traced_steal;
    double iters = 0.0;
    double dprs = 0.0;
    double pulls = 0.0;
    double sweeps = 0.0;
    double pushes = 0.0;
    double stalls = 0.0;
    double frames = 0.0;
    double bytes = 0.0;
    double allocs = 0.0;
    std::size_t max_batch = 0;
    for (const Episode& ep : traced) {
      budgets.push_back(ep.budget);
      traced_ips.push_back(static_cast<double>(ops) / ep.wall_s);
      traced_steal.push_back(ep.steal);
      iters += static_cast<double>(ops);
      dprs += static_cast<double>(ep.dprs);
      pulls += static_cast<double>(ep.pulls_answered);
      sweeps += static_cast<double>(ep.sweeps);
      for (const auto p : ep.pushes_applied) pushes += static_cast<double>(p);
      stalls += static_cast<double>(ep.ring_stalls);
      frames += static_cast<double>(ep.frames);
      bytes += static_cast<double>(ep.bytes);
      allocs += static_cast<double>(ep.recv_allocs);
      max_batch = std::max(max_batch, ep.max_batch);
    }
    const HopBudget b = pool(budgets);
    const std::size_t n = b.iterations;
    const double traced_rate = fast_rate(pick(traced_ips, quiet_episodes(traced_steal)));
    const double overhead = iters_per_s / traced_rate - 1.0;
    const auto k = traced.size();
    out.set("ml.grad_us", b.grad_us, n);
    out.set("ml.update_us", b.update_us, n);
    out.set("ps.worker.push_us", b.push_us, n);
    out.set("ps.worker.pull_us", b.pull_us, n);
    out.set("ps.worker.wait_pull_us", b.wait_pull_us, n);
    out.set("ps.worker.handle_us", b.worker_handle_us, n);
    out.set("ps.server.push_handle_us", b.server_push_handle_us, static_cast<std::size_t>(pushes));
    out.set("ps.server.pull_handle_us", b.server_pull_handle_us, static_cast<std::size_t>(pulls));
    out.set("ps.server.busy_frac", b.server_busy_frac, k);
    out.set("ps.server.pushes_per_sweep", sweeps > 0.0 ? pushes / sweeps : 0.0, k);
    out.set("ps.server.ring_stalls", stalls, k);
    // Per worker iteration, as ExperimentResult::dprs_per_100_iters defines it.
    out.set("ps.engine.dprs_per_100_iters", dprs * 100.0 / (iters / s.workers), k);
    out.set("ps.engine.gated_pull_share", pulls > 0.0 ? dprs / pulls : 0.0, k);
    out.set("net.frames_per_iter", frames / iters, k);
    out.set("net.bytes_per_iter", bytes / iters, k);
    out.set("net.recv_allocs", allocs, k);
    out.set("net.unattributed_us", b.wait_unattributed_us, n);
    out.set("trace.iteration_us", b.iteration_us, n);
    out.set("trace.residual_us", b.residual_us, n);
    out.set("trace.overhead_frac", overhead, k + plain.size());

    char head[200];
    std::snprintf(head, sizeof(head),
                  "hop budget: mean per worker iteration over %zu iterations in %zu traced "
                  "episodes",
                  n, k);
    out.report.push_back(head);
    const double it = b.iteration_us;
    out.report.push_back(budget_line("iteration", it, it));
    out.report.push_back(budget_line("ml.grad", b.grad_us, it));
    out.report.push_back(budget_line("ml.update", b.update_us, it));
    out.report.push_back(budget_line("ps.worker.push", b.push_us, it));
    out.report.push_back(budget_line("ps.worker.pull", b.pull_us, it));
    out.report.push_back(budget_line("ps.worker.wait_pull", b.wait_pull_us, it));
    out.report.push_back(budget_line("  server handlers (Server::handle)", b.wait_server_us, it));
    out.report.push_back(
        budget_line("  worker handler (WorkerClient::handle)", b.wait_worker_us, it));
    out.report.push_back(
        budget_line("  unattributed (queue, wake, socket)", b.wait_unattributed_us, it));
    out.report.push_back(budget_line("residual (sampler, param copy, loop)", b.residual_us, it));
    std::snprintf(head, sizeof(head),
                  "tracing overhead: untraced %.1f it/s (upper decile of %zu quiet episodes), "
                  "traced %.1f it/s (of %zu episodes) -> %+.1f%%",
                  iters_per_s, quiet.size(), traced_rate, k, 100.0 * overhead);
    out.report.push_back(head);
    std::snprintf(head, sizeof(head),
                  "combiner: %.0f pushes in %.0f sweeps, largest batch %zu; dprs %.0f of %.0f "
                  "pulls",
                  pushes, sweeps, max_batch, dprs, pulls);
    out.report.push_back(head);
  }
  return out;
}

}  // namespace perfbench
