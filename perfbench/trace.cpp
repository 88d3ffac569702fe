#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <utility>

namespace perfbench {
namespace {

using Interval = std::pair<std::uint64_t, std::uint64_t>;

std::atomic<std::uint64_t> g_next_log_id{1};

struct ThreadBuffer {
  std::uint64_t log_id = 0;
  std::vector<Span>* spans = nullptr;
};
thread_local ThreadBuffer t_buffer;

/// Length of the union of `iv` clipped to [lo, hi). Reorders `iv`.
std::uint64_t covered(std::vector<Interval>& iv, std::uint64_t lo, std::uint64_t hi) {
  std::sort(iv.begin(), iv.end());
  std::uint64_t total = 0;
  std::uint64_t cur_lo = 0;
  std::uint64_t cur_hi = 0;
  bool open = false;
  for (const auto& [a0, b0] : iv) {
    const std::uint64_t a = std::max(a0, lo);
    const std::uint64_t b = std::min(b0, hi);
    if (a >= b) continue;
    if (open && a <= cur_hi) {
      cur_hi = std::max(cur_hi, b);
      continue;
    }
    if (open) total += cur_hi - cur_lo;
    cur_lo = a;
    cur_hi = b;
    open = true;
  }
  if (open) total += cur_hi - cur_lo;
  return total;
}

std::uint64_t key(std::uint32_t worker, std::int64_t iter) {
  return (static_cast<std::uint64_t>(worker) << 40) ^ static_cast<std::uint64_t>(iter);
}

bool is_server_span(const Span& s) { return std::strncmp(s.name, "server.", 7) == 0; }

}  // namespace

SpanLog::SpanLog() : id_(g_next_log_id.fetch_add(1)) {}

void SpanLog::record(const Span& s) {
  if (t_buffer.log_id != id_) {
    auto buf = std::make_unique<std::vector<Span>>();
    buf->reserve(1 << 14);
    std::scoped_lock lock(mu_);
    t_buffer = ThreadBuffer{id_, buf.get()};
    buffers_.push_back(std::move(buf));
  }
  t_buffer.spans->push_back(s);
}

std::vector<Span> SpanLog::collect() const {
  std::scoped_lock lock(mu_);
  std::vector<Span> all;
  for (const auto& b : buffers_) all.insert(all.end(), b->begin(), b->end());
  return all;
}

HopBudget analyse(const std::vector<std::vector<IterTimes>>& iters,
                  const std::vector<Span>& handlers, const std::vector<std::uint32_t>& server_nodes,
                  std::uint64_t wall_ns) {
  struct Links {
    std::vector<Interval> server;
    std::vector<Interval> all;  // server + worker handler spans
    std::uint64_t worker_ns = 0;
  };
  std::unordered_map<std::uint64_t, Links> links;
  std::uint64_t push_ns = 0;
  std::uint64_t pull_ns = 0;
  std::size_t pushes = 0;
  std::size_t pulls = 0;
  for (const Span& s : handlers) {
    Links& l = links[key(s.worker, s.iter)];
    const Interval iv{s.start_ns, s.end_ns};
    l.all.push_back(iv);
    if (is_server_span(s)) {
      l.server.push_back(iv);
      if (std::strcmp(s.name, "server.push") == 0) {
        push_ns += s.end_ns - s.start_ns;
        ++pushes;
      } else {
        pull_ns += s.end_ns - s.start_ns;
        ++pulls;
      }
    } else {
      l.worker_ns += s.end_ns - s.start_ns;
    }
  }

  HopBudget b;
  double sum[11] = {};
  for (std::uint32_t w = 0; w < iters.size(); ++w) {
    for (std::size_t i = 0; i < iters[w].size(); ++i) {
      const IterTimes& it = iters[w][i];
      const std::uint64_t wp_lo = it.t[5];
      const std::uint64_t wp_hi = it.t[6];
      std::uint64_t server = 0;
      std::uint64_t both = 0;
      std::uint64_t worker_all = 0;
      if (auto found = links.find(key(w, static_cast<std::int64_t>(i))); found != links.end()) {
        server = covered(found->second.server, wp_lo, wp_hi);
        both = covered(found->second.all, wp_lo, wp_hi);
        worker_all = found->second.worker_ns;
      }
      const std::uint64_t calls = it.t[6] - it.t[1];
      const std::uint64_t total = it.t[7] - it.t[0];
      sum[0] += static_cast<double>(total);
      sum[1] += static_cast<double>(it.t[2] - it.t[1]);
      sum[2] += static_cast<double>(it.t[3] - it.t[2]);
      sum[3] += static_cast<double>(it.t[4] - it.t[3]);
      sum[4] += static_cast<double>(it.t[5] - it.t[4]);
      sum[5] += static_cast<double>(wp_hi - wp_lo);
      sum[6] += static_cast<double>(server);
      sum[7] += static_cast<double>(both - server);
      sum[8] += static_cast<double>((wp_hi - wp_lo) - both);
      sum[9] += static_cast<double>(total - calls);
      sum[10] += static_cast<double>(worker_all);
      ++b.iterations;
    }
  }
  if (b.iterations == 0) return b;
  const double n = static_cast<double>(b.iterations) * 1e3;  // ns -> us per iteration
  b.iteration_us = sum[0] / n;
  b.grad_us = sum[1] / n;
  b.update_us = sum[2] / n;
  b.push_us = sum[3] / n;
  b.pull_us = sum[4] / n;
  b.wait_pull_us = sum[5] / n;
  b.wait_server_us = sum[6] / n;
  b.wait_worker_us = sum[7] / n;
  b.wait_unattributed_us = sum[8] / n;
  b.residual_us = sum[9] / n;
  b.worker_handle_us = sum[10] / n;
  b.server_push_handle_us = pushes ? static_cast<double>(push_ns) / pushes / 1e3 : 0.0;
  b.server_pull_handle_us = pulls ? static_cast<double>(pull_ns) / pulls / 1e3 : 0.0;

  for (const std::uint32_t node : server_nodes) {
    std::vector<Interval> iv;
    for (const Span& s : handlers) {
      if (s.node == node && is_server_span(s)) iv.emplace_back(s.start_ns, s.end_ns);
    }
    const std::uint64_t busy = covered(iv, 0, UINT64_MAX);
    if (wall_ns > 0) {
      b.server_busy_frac =
          std::max(b.server_busy_frac, static_cast<double>(busy) / static_cast<double>(wall_ns));
    }
  }
  return b;
}

bool write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<IterTimes>>& iters,
                        const std::vector<Span>& handlers, std::uint32_t first_worker_node,
                        std::size_t max_iters) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::uint64_t t0 = UINT64_MAX;
  for (const auto& w : iters) {
    if (!w.empty()) t0 = std::min(t0, w.front().t[0]);
  }
  for (const Span& s : handlers) t0 = std::min(t0, s.start_ns);
  if (t0 == UINT64_MAX) t0 = 0;
  bool first = true;
  auto event = [&](const char* name, std::uint32_t tid, std::uint64_t a, std::uint64_t b,
                   std::uint32_t worker, std::int64_t iter, const char* parent) {
    std::fprintf(f,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":\"%u/%lld\",\"parent\":\"%s\"}}",
                 first ? "" : ",", name, tid, static_cast<double>(a - t0) / 1e3,
                 static_cast<double>(b - a) / 1e3, worker, static_cast<long long>(iter), parent);
    first = false;
  };
  std::fprintf(f, "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[");
  static const char* kCalls[] = {"ml.grad", "ml.update", "ps.worker.push", "ps.worker.pull",
                                 "ps.worker.wait_pull"};
  for (std::uint32_t w = 0; w < iters.size(); ++w) {
    const std::uint32_t tid = first_worker_node + w;
    for (std::size_t i = 0; i < std::min(iters[w].size(), max_iters); ++i) {
      const IterTimes& it = iters[w][i];
      const auto iter = static_cast<std::int64_t>(i);
      event("iteration", tid, it.t[0], it.t[7], w, iter, "");
      for (int c = 0; c < 5; ++c) {
        event(kCalls[c], tid, it.t[c + 1], it.t[c + 2], w, iter, "iteration");
      }
    }
  }
  for (const Span& s : handlers) {
    if (s.iter < 0 || static_cast<std::size_t>(s.iter) >= max_iters) continue;
    event(s.name, 1000 + s.node, s.start_ns, s.end_ns, s.worker, s.iter, "iteration");
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench
