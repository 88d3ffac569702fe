// In-memory span recording for the traced run, plus the hop-budget analysis
// that splits each worker iteration into its layers.
//
// Spans are kept in per-thread buffers while an episode runs and are only
// analysed or written out after every thread of the episode has been joined.
// A span is identified by (worker rank, iteration): the worker's own spans
// carry them directly, server handler spans take them from the message's
// worker_rank and progress, worker handler spans from the iteration the
// worker is in.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::uint32_t worker = 0;
  std::int64_t iter = 0;
  std::uint32_t node = 0;  ///< node whose thread ran the span
};

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// Append to the calling thread's buffer (takes the lock once per thread).
  void record(const Span& s);
  /// All spans recorded so far; call only after the recording threads ended.
  [[nodiscard]] std::vector<Span> collect() const;

 private:
  const std::uint64_t id_;
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<std::vector<Span>>> buffers_;
};

/// One worker iteration as steady-clock ns: t[0] starts it, the five calls
/// are [t[1], t[2]) grad, [t[2], t[3]) update, [t[3], t[4]) push,
/// [t[4], t[5]) pull and [t[5], t[6]) wait_pull, and t[7] ends it.
struct IterTimes {
  std::uint64_t t[8] = {};
};

/// Per-iteration means of one traced episode (microseconds).
struct HopBudget {
  std::size_t iterations = 0;
  double iteration_us = 0.0;
  double grad_us = 0.0;
  double update_us = 0.0;
  double push_us = 0.0;
  double pull_us = 0.0;
  double wait_pull_us = 0.0;
  double wait_server_us = 0.0;        ///< wait_pull covered by this iteration's server handlers
  double wait_worker_us = 0.0;        ///< ... by its worker handler, outside server handlers
  double wait_unattributed_us = 0.0;  ///< the rest: queue, wake and socket time
  double residual_us = 0.0;           ///< iteration minus the five calls
  double worker_handle_us = 0.0;      ///< worker handler time per iteration (all of it)
  double server_push_handle_us = 0.0; ///< per push handled
  double server_pull_handle_us = 0.0; ///< per pull handled
  double server_busy_frac = 0.0;      ///< busiest server: handler-covered share of the wall
};

/// `iters[w]` holds worker w's iterations in order; `handlers` every handler
/// span ("server.push", "server.pull" or "worker.handle"); `server_nodes`
/// the node ids of the servers (for busy_frac); `wall_ns` the episode's
/// measured wall time.
HopBudget analyse(const std::vector<std::vector<IterTimes>>& iters,
                  const std::vector<Span>& handlers, const std::vector<std::uint32_t>& server_nodes,
                  std::uint64_t wall_ns);

/// Write the first `max_iters` iterations of every worker, with their linked
/// handler spans, as a Chrome trace (chrome://tracing / Perfetto): one track
/// per worker thread and per handler node, each span with its
/// (worker, iteration) id and its parent.
bool write_chrome_trace(const std::string& path,
                        const std::vector<std::vector<IterTimes>>& iters,
                        const std::vector<Span>& handlers, std::uint32_t first_worker_node,
                        std::size_t max_iters);

}  // namespace perfbench
