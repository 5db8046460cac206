#pragma once
/// \file inference_server.hpp
/// Concurrent inference front-end over a ServedModel: a bounded admission
/// queue, a batcher thread, and per-request latency / queue-depth counters.
///
/// Callers from any thread `submit()` a node id and get a std::future back.
/// The batcher drains the queue in batches: it takes whatever is queued,
/// lingers up to `max_wait_us` for the batch to fill to `max_batch`, then
/// answers the whole batch against the model's cached logits (the per-batch
/// sweep runs through util::parallel_for, i.e. the same util::ThreadPool
/// engine the training kernels use — set PLEXUS_THREADS to give the batcher
/// a budget). Admission beyond `max_queue` pending requests is rejected
/// rather than queued, bounding tail latency under overload.
///
/// Counters: per-request latency (enqueue -> promise fulfilled) feeding
/// p50/p99/mean, served/rejected/batch counts, and the high-water queue
/// depth. Latencies go into a fixed log-bucket histogram (util::LogHistogram),
/// so a long-running server's counters stay the same size however many
/// requests it answers; the percentiles are bucket midpoints, within
/// util::LogHistogram::kRelativeError of the exact order statistics.
/// `stats()` snapshots them at any time; `stats_table()` renders the
/// standard util::Table the CLI and bench print.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <optional>
#include <thread>
#include <vector>

#include "serve/served_model.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace plexus::serve {

struct ServeOptions {
  int max_batch = 64;             ///< requests the batcher answers at once
  std::int64_t max_wait_us = 200; ///< linger for a fuller batch (microseconds)
  int max_queue = 4096;           ///< admission bound; beyond -> reject
};

/// Snapshot of the server's counters (percentiles read off the latency
/// histogram on demand).
struct ServeStats {
  std::int64_t served = 0;
  std::int64_t rejected = 0;
  std::int64_t batches = 0;
  std::int64_t max_queue_depth = 0;  ///< high-water pending count at admission
  std::int64_t max_batch_size = 0;
  double mean_latency_us = 0.0;
  double p50_latency_us = 0.0;
  double p99_latency_us = 0.0;
};

class InferenceServer {
 public:
  /// The model must outlive the server. The batcher thread starts immediately.
  explicit InferenceServer(const ServedModel& model, ServeOptions opt = {});
  ~InferenceServer();
  InferenceServer(const InferenceServer&) = delete;
  InferenceServer& operator=(const InferenceServer&) = delete;

  /// Enqueue a classification request for an original node id. Returns
  /// std::nullopt when the admission queue is full (counted as rejected) or
  /// the server is stopping. Thread-safe.
  std::optional<std::future<Prediction>> submit(std::int64_t node);

  /// Drain the queue, answer everything pending, and join the batcher.
  /// Idempotent; also called by the destructor.
  void stop();

  ServeStats stats() const;
  /// The counters as a printable util::Table (one row per counter).
  util::Table stats_table() const;

 private:
  struct Request {
    std::int64_t node = 0;
    std::promise<Prediction> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  void batcher_loop();
  void answer_batch(std::vector<Request>& batch);

  const ServedModel* model_;
  ServeOptions opt_;

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Request> queue_;
  bool stopping_ = false;

  mutable std::mutex stats_mutex_;
  util::LogHistogram latencies_us_;
  std::int64_t rejected_ = 0;
  std::int64_t batches_ = 0;
  std::int64_t max_queue_depth_ = 0;
  std::int64_t max_batch_size_ = 0;

  std::thread batcher_;  ///< last member: starts after everything is built
};

}  // namespace plexus::serve
