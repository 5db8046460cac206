#include "serve/inference_server.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace plexus::serve {

InferenceServer::InferenceServer(const ServedModel& model, ServeOptions opt)
    : model_(&model), opt_(opt) {
  PLEXUS_CHECK(opt_.max_batch >= 1 && opt_.max_queue >= 1 && opt_.max_wait_us >= 0,
               "InferenceServer: bad ServeOptions");
  batcher_ = std::thread(&InferenceServer::batcher_loop, this);
}

InferenceServer::~InferenceServer() { stop(); }

std::optional<std::future<Prediction>> InferenceServer::submit(std::int64_t node) {
  std::future<Prediction> fut;
  std::int64_t depth = 0;
  {
    std::lock_guard<std::mutex> lk(mutex_);
    if (stopping_ || queue_.size() >= static_cast<std::size_t>(opt_.max_queue)) {
      depth = -1;  // reject
    } else {
      Request r;
      r.node = node;
      r.enqueued = std::chrono::steady_clock::now();
      fut = r.promise.get_future();
      queue_.push_back(std::move(r));
      depth = static_cast<std::int64_t>(queue_.size());
    }
  }
  // Counters under their own lock, never while holding the queue lock.
  {
    std::lock_guard<std::mutex> lk(stats_mutex_);
    if (depth < 0) {
      ++rejected_;
    } else {
      max_queue_depth_ = std::max(max_queue_depth_, depth);
    }
  }
  if (depth < 0) return std::nullopt;
  cv_.notify_all();
  return fut;
}

void InferenceServer::batcher_loop() {
  for (;;) {
    std::vector<Request> batch;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      cv_.wait(lk, [&] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and fully drained
      // Linger for a fuller batch — bounded by the oldest request's deadline.
      const auto deadline =
          queue_.front().enqueued + std::chrono::microseconds(opt_.max_wait_us);
      cv_.wait_until(lk, deadline, [&] {
        return stopping_ || queue_.size() >= static_cast<std::size_t>(opt_.max_batch);
      });
      const std::size_t n =
          std::min(queue_.size(), static_cast<std::size_t>(opt_.max_batch));
      batch.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }
    answer_batch(batch);
  }
}

void InferenceServer::answer_batch(std::vector<Request>& batch) {
  const auto n = static_cast<std::int64_t>(batch.size());
  std::vector<Prediction> results(batch.size());
  util::parallel_for(
      0, n,
      [&](std::int64_t b, std::int64_t e) {
        for (std::int64_t i = b; i < e; ++i) {
          results[static_cast<std::size_t>(i)] =
              model_->predict(batch[static_cast<std::size_t>(i)].node);
        }
      },
      /*work_estimate=*/n * model_->num_classes());

  const auto now = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < batch.size(); ++i) batch[i].promise.set_value(results[i]);

  std::lock_guard<std::mutex> lk(stats_mutex_);
  for (const Request& r : batch) {
    latencies_us_.record(std::chrono::duration<double, std::micro>(now - r.enqueued).count());
  }
  ++batches_;
  max_batch_size_ = std::max(max_batch_size_, n);
}

void InferenceServer::stop() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  if (batcher_.joinable()) batcher_.join();
}

ServeStats InferenceServer::stats() const {
  std::lock_guard<std::mutex> lk(stats_mutex_);
  ServeStats s;
  s.served = latencies_us_.count();
  s.rejected = rejected_;
  s.batches = batches_;
  s.max_queue_depth = max_queue_depth_;
  s.max_batch_size = max_batch_size_;
  s.mean_latency_us = latencies_us_.mean();
  s.p50_latency_us = latencies_us_.percentile(0.50);
  s.p99_latency_us = latencies_us_.percentile(0.99);
  return s;
}

util::Table InferenceServer::stats_table() const {
  const ServeStats s = stats();
  util::Table t({"counter", "value"});
  t.add_row({"served", util::Table::fmt_count(s.served)});
  t.add_row({"rejected", util::Table::fmt_count(s.rejected)});
  t.add_row({"batches", util::Table::fmt_count(s.batches)});
  t.add_row({"max queue depth", util::Table::fmt_count(s.max_queue_depth)});
  t.add_row({"max batch size", util::Table::fmt_count(s.max_batch_size)});
  t.add_row({"mean latency (us)", util::Table::fmt(s.mean_latency_us)});
  t.add_row({"p50 latency (us)", util::Table::fmt(s.p50_latency_us)});
  t.add_row({"p99 latency (us)", util::Table::fmt(s.p99_latency_us)});
  return t;
}

}  // namespace plexus::serve
