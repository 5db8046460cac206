#include "core/shard_stream.hpp"

#include <exception>
#include <utility>

#include "core/dataset_view.hpp"

namespace plexus::core {

ShardStream::ShardStream(const DatasetView& view) : view_(&view) {
  thread_ = std::thread([this] { worker(); });
}

ShardStream::~ShardStream() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  thread_.join();
}

std::future<BlockLoad> ShardStream::post(int version, std::int64_t r0, std::int64_t r1,
                                         std::int64_t c0, std::int64_t c1, bool transpose) {
  Job job;
  job.version = version;
  job.r0 = r0;
  job.r1 = r1;
  job.c0 = c0;
  job.c1 = c1;
  job.transpose = transpose;
  auto fut = job.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    jobs_.push_back(std::move(job));
  }
  cv_.notify_one();
  return fut;
}

void ShardStream::worker() {
  for (;;) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !jobs_.empty(); });
      // Drain queued jobs even after stop: an epoch that unwound on an
      // exception may abandon posted loads, and their promises must still
      // be completed (exceptionally or not) before the thread exits.
      if (jobs_.empty()) break;
      job = std::move(jobs_.front());
      jobs_.pop_front();
    }
    try {
      BlockLoad bl;
      bl.csr = job.transpose ? view_->transposed_block_counted(job.version, job.r0, job.r1,
                                                               job.c0, job.c1, &bl.bytes_read)
                             : view_->adjacency_block_counted(job.version, job.r0, job.r1,
                                                              job.c0, job.c1, &bl.bytes_read);
      job.promise.set_value(std::move(bl));
    } catch (...) {
      job.promise.set_exception(std::current_exception());
    }
  }
}

}  // namespace plexus::core
