#pragma once
/// \file shard_stream.hpp
/// Asynchronous shard-block loader for the out-of-core streaming epoch.
///
/// A ShardStream owns one IO worker thread per rank. The streaming layer
/// posts block-window loads ahead of the SpMM that consumes them, so disk
/// reads overlap compute exactly like the pipelined collectives overlap it:
/// the returned std::future is the IO handle the layer parks in its software
/// pipeline deque. The worker only ever touches the DatasetView (whose
/// streamed read path is thread-safe by construction) — never the simulated
/// communicator — so it cannot perturb rank-thread collective ordering.
///
/// Failure contract: any loader exception (truncated file, bad magic, short
/// read from an injected fault) is captured into the future's shared state
/// and rethrows at future.get() on the rank thread, where it unwinds the
/// epoch and surfaces through sim::run_cluster as a clean diagnostic.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>

#include "sparse/csr.hpp"

namespace plexus::core {

class DatasetView;

/// One streamed adjacency window, plus the bytes its load pulled from disk
/// (0 when every block it touched was already cache-resident).
struct BlockLoad {
  sparse::Csr csr;
  std::int64_t bytes_read = 0;
};

class ShardStream {
 public:
  explicit ShardStream(const DatasetView& view);
  ~ShardStream();
  ShardStream(const ShardStream&) = delete;
  ShardStream& operator=(const ShardStream&) = delete;

  /// Enqueue a load of adjacency window [r0, r1) x [c0, c1) of `version`.
  /// With `transpose` set the worker returns the transposed window — the
  /// backward pass's A^T block, DatasetView::transposed_block_counted —
  /// assembled off the rank thread so it hides behind compute too.
  std::future<BlockLoad> post(int version, std::int64_t r0, std::int64_t r1, std::int64_t c0,
                              std::int64_t c1, bool transpose);

 private:
  struct Job {
    int version = 0;
    std::int64_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;
    bool transpose = false;
    std::promise<BlockLoad> promise;
  };

  void worker();

  const DatasetView* view_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<Job> jobs_;
  bool stop_ = false;
  std::thread thread_;
};

}  // namespace plexus::core
