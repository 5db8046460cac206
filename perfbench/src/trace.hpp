#pragma once
/// \file trace.hpp
/// The benchmark's traced run: spans kept in memory and written at exit,
/// timing decorators around the two public seams the program exposes
/// (comm::Transport and core::DatasetView), and a replay of the public
/// kernels on the adjacency windows rank 0 requested.
///
/// Nothing here reaches into the program: the decorators forward every call
/// to the wrapped object unchanged, so a traced run computes bitwise the
/// same losses as an untraced one (the self-test checks it).

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "comm/transport.hpp"
#include "core/dataset_view.hpp"
#include "core/grid.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// In-memory span store: (id, name, start, end, parent, thread). Spans are
/// appended under a mutex and written out once, as a Chrome trace, at exit.
class Tracer {
 public:
  /// Spans beyond this many are counted but not stored.
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 21;

  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Record a finished span; returns its id. `parent` < 0 means the calling
  /// thread's innermost open Scope, or the root span when it has none.
  std::int64_t record(std::string_view name, Clock::time_point t0, Clock::time_point t1,
                      std::int64_t parent = -1);

  /// Spans opened on threads the benchmark does not own (comm channels,
  /// prefetch workers) hang off this span.
  void set_root(std::int64_t id) { root_.store(id); }

  std::size_t size() const;

  /// Chrome trace JSON ({"traceEvents": [...]}; args carry id and parent).
  void write_chrome_trace(const std::string& path) const;

  /// RAII span; while open it is the parent of spans the same thread opens
  /// or records. A null tracer makes it a no-op.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string_view name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::int64_t id() const { return id_; }

   private:
    Tracer* tracer_;
    std::string name_;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    Clock::time_point t0_;
  };

 private:
  struct Span {
    std::int64_t id;
    std::int64_t parent;
    int thread;
    double start_us;
    double end_us;
    std::string name;
  };

  std::int64_t next_id() { return next_id_.fetch_add(1); }
  std::int64_t parent_for_thread() const;
  void push(Span s);
  double us(Clock::time_point t) const;

  Clock::time_point origin_;
  std::atomic<std::int64_t> next_id_{0};
  std::atomic<std::int64_t> root_{-1};
  std::atomic<std::int64_t> dropped_{0};
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
};

/// comm::Transport decorator: times every byte-movement call of the wrapped
/// transport, per collective kind, and records one span per call.
class TimedTransport final : public plexus::comm::Transport {
 public:
  static constexpr std::size_t kKinds = 7;  ///< comm::Collective enumerators

  struct Totals {
    std::array<std::int64_t, kKinds> calls{};
    std::array<std::int64_t, kKinds> ns{};
    std::int64_t total_calls() const;
    double total_ms() const;
    double ms(plexus::comm::Collective c) const;
  };

  TimedTransport(plexus::comm::Transport& inner, Tracer& tracer);

  plexus::comm::Backend backend() const override { return inner_.backend(); }
  const char* name() const override { return inner_.name(); }
  bool uses_group_protocol() const override { return inner_.uses_group_protocol(); }
  bool supports_clock() const override { return inner_.supports_clock(); }
  void move(plexus::comm::GroupShared& g, const plexus::comm::CollArgs& a) override;
  void finalize(plexus::comm::GroupShared& g, const plexus::comm::CollArgs& a) override;
  void execute(plexus::comm::GroupShared& g, const plexus::comm::CollArgs& a,
               plexus::comm::detail::CommOp& op) override;
  void alltoallv(plexus::comm::GroupShared& g, const plexus::comm::CollArgs& a,
                 const std::vector<std::span<const unsigned char>>& send,
                 std::vector<std::vector<unsigned char>>& recv,
                 plexus::comm::detail::CommOp& op) override;

  Totals totals() const;

 private:
  void account(plexus::comm::Collective kind, Clock::time_point t0);

  plexus::comm::Transport& inner_;
  Tracer& tracer_;
  std::array<std::atomic<std::int64_t>, kKinds> calls_{};
  std::array<std::atomic<std::int64_t>, kKinds> ns_{};
};

/// core::DatasetView decorator: times every adjacency window request, logs
/// its coordinates, and forwards everything else. Thread-safe when the
/// wrapped view is (streamed requests arrive on prefetch worker threads).
class TimedView final : public plexus::core::DatasetView {
 public:
  struct Window {
    int version = 0;
    std::int64_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;
  };

  TimedView(const plexus::core::DatasetView& inner, Tracer& tracer);

  plexus::sparse::Csr adjacency_block(int version, std::int64_t r0, std::int64_t r1,
                                      std::int64_t c0, std::int64_t c1) const override;
  plexus::sparse::Csr adjacency_block_counted(int version, std::int64_t r0, std::int64_t r1,
                                              std::int64_t c0, std::int64_t c1,
                                              std::int64_t* io_bytes) const override;
  plexus::dense::Matrix feature_block(std::int64_t r0, std::int64_t r1, std::int64_t c0,
                                      std::int64_t c1) const override;
  const std::vector<std::int32_t>& labels() const override { return inner_.labels(); }
  const std::vector<std::uint8_t>& mask(plexus::core::Split split) const override {
    return inner_.mask(split);
  }
  bool streaming() const override { return inner_.streaming(); }
  std::int64_t adjacency_nnz() const override { return inner_.adjacency_nnz(); }

  const plexus::core::DatasetView& inner() const { return inner_; }

  /// Requests are logged and timed only while logging is on (training), so
  /// a checkpoint's full-matrix reads do not mix into the per-block figures.
  void set_logging(bool on) { logging_.store(on); }

  /// Wall milliseconds of every logged request, in arrival order.
  std::vector<double> block_ms() const;
  /// Logged wall milliseconds spent on threads marked by mark_rank_thread():
  /// time a rank itself blocked on the loader (prefetch workers excluded).
  double rank_wait_ms() const;
  /// Distinct logged windows.
  std::vector<Window> windows() const;

 private:
  void log(int version, std::int64_t r0, std::int64_t r1, std::int64_t c0, std::int64_t c1,
           Clock::time_point t0) const;

  const plexus::core::DatasetView& inner_;
  Tracer& tracer_;
  std::atomic<bool> logging_{true};
  mutable std::mutex mutex_;
  mutable std::vector<double> block_ms_;
  mutable double rank_wait_ms_ = 0.0;
  mutable std::vector<Window> windows_;
};

/// Mark the calling thread as a rank thread (see TimedView::rank_wait_ms).
void mark_rank_thread();

/// Kernel work and wall time of one epoch of rank 0's SpMMs or GEMMs.
struct KernelReplay {
  double gflop = 0.0;  ///< per epoch
  double ms = 0.0;     ///< median over repetitions, per epoch
};

struct ReplayResult {
  KernelReplay spmm;
  KernelReplay gemm;
};

/// Replay one epoch of rank 0's kernels through the public sparse::spmm and
/// dense::gemm: for every layer, the forward SpMM over each row-block window
/// and the backward SpMM over each (transposed) column-block window rank 0
/// requested through `view`, then the forward, dW and dH GEMMs at the
/// layer's shapes from DistGcn::padded_dims(). Runs `reps` times on
/// `threads` kernel threads (rank 0's budget) and reports the median.
ReplayResult replay_rank0_kernels(const TimedView& view, const plexus::core::Grid3D& grid,
                                  const std::vector<std::int64_t>& padded_dims, int threads,
                                  int reps);

}  // namespace perfbench
