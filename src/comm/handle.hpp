#pragma once
/// \file handle.hpp
/// Nonblocking-collective plumbing: the shared op record, the `CommHandle`
/// a caller polls/waits on, and the per-rank `CommEngine` comm thread.
///
/// Every collective — blocking or not — is represented by one `detail::CommOp`
/// and executed by exactly one thread per rank: the rank's one FIFO comm
/// thread when `comm_thread_budget() == 1` (the default), or the posting
/// thread itself in inline mode (`PLEXUS_COMM_THREADS=0`). Either way a
/// rank's ops run strictly in post order, so SPMD programs must post their
/// collectives in the same order on every rank, across *all* groups: an op
/// blocked on one group holds back the rank's later ops on every other group.
/// One in-order thread is all blocked aggregation (section 5.2) needs: block
/// k's all-reduce runs on it while the posting thread computes block k+1's
/// SpMM.
///
/// The bytes an op moves travel through the Communicator's selected
/// `Transport` (comm/transport.hpp); the op record, comm thread and handle
/// semantics here are backend-independent.
///
/// Sim-time semantics (see communicator.hpp for the full contract): an op
/// records the poster's clock at post time and, during execution, derives its
/// completion instant `done_clock` from all members' post clocks, the group's
/// link-busy horizon and the ring cost model. The *caller* charges clocks and
/// stats at `wait()`; the comm thread never touches the rank clock.

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>

#include "comm/cost.hpp"

namespace plexus::comm {

class Communicator;

namespace detail {

/// Shared state of one in-flight collective. The execute closure runs the full
/// barrier protocol (publish / read phase / trailing writes) on the executing
/// thread; completion fields are visible to the poster only after `finished`
/// is observed through the mutex.
struct CommOp {
  std::function<void(CommOp&)> execute;

  Collective op = Collective::Barrier;
  std::int64_t bytes = 0;
  bool accounted = true;       ///< false for user ops (icall): no stats/clock
  bool clocked = false;        ///< posting Communicator carries a SimClock
  double posted_clock = 0.0;   ///< poster's sim clock at post time

  // Filled by execute (read phase):
  double full_seconds = 0.0;   ///< cost-model duration of the collective
  double done_clock = 0.0;     ///< sim instant the collective completes
  std::int64_t wire_bytes = 0; ///< bytes the links actually carried (cost.hpp)
  std::exception_ptr error;    ///< first exception thrown by execute

  // Completion handshake + retire-once bookkeeping (retired is poster-only).
  std::mutex m;
  std::condition_variable cv;
  bool finished = false;
  bool retired = false;

  void mark_finished() {
    {
      std::lock_guard<std::mutex> lock(m);
      finished = true;
    }
    cv.notify_all();
  }
  void wait_finished() {
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return finished; });
  }
  bool poll_finished() {
    std::lock_guard<std::mutex> lock(m);
    return finished;
  }
};

}  // namespace detail

/// Handle to an in-flight collective, in the spirit of MPI_Request.
///
/// ## Lifecycle
///
/// A handle's op passes through four states:
///
///  1. **posted** — the `i*` entry point built the op record (post-time clock
///     snapshot, byte count) and enqueued it on the rank's comm thread (or
///     ran it inline). The caller may compute freely; the buffers named in
///     the call belong to the op until it is waited or dropped.
///  2. **in flight** — the comm thread is executing the op: for in-process
///     transports, the group barrier protocol plus the transport's byte
///     movement; for the MPI transport, the posted `MPI_I*` request being
///     progressed to completion. `test()` polls this state without blocking
///     and never charges time.
///  3. **complete** — the executing thread published the completion fields
///     (`done_clock`, `full_seconds`, or error) and signalled
///     `finished`. Data buffers now hold the collective's result, but no
///     accounting has happened yet.
///  4. **retired or dropped** — terminal, reached exactly once:
///     * `wait()` blocks until complete, then *retires* the op: it charges
///       the **exposed** tail (the part of the transfer not hidden behind
///       recorded compute) onto the rank clock and `CommStats`, records the
///       timeline spans. Exceptions thrown on the executing thread are
///       rethrown here, once. A second `wait()` charges nothing.
///     * Destroying an un-waited handle *drops* the op: the destructor
///       blocks until the op has executed (keeping the group barriers
///       matched — the collective itself is never cancelled) but charges no
///       sim time and no stats, like `MPI_Request_free`: the caller gives up
///       on the accounting, not on the collective. Any pending error dies
///       with the op record.
///
/// A handle must not outlive its Communicator. Move-only.
class CommHandle {
 public:
  CommHandle() = default;
  CommHandle(CommHandle&& other) noexcept
      : op_(std::move(other.op_)), owner_(other.owner_) {
    other.owner_ = nullptr;
  }
  CommHandle& operator=(CommHandle&& other) noexcept {
    if (this != &other) {
      release();
      op_ = std::move(other.op_);
      owner_ = other.owner_;
      other.owner_ = nullptr;
    }
    return *this;
  }
  CommHandle(const CommHandle&) = delete;
  CommHandle& operator=(const CommHandle&) = delete;
  ~CommHandle() { release(); }

  bool valid() const { return op_ != nullptr; }

  /// True once the comm thread has finished executing the op (wait() will not
  /// block). Never charges time.
  bool test() { return op_ != nullptr && op_->poll_finished(); }

  /// Defined in communicator.hpp (needs the Communicator definition).
  void wait();

 private:
  friend class Communicator;
  CommHandle(std::shared_ptr<detail::CommOp> op, Communicator* owner)
      : op_(std::move(op)), owner_(owner) {}

  /// Defined in communicator.hpp: completing (not cancelling) keeps the
  /// barrier protocol matched, then tells the owner the op was abandoned so
  /// its stall-interval bookkeeping stays exact. Any pending error dies with
  /// the op record.
  void release();

  std::shared_ptr<detail::CommOp> op_;
  Communicator* owner_ = nullptr;
};

/// The rank's one FIFO comm thread: ops execute strictly in post order. The
/// worker is spawned lazily on the first post and runs with an intra-rank
/// kernel budget of 1 so the data movement it performs never spawns a compute
/// pool of its own.
class CommEngine {
 public:
  CommEngine() = default;
  ~CommEngine();  ///< drains the queue, then joins the worker
  CommEngine(const CommEngine&) = delete;
  CommEngine& operator=(const CommEngine&) = delete;

  void post(std::shared_ptr<detail::CommOp> op);

  /// Execute an op on the calling thread (inline mode / comm budget 0).
  static void run_inline(detail::CommOp& op);

 private:
  void loop();

  std::mutex m_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<detail::CommOp>> queue_;
  bool stop_ = false;
  std::thread worker_;  ///< spawned on the first post
};

/// Comm threads per rank: 0 or 1. Resolution order: the value set by
/// `set_comm_thread_budget`, else the PLEXUS_COMM_THREADS environment
/// variable, else 1. 0 means inline mode: collectives execute on the posting
/// thread at post time (no real overlap, no extra thread) — the sim-time
/// math is identical, only real concurrency is lost. 1 is the FIFO comm
/// thread. Any other value of the variable logs a warning and reads as 1.
/// Simulated clocks, stats and losses are bitwise-identical for either value.
int comm_thread_budget();

/// Process-wide override: 0 or 1, or -1 to restore the environment default.
/// Takes effect for Communicators constructed afterwards.
void set_comm_thread_budget(int n);

/// The raw override state: -1 when the environment governs, else the value
/// passed to set_comm_thread_budget. Lets scoped overrides restore
/// "follow the environment" rather than pinning the resolved number.
int comm_thread_override();

/// RAII budget override for tests and benches.
class ScopedCommThreads {
 public:
  explicit ScopedCommThreads(int n) : prev_(comm_thread_override()) {
    set_comm_thread_budget(n);
  }
  ~ScopedCommThreads() { set_comm_thread_budget(prev_); }
  ScopedCommThreads(const ScopedCommThreads&) = delete;
  ScopedCommThreads& operator=(const ScopedCommThreads&) = delete;

 private:
  int prev_;
};

}  // namespace plexus::comm
