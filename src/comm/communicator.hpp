#pragma once
/// \file communicator.hpp
/// Per-rank communicator: NCCL/MPI-style collectives with pluggable
/// byte-transport backends.
///
/// Every simulated GPU thread owns one `Communicator`. Collectives move real
/// data between ranks (so the distributed algebra is exact) and synchronise
/// the ranks' simulated clocks; the cost of a collective comes from the ring
/// cost model (comm/cost.hpp) with the group's effective link parameters.
///
/// The communicator is the **cost / accounting layer**. *How the payload
/// bytes travel* is delegated to a `Transport` (comm/transport.hpp): the Sim
/// backend reads peers' published buffers directly, and the optional MPI
/// backend maps each op onto a nonblocking MPI request on a per-group
/// sub-communicator. Everything in this file — post-time clocks, link-busy
/// horizons, exposed/hidden attribution, stats, timeline — is
/// backend-invariant.
///
/// ## Nonblocking execution model
///
/// Every collective is one op executed by exactly one thread per rank — the
/// rank's FIFO comm thread (comm/handle.hpp), or the posting thread in inline
/// mode — and every one, the scalar reductions included, posts through the
/// same `post_collective`. The `i*` entry points return a `CommHandle`; the
/// blocking entry points are `i*` + immediate `wait()`. Per rank, ops run
/// strictly in post order, so SPMD programs must post their collectives in
/// the same order on every rank, across all groups (the MPI
/// nonblocking-collective rule, applied to the rank's one queue). The
/// sim-time math below never depends on execution order, so clocks, stats
/// and data are bitwise-identical inline and threaded.
///
/// Synchronisation protocol per op (executed on the rank's comm thread):
///   1. publish: write own buffer pointer + *post-time* clock into the
///      group's slots; snapshot the group's link-busy horizon
///   2. barrier
///   3. read phase: read *other members'* published buffers; private writes
///      ok; derive the op's sim completion instant (below)
///   4. barrier
///   5. write phase: writes to own published buffer (if in-place op)
/// The trailing writes are ordered before any subsequent op's reads by that
/// op's first barrier (std::barrier has acquire/release semantics), so
/// back-to-back collectives on a group are race-free. All mutable shared
/// state of the protocol lives in the op's own GroupShared, so collectives on
/// different groups may execute concurrently without synchronisation.
///
/// ## Exposed vs hidden time
///
/// An op posted when the rank's clock reads `t_post` completes at
///
///   done = max(link_busy_horizon, max over members of their post clocks)
///          + T_collective
///
/// where the link-busy horizon serialises overlapping collectives on the same
/// group's ring (two in-flight all-reduces share the links; the second starts
/// when the first finishes). Disjoint groups have disjoint rings, so their
/// in-flight ops overlap freely in simulated time. Nothing is charged until
/// `wait()`: if the caller waits at clock `t_wait`, only the *exposed* tail
/// `max(0, done - t_wait)` advances the clock and lands in
/// `CommStats::Entry::sim_seconds`; the part of the transfer interval
/// `[done - T_collective, done]` during which this rank was actually
/// computing is recorded as `hidden_seconds` (queueing behind an earlier
/// collective and stalls spent waiting on *other* handles are neither — they
/// are ordinary schedule slack). Hidden time is derived from the rank's
/// recorded compute busy-intervals, so the attribution is exact for *any*
/// wait order — out-of-order waits charge exactly what FIFO waits charge in
/// total (this stall-interval tracking replaces the old compute-since-post
/// cap, which could credit compute performed after an op's sim completion).
/// Everything is derived from post-time clock values and the deterministic
/// cost model, so sim results are independent of real scheduling.

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <set>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/clock.hpp"
#include "comm/cost.hpp"
#include "comm/handle.hpp"
#include "comm/timeline.hpp"
#include "comm/transport.hpp"
#include "comm/world.hpp"
#include "util/error.hpp"
#include "util/simd.hpp"

namespace plexus::comm {

/// Per-rank accounting of communication volume and simulated time.
struct CommStats {
  struct Entry {
    std::int64_t calls = 0;
    std::int64_t bytes = 0;       ///< logical buffer volume per call (cost-model M)
    std::int64_t wire_bytes = 0;  ///< bytes the links actually carried (cost.hpp)
    double sim_seconds = 0.0;     ///< exposed time charged onto the rank clock
    double hidden_seconds = 0.0;  ///< transfer time overlapped by compute
  };
  std::array<Entry, 7> by_op{};

  Entry& entry(Collective op) { return by_op[static_cast<std::size_t>(op)]; }
  const Entry& entry(Collective op) const { return by_op[static_cast<std::size_t>(op)]; }

  double total_seconds() const {
    double t = 0.0;
    for (const auto& e : by_op) t += e.sim_seconds;
    return t;
  }
  double total_hidden_seconds() const {
    double t = 0.0;
    for (const auto& e : by_op) t += e.hidden_seconds;
    return t;
  }
  std::int64_t total_bytes() const {
    std::int64_t b = 0;
    for (const auto& e : by_op) b += e.bytes;
    return b;
  }
  std::int64_t total_wire_bytes() const {
    std::int64_t b = 0;
    for (const auto& e : by_op) b += e.wire_bytes;
    return b;
  }
  void reset() { by_op = {}; }
};

namespace detail {

/// Publish this member's buffer + post-time clock; returns the link-busy
/// horizon snapshot. Safe before the first barrier: the previous op's
/// horizon write happened in its read phase, sealed by its second barrier.
inline double publish(GroupShared& g, int pos, const void* ptr, double posted_clock) {
  const double floor = g.link_busy_until;
  g.slots[static_cast<std::size_t>(pos)] = ptr;
  g.clock_slots[static_cast<std::size_t>(pos)] = posted_clock;
  return floor;
}

/// Derive the op's completion instant from the members' post clocks, the
/// link-busy snapshot and the cost model. Must run in the read phase (between
/// the barriers); every member computes the same value, member 0 records it
/// as the group's new link-busy horizon.
inline void finish_read_phase(GroupShared& g, int pos, double busy_floor, CommOp& op) {
  double start = busy_floor;
  for (int m = 0; m < g.size(); ++m) {
    start = std::max(start, g.clock_slots[static_cast<std::size_t>(m)]);
  }
  op.full_seconds = collective_time(op.op, op.bytes, g.size(), g.link);
  op.wire_bytes = wire_bytes(op.op, op.bytes, g.size());
  op.done_clock = start + op.full_seconds;
  if (pos == 0) g.link_busy_until = op.done_clock;
}

/// Elementwise `acc[i] += src[i]` over `n` elements of T — the one reduction
/// kernel every transport applies, in canonical member order (0, 1, …, G-1),
/// so reductions are bitwise-identical across backends.
template <typename T>
void accumulate_sum(void* acc, const void* src, std::size_t n) {
  T* a = static_cast<T*>(acc);
  const T* s = static_cast<const T*>(src);
  for (std::size_t i = 0; i < n; ++i) a[i] += s[i];
}

/// Elementwise `acc[i] = max(acc[i], src[i])`, the fold of
/// all_reduce_max_scalar. Folded in the same canonical member order, so every
/// member gets the same bits even for ties of signed zeros or a NaN input.
template <typename T>
void accumulate_max(void* acc, const void* src, std::size_t n) {
  T* a = static_cast<T*>(acc);
  const T* s = static_cast<const T*>(src);
  for (std::size_t i = 0; i < n; ++i) a[i] = std::max(a[i], s[i]);
}

/// CollArgs-shaped wrappers over the bf16 wire helpers (util/simd.hpp):
/// bf16 wire contributions folded into a fp32 accumulator, so precision is
/// lost exactly once per contribution (at the sender's pack), never in the
/// summation itself.
inline void assign_bf16_f32(void* acc, const void* src, std::size_t n) {
  simd::bf16_assign_f32(static_cast<float*>(acc), static_cast<const std::uint16_t*>(src),
                        static_cast<std::int64_t>(n));
}

inline void accumulate_bf16_f32(void* acc, const void* src, std::size_t n) {
  simd::bf16_accumulate_f32(static_cast<float*>(acc), static_cast<const std::uint16_t*>(src),
                            static_cast<std::int64_t>(n));
}

}  // namespace detail

class Communicator {
 public:
  /// `clock` may be null (functional-only mode, no time simulation).
  /// `transport` selects the byte-movement backend; null means Sim. The wire
  /// format starts as Fp32 (see set_wire_precision). A distributed
  /// (non-protocol) transport may carry a clock only when it opts in via
  /// `Transport::supports_clock()` (the MPI backend piggybacks the post-clock
  /// exchange on each collective); without a clock, stats charge the
  /// cost-model time per op.
  Communicator(World& world, int rank, SimClock* clock = nullptr,
               Transport* transport = nullptr)
      : world_(&world), rank_(rank), clock_(clock),
        transport_(transport != nullptr ? transport : &transport_for(Backend::Sim)),
        comm_thread_(comm_thread_budget() == 1) {
    PLEXUS_CHECK(rank >= 0 && rank < world.size(), "rank out of range");
    PLEXUS_CHECK(clock == nullptr || transport_->supports_clock(),
                 "this transport cannot carry a SimClock");
  }

  /// Immovable: outstanding CommHandles point back at this object, so a move
  /// would silently strand their accounting. Attach a clock with set_clock()
  /// instead of rebuilding.
  Communicator(Communicator&&) = delete;
  Communicator& operator=(Communicator&&) = delete;

  /// Attach the simulated clock. Must be called before the first op
  /// (accounting starts from a clean slate).
  void set_clock(SimClock* clock) {
    PLEXUS_CHECK(!posted_any_, "set_clock: must precede the first collective");
    PLEXUS_CHECK(clock == nullptr || transport_->supports_clock(),
                 "this transport cannot carry a SimClock");
    clock_ = clock;
  }

  /// Select the wire format for fp32 collective payloads (transport.hpp).
  /// Like set_clock, must precede the first op: mixing wire formats inside
  /// one SPMD program would deadlock the count/byte exchanges.
  void set_wire_precision(WirePrecision w) {
    PLEXUS_CHECK(!posted_any_, "set_wire_precision: must precede the first collective");
    wire_ = w;
  }
  WirePrecision wire_precision() const { return wire_; }

  /// Bytes one fp32 payload element occupies on this rank's wire — the
  /// planning input for pipeline-depth / aggregation choices (they must
  /// price what the links actually carry, not the in-memory width).
  std::size_t wire_float_bytes() const { return wire_elem_size(wire_); }

  Transport& transport() const { return *transport_; }
  Backend backend() const { return transport_->backend(); }

  int rank() const { return rank_; }
  int world_size() const { return world_->size(); }
  World& world() { return *world_; }
  SimClock* clock() { return clock_; }
  CommStats& stats() { return stats_; }
  const CommStats& stats() const { return stats_; }
  Timeline& timeline() { return timeline_; }
  const Timeline& timeline() const { return timeline_; }

  /// Advance this rank's clock by modelled local-kernel time. The busy
  /// interval is recorded so collective waits can attribute hidden time
  /// exactly (see the header comment).
  void charge_compute(double seconds) {
    if (seconds <= 0.0 || clock_ == nullptr) return;
    const double t0 = clock_->time();
    clock_->advance(seconds);
    if (!compute_spans_.empty() && compute_spans_.back().second == t0) {
      compute_spans_.back().second = t0 + seconds;  // contiguous: extend
    } else {
      compute_spans_.emplace_back(t0, t0 + seconds);
      prune_compute_spans();
    }
    timeline_.record(TimelineSpan::Kind::Compute, Collective::Barrier, t0, t0 + seconds);
  }

  // ---------------------------------------------------------------------
  // Nonblocking collectives. Buffers must stay valid (and the written parts
  // untouched by the caller) until the handle is waited or dropped.
  // ---------------------------------------------------------------------

  /// Elementwise sum across the group, in place over `inout`.
  template <typename T>
  CommHandle iall_reduce_sum(GroupId gid, std::span<T> inout) {
    CollArgs a;
    a.kind = Collective::AllReduce;
    a.gid = gid;
    a.recv = inout.data();
    a.elem = sizeof(T);
    a.count = inout.size();
    a.accumulate = &detail::accumulate_sum<T>;
    if constexpr (std::is_same_v<T, float>) {
      if (wire_ == WirePrecision::Bf16) {
        // Publish a bf16-packed copy of the contribution; every member folds
        // the G wire chunks in canonical order into its own fp32 buffer, so
        // the result is still group-uniform.
        a.elem = sizeof(std::uint16_t);
        a.acc_elem = sizeof(float);
        a.assign = &detail::assign_bf16_f32;
        a.accumulate = &detail::accumulate_bf16_f32;
        auto wire = std::make_shared<std::vector<std::uint16_t>>();
        const float* src = inout.data();
        const std::size_t n = inout.size();
        return post_collective(a, static_cast<std::int64_t>(n * sizeof(std::uint16_t)),
                               [wire, src, n](CollArgs& aw) {
                                 wire->resize(n);
                                 simd::bf16_pack(src, wire->data(), static_cast<std::int64_t>(n));
                                 aw.send = wire->data();
                               });
      }
    }
    return post_collective(a, static_cast<std::int64_t>(inout.size() * sizeof(T)));
  }

  /// out[i * chunk ..] = member i's `in`. `in.size()` must be equal across the
  /// group; `out.size() == in.size() * group size`.
  template <typename T>
  CommHandle iall_gather(GroupId gid, std::span<const T> in, std::span<T> out) {
    auto& g = world_->group(gid);
    PLEXUS_CHECK(out.size() == in.size() * static_cast<std::size_t>(g.size()),
                 "all_gather: bad output size");
    CollArgs a;
    a.kind = Collective::AllGather;
    a.gid = gid;
    a.send = in.data();
    a.recv = out.data();
    a.elem = sizeof(T);
    a.count = in.size();
    if constexpr (std::is_same_v<T, float>) {
      if (wire_ == WirePrecision::Bf16) {
        a.elem = sizeof(std::uint16_t);
        auto ws = std::make_shared<std::vector<std::uint16_t>>();
        auto wr = std::make_shared<std::vector<std::uint16_t>>();
        const float* src = in.data();
        const std::size_t sn = in.size();
        return post_collective(
            a, static_cast<std::int64_t>(out.size() * sizeof(std::uint16_t)),
            [ws, wr, src, sn, rn = out.size()](CollArgs& aw) {
              ws->resize(sn);
              simd::bf16_pack(src, ws->data(), static_cast<std::int64_t>(sn));
              wr->resize(rn);
              aw.send = ws->data();
              aw.recv = wr->data();
            },
            [wr, out] {
              simd::bf16_unpack(wr->data(), out.data(), static_cast<std::int64_t>(out.size()));
            });
      }
    }
    return post_collective(a, static_cast<std::int64_t>(out.size() * sizeof(T)));
  }

  /// Sum across the group, scattering chunk `pos` to member `pos`.
  /// `in.size() == out.size() * group size`; `out` must not alias `in`.
  template <typename T>
  CommHandle ireduce_scatter_sum(GroupId gid, std::span<const T> in, std::span<T> out) {
    auto& g = world_->group(gid);
    PLEXUS_CHECK(in.size() == out.size() * static_cast<std::size_t>(g.size()),
                 "reduce_scatter: bad sizes");
    CollArgs a;
    a.kind = Collective::ReduceScatter;
    a.gid = gid;
    a.send = in.data();
    a.recv = out.data();
    a.elem = sizeof(T);
    a.count = out.size();
    a.accumulate = &detail::accumulate_sum<T>;
    if constexpr (std::is_same_v<T, float>) {
      if (wire_ == WirePrecision::Bf16) {
        a.elem = sizeof(std::uint16_t);
        a.acc_elem = sizeof(float);
        a.assign = &detail::assign_bf16_f32;
        a.accumulate = &detail::accumulate_bf16_f32;
        auto wire = std::make_shared<std::vector<std::uint16_t>>();
        const float* src = in.data();
        const std::size_t sn = in.size();
        return post_collective(a, static_cast<std::int64_t>(in.size() * sizeof(std::uint16_t)),
                               [wire, src, sn](CollArgs& aw) {
                                 wire->resize(sn);
                                 simd::bf16_pack(src, wire->data(), static_cast<std::int64_t>(sn));
                                 aw.send = wire->data();
                               });
      }
    }
    return post_collective(a, static_cast<std::int64_t>(in.size() * sizeof(T)));
  }

  /// Run `fn` on this rank's comm thread, in post order with its
  /// collectives. No sim time or stats are charged; exceptions propagate at
  /// wait(). Useful for asynchronous host-side staging and for testing the
  /// comm thread.
  CommHandle icall(std::function<void()> fn) {
    auto op = std::make_shared<detail::CommOp>();
    op->accounted = false;
    op->posted_clock = clock_ != nullptr ? clock_->time() : 0.0;
    op->done_clock = op->posted_clock;
    op->execute = [body = std::move(fn)](detail::CommOp&) { body(); };
    dispatch(op);
    return CommHandle(std::move(op), this);
  }

  // ---------------------------------------------------------------------
  // Blocking collectives: post + immediate wait through the same path.
  // ---------------------------------------------------------------------

  void barrier(GroupId gid) {
    CollArgs a;
    a.kind = Collective::Barrier;
    a.gid = gid;
    post_collective(a, 0).wait();
  }

  template <typename T>
  void all_gather(GroupId gid, std::span<const T> in, std::span<T> out) {
    iall_gather<T>(gid, in, out).wait();
  }

  template <typename T>
  void all_reduce_sum(GroupId gid, std::span<T> inout) {
    iall_reduce_sum<T>(gid, inout).wait();
  }

  template <typename T>
  void reduce_scatter_sum(GroupId gid, std::span<const T> in, std::span<T> out) {
    ireduce_scatter_sum<T>(gid, in, out).wait();
  }

  /// Max of a scalar across the group: a one-element all-reduce folded
  /// member 0 first (`acc = v0; acc = max(acc, v1); ...`), so every member
  /// returns the same bits. Priced as an 8-byte AllReduce.
  double all_reduce_max_scalar(GroupId gid, double value) {
    return all_reduce_scalar(gid, value, &detail::accumulate_max<double>);
  }

  /// Sum of a scalar across the group, folded the same way (`v0 + v1 + ...`).
  double all_reduce_sum_scalar(GroupId gid, double value) {
    return all_reduce_scalar(gid, value, &detail::accumulate_sum<double>);
  }

 private:
  friend class CommHandle;

  double all_reduce_scalar(GroupId gid, double value,
                           void (*fold)(void* acc, const void* src, std::size_t n)) {
    CollArgs a;
    a.kind = Collective::AllReduce;
    a.gid = gid;
    a.recv = &value;
    a.elem = sizeof(double);
    a.count = 1;
    a.accumulate = fold;
    post_collective(a, sizeof(double)).wait();
    return value;
  }

  /// The one post path every collective shares: route the op through the
  /// selected transport. For in-process (protocol) transports the execute
  /// closure runs the shared barrier protocol — publish clocks+buffer,
  /// transport movement, completion derivation, trailing writes — so the
  /// accounting is transport-invariant. Non-protocol transports own the whole
  /// op (they fill the completion fields from the cost model themselves).
  ///
  /// Compressed-wire fp32 payloads pass `stage` and, when received wire data
  /// must be widened, `unstage`. `stage` runs first on the op's executing
  /// thread: it packs this rank's contribution into staging owned by the
  /// closure and points the CollArgs at it, so the pack overlaps like the
  /// rest of the op on the comm thread. `unstage` runs after the transport
  /// completes, widening the wire data back into the caller's fp32 buffers.
  /// The staging lives inside the op closure, so nonblocking handles can be
  /// waited from anywhere.
  CommHandle post_collective(CollArgs a, std::int64_t bytes,
                             std::function<void(CollArgs&)> stage = nullptr,
                             std::function<void()> unstage = nullptr) {
    auto& g = world_->group(a.gid);
    a.pos = g.position_of(rank_);
    return post_op(a.kind, bytes,
                   [&g, a, t = transport_, stage = std::move(stage),
                    unstage = std::move(unstage)](detail::CommOp& op) mutable {
                     if (stage) stage(a);
                     if (t->uses_group_protocol()) {
                       const void* pub =
                           a.send != nullptr ? a.send : static_cast<const void*>(a.recv);
                       const double floor = detail::publish(g, a.pos, pub, op.posted_clock);
                       g.barrier->arrive_and_wait();
                       t->move(g, a);
                       detail::finish_read_phase(g, a.pos, floor, op);
                       g.barrier->arrive_and_wait();
                       t->finalize(g, a);
                     } else {
                       t->execute(g, a, op);
                     }
                     if (unstage) unstage();
                   });
  }

  /// The one accounting path every op shares: build the op record, hand it
  /// to the comm thread (or execute inline), return the handle.
  CommHandle post_op(Collective kind, std::int64_t bytes,
                     std::function<void(detail::CommOp&)> body) {
    auto op = std::make_shared<detail::CommOp>();
    op->op = kind;
    op->bytes = bytes;
    op->clocked = clock_ != nullptr;
    op->posted_clock = clock_ != nullptr ? clock_->time() : 0.0;
    op->execute = std::move(body);
    if (clock_ != nullptr) outstanding_posts_.insert(op->posted_clock);
    dispatch(op);
    return CommHandle(std::move(op), this);
  }

  void dispatch(const std::shared_ptr<detail::CommOp>& op) {
    posted_any_ = true;
    if (!comm_thread_) {
      CommEngine::run_inline(*op);
      return;
    }
    if (!engine_) engine_ = std::make_unique<CommEngine>();
    engine_->post(op);
  }

  /// Total compute-busy time inside the sim interval [a, b]. compute_spans_
  /// is sorted and disjoint, so binary-search the first span ending after `a`
  /// and walk forward.
  double compute_overlap(double a, double b) const {
    if (b <= a) return 0.0;
    auto it = std::upper_bound(
        compute_spans_.begin(), compute_spans_.end(), a,
        [](double v, const std::pair<double, double>& s) { return v < s.second; });
    double acc = 0.0;
    for (; it != compute_spans_.end() && it->first < b; ++it) {
      acc += std::min(b, it->second) - std::max(a, it->first);
    }
    return acc;
  }

  /// Drop compute spans no future retire can reference: a transfer interval
  /// starts no earlier than its op's own post clock, so spans ending at or
  /// before the oldest outstanding post (or before "now" when nothing is
  /// outstanding) are dead. Amortised so the span list stays small over long
  /// trainings.
  void prune_compute_spans() {
    if (compute_spans_.size() < 64) return;
    const double floor = outstanding_posts_.empty()
                             ? std::numeric_limits<double>::infinity()
                             : *outstanding_posts_.begin();
    auto keep = std::find_if(
        compute_spans_.begin(), compute_spans_.end(),
        [floor](const std::pair<double, double>& s) { return s.second > floor; });
    compute_spans_.erase(compute_spans_.begin(), keep);
  }

  void forget_post(const detail::CommOp& op) {
    if (clock_ == nullptr) return;
    const auto it = outstanding_posts_.find(op.posted_clock);
    if (it != outstanding_posts_.end()) outstanding_posts_.erase(it);
  }

  /// Accounting for a dropped (never-waited) handle: no time, no stats, but
  /// the op must stop pinning the compute-span prune floor.
  void discard(detail::CommOp& op) {
    if (op.accounted) forget_post(op);
  }

  /// Charge the finished op onto this rank's clock/stats (caller thread only).
  void retire(detail::CommOp& op) {
    if (op.error) {
      std::exception_ptr e = op.error;
      op.error = nullptr;
      std::rethrow_exception(e);
    }
    if (!op.accounted) return;
    forget_post(op);
    auto& e = stats_.entry(op.op);
    e.calls += 1;
    e.bytes += op.bytes;
    e.wire_bytes += op.wire_bytes;
    if (clock_ == nullptr) {
      // Functional-only mode: no overlap semantics; charge the cost-model
      // time per op (done_clock carries the meaningless busy horizon here).
      e.sim_seconds += op.full_seconds;
      return;
    }
    const double t_wait = clock_->time();
    const double exposed = std::max(0.0, op.done_clock - t_wait);
    // Hidden = the part of the transfer interval [done - T, done] this rank
    // spent computing, measured against the recorded busy intervals. Exact
    // for any wait order: clock advances caused by waiting on *other*
    // handles are not busy intervals, and compute charged after this op's
    // sim completion lies outside the transfer interval, so neither is ever
    // credited (the old compute-since-post cap could credit the latter under
    // out-of-order waits). Exposed can exceed full_seconds (straggler +
    // link-queue wait surfaces at a blocking wait()); hidden + exposed never
    // exceeds full_seconds because busy intervals end at t_wait.
    const double hidden = compute_overlap(op.done_clock - op.full_seconds, op.done_clock);
    e.sim_seconds += exposed;
    e.hidden_seconds += hidden;
    if (op.done_clock > clock_->time()) clock_->set(op.done_clock);
    timeline_.record(TimelineSpan::Kind::CommInFlight, op.op, op.posted_clock, op.done_clock);
    timeline_.record(TimelineSpan::Kind::CommExposed, op.op, t_wait, op.done_clock);
  }

  World* world_;
  int rank_;
  SimClock* clock_;
  Transport* transport_;  ///< byte-movement backend (never null)
  WirePrecision wire_ = WirePrecision::Fp32;  ///< fp32 payload wire format (transport.hpp)
  CommStats stats_;
  Timeline timeline_;
  /// Disjoint, sorted [t0, t1) intervals during which this rank charged
  /// compute — the ground truth for exact hidden-time attribution.
  std::vector<std::pair<double, double>> compute_spans_;
  /// Post clocks of accounted, not-yet-retired ops (prune floor).
  std::multiset<double> outstanding_posts_;
  bool comm_thread_;         ///< comm_thread_budget() == 1 at creation
  bool posted_any_ = false;  ///< any op dispatched (guards set_clock)
  std::unique_ptr<CommEngine> engine_;
};

inline void CommHandle::wait() {
  PLEXUS_CHECK(op_ != nullptr, "wait() on an empty CommHandle");
  op_->wait_finished();
  if (op_->retired) return;  // second wait: no charge
  op_->retired = true;
  owner_->retire(*op_);
}

inline void CommHandle::release() {
  if (op_ && !op_->retired) {
    // Completing (not cancelling) keeps the barrier protocol matched; any
    // pending error dies with the op record.
    op_->wait_finished();
    op_->retired = true;
    if (owner_ != nullptr) owner_->discard(*op_);
  }
  op_.reset();
}

}  // namespace plexus::comm
