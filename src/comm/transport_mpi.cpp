/// \file transport_mpi.cpp
/// The MPI byte-transport (compiled only with -DPLEXUS_WITH_MPI=ON).
///
/// One process per rank. Each plexus `GroupShared` is lazily mapped onto an
/// MPI sub-communicator via `MPI_Comm_create_group` over the group's member
/// list (collective only over the members, so creation order follows the SPMD
/// posting order without involving non-members); the plexus World size must
/// equal `MPI_COMM_WORLD`'s size and plexus ranks are MPI ranks. The members
/// list is passed to `MPI_Group_incl` in group-position order, so a member's
/// sub-communicator rank equals its plexus group position — the property the
/// gathers below rely on.
///
/// Collective mapping:
///
///   iall_gather        -> MPI_Iallgatherv  (equal counts, exact copies)
///   broadcast          -> MPI_Ibcast
///   all_to_all         -> MPI_Ialltoallv   (equal counts)
///   all_to_all_v       -> MPI_Alltoall of counts + MPI_Ialltoallv payload
///   barrier            -> MPI_Ibarrier
///   ireduce_scatter    -> MPI_Allgather of the full inputs + canonical fold
///   iall_reduce_sum    -> MPI_Allgather of the contributions + canonical fold
///   scalar reductions  -> MPI_Allgather of one double + canonical fold
///
/// Reductions deliberately avoid `MPI_SUM`: MPI leaves the reduction order
/// implementation-defined, while the transport conformance contract requires
/// contributions folded with `CollArgs::accumulate` in canonical member order
/// (member 0, 1, …, G−1 — exactly what SimTransport::move does). Gathering
/// every contribution and folding locally costs extra wire volume but makes
/// float results bitwise-identical to the in-process backends, which is what
/// lets `mpirun`ed training gate its losses against the `sim` backend.
///
/// The request is posted and completed on the op's executing thread (a comm
/// channel, or the posting thread in inline mode), so CommHandle
/// post/wait/test/drop keep their exact semantics: `test()` polls the
/// channel-side completion flag, `wait()` retires the op, dropping completes
/// but skips the accounting. With channel budgets > 0 multiple threads enter
/// MPI concurrently — initialise with MPI_THREAD_MULTIPLE (mpi_runtime_init
/// does, and downgrades the budget when the library grants less).
///
/// Sim clocks work cross-process by piggybacking one fused
/// `MPI_Allreduce(MPI_MAX, {posted clock, payload bytes})` on every clocked
/// op. That is all the completion math needs: `done = max(link busy horizon,
/// max member post clock) + T_ring(bytes)`. Each process keeps its own copy
/// of the group's `link_busy_until`, but the written value is group-uniform
/// (max of group-uniform inputs) and ops on one group execute in SPMD posting
/// order, so the copies stay equal by induction — the same argument the
/// in-process protocol makes for member 0's single copy. Unclocked
/// Communicators skip the fused allreduce entirely and charge cost-model
/// time per op, as before.

#include <mpi.h>

#include <algorithm>
#include <cstring>
#include <limits>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "comm/transport.hpp"
#include "util/error.hpp"

namespace plexus::comm {

namespace {

void mpi_check(int err, const char* what) {
  if (err == MPI_SUCCESS) return;
  char msg[MPI_MAX_ERROR_STRING + 1] = {0};
  int len = 0;
  MPI_Error_string(err, msg, &len);
  PLEXUS_CHECK(false, std::string(what) + ": " + msg);
}

/// MPI implementations may reject null buffer pointers even with zero counts
/// (the standard leaves it undefined); empty send lists and 0-row slabs are
/// legal plexus payloads, so substitute a dummy non-null pointer.
unsigned char g_zero_payload_dummy = 0;
const void* nn(const void* p) { return p != nullptr ? p : &g_zero_payload_dummy; }
void* nn(void* p) { return p != nullptr ? p : static_cast<void*>(&g_zero_payload_dummy); }

class MpiTransport final : public Transport {
 public:
  ~MpiTransport() override {
    // Communicators leak deliberately: MPI_Finalize order vs static
    // destruction is unknowable, and freeing after finalize aborts.
  }

  Backend backend() const override { return Backend::Mpi; }
  const char* name() const override { return "mpi"; }
  bool uses_group_protocol() const override { return false; }
  bool supports_clock() const override { return true; }

  void execute(GroupShared& g, const CollArgs& a, detail::CommOp& op) override {
    MPI_Comm comm = comm_for(g, a.gid);
    check_rank_identity(g, a);
    const int G = g.size();
    MPI_Request req = MPI_REQUEST_NULL;
    // MPI-3 counts and displacements are int: reject payloads whose per-chunk
    // size or whose largest displacement (G-1 chunks in) would overflow,
    // turning silent corruption into a clean error. (Large-count MPI-4
    // *_c variants are a follow-on.)
    const std::uint64_t chunk_bytes =
        static_cast<std::uint64_t>(a.count) * static_cast<std::uint64_t>(a.elem);
    PLEXUS_CHECK(chunk_bytes * static_cast<std::uint64_t>(G) <=
                     static_cast<std::uint64_t>(std::numeric_limits<int>::max()),
                 "MPI transport: payload exceeds MPI int counts/displacements");
    const auto nb = static_cast<int>(chunk_bytes);
    switch (a.kind) {
      case Collective::Barrier: {
        const double max_posted = clock_sync(comm, op, op.bytes);
        mpi_check(MPI_Ibarrier(comm, &req), "MPI_Ibarrier");
        mpi_check(MPI_Wait(&req, MPI_STATUS_IGNORE), "MPI_Wait");
        finish(g, op, max_posted);
        return;
      }
      case Collective::AllGather: {
        const double max_posted = clock_sync(comm, op, op.bytes);
        counts_.assign(static_cast<std::size_t>(G), nb);
        displs_.resize(static_cast<std::size_t>(G));
        for (int m = 0; m < G; ++m) displs_[static_cast<std::size_t>(m)] = m * nb;
        mpi_check(MPI_Iallgatherv(nn(a.send), nb, MPI_BYTE, nn(a.recv), counts_.data(),
                                  displs_.data(), MPI_BYTE, comm, &req),
                  "MPI_Iallgatherv");
        mpi_check(MPI_Wait(&req, MPI_STATUS_IGNORE), "MPI_Wait");
        finish(g, op, max_posted);
        return;
      }
      case Collective::ReduceScatter: {
        // Gather every member's full input, then fold this member's chunk in
        // canonical order — bitwise-identical to SimTransport's read phase.
        const double max_posted = clock_sync(comm, op, op.bytes);
        const std::uint64_t full = chunk_bytes * static_cast<std::uint64_t>(G);
        PLEXUS_CHECK(full * static_cast<std::uint64_t>(G) <=
                         static_cast<std::uint64_t>(std::numeric_limits<int>::max()),
                     "MPI transport: reduce_scatter gather exceeds MPI int counts");
        auto& buf = gather_buf_;
        buf.resize(full * static_cast<std::uint64_t>(G));
        mpi_check(MPI_Allgather(nn(a.send), static_cast<int>(full), MPI_BYTE, nn(buf.data()),
                                static_cast<int>(full), MPI_BYTE, comm),
                  "MPI_Allgather(reduce_scatter)");
        if (chunk_bytes > 0) {
          const std::uint64_t off = static_cast<std::uint64_t>(a.pos) * chunk_bytes;
          detail::assign_chunk(a, a.recv, buf.data() + off);
          for (int m = 1; m < G; ++m) {
            a.accumulate(a.recv, buf.data() + static_cast<std::uint64_t>(m) * full + off,
                         a.count);
          }
        }
        finish(g, op, max_posted);
        return;
      }
      case Collective::AllReduce: {
        const double max_posted = clock_sync(comm, op, op.bytes);
        if (a.scalar_op) {
          // Same left-fold as the in-process aux-slot exchange.
          scalars_.resize(static_cast<std::size_t>(G));
          mpi_check(MPI_Allgather(&a.scalar_value, 1, MPI_DOUBLE, scalars_.data(), 1,
                                  MPI_DOUBLE, comm),
                    "MPI_Allgather(scalar)");
          double acc = a.scalar_is_max ? a.scalar_value : 0.0;
          for (int m = 0; m < G; ++m) {
            const double v = scalars_[static_cast<std::size_t>(m)];
            acc = a.scalar_is_max ? std::max(acc, v) : acc + v;
          }
          op.scalar = acc;
          finish(g, op, max_posted);
          return;
        }
        // Gather every member's *published* contribution (the packed wire
        // buffer under a compressed wire format, else the in-place buffer),
        // fold member 0 first then 1..G-1 — SimTransport's scratch fold,
        // verbatim.
        auto& buf = gather_buf_;
        buf.resize(chunk_bytes * static_cast<std::uint64_t>(G));
        const void* contrib = a.send != nullptr ? a.send : a.recv;
        mpi_check(MPI_Allgather(nn(contrib), nb, MPI_BYTE, nn(buf.data()), nb, MPI_BYTE, comm),
                  "MPI_Allgather(all_reduce)");
        if (chunk_bytes > 0) {
          detail::assign_chunk(a, a.recv, buf.data());
          for (int m = 1; m < G; ++m) {
            a.accumulate(a.recv, buf.data() + static_cast<std::uint64_t>(m) * chunk_bytes,
                         a.count);
          }
        }
        finish(g, op, max_posted);
        return;
      }
      case Collective::Broadcast: {
        const double max_posted = clock_sync(comm, op, op.bytes);
        mpi_check(MPI_Ibcast(nn(a.recv), nb, MPI_BYTE, a.root, comm, &req), "MPI_Ibcast");
        mpi_check(MPI_Wait(&req, MPI_STATUS_IGNORE), "MPI_Wait");
        finish(g, op, max_posted);
        return;
      }
      case Collective::AllToAll: {
        const double max_posted = clock_sync(comm, op, op.bytes);
        counts_.assign(static_cast<std::size_t>(G), nb);
        displs_.resize(static_cast<std::size_t>(G));
        for (int m = 0; m < G; ++m) displs_[static_cast<std::size_t>(m)] = m * nb;
        mpi_check(MPI_Ialltoallv(nn(a.send), counts_.data(), displs_.data(), MPI_BYTE,
                                 nn(a.recv), counts_.data(), displs_.data(), MPI_BYTE,
                                 comm, &req),
                  "MPI_Ialltoallv");
        mpi_check(MPI_Wait(&req, MPI_STATUS_IGNORE), "MPI_Wait");
        finish(g, op, max_posted);
        return;
      }
      case Collective::Send:
        PLEXUS_CHECK(false, "point-to-point is accounting-only");
    }
    PLEXUS_CHECK(false, "unknown collective");
  }

  void alltoallv(GroupShared& g, const CollArgs& a,
                 const std::vector<std::span<const unsigned char>>& send,
                 std::vector<std::vector<unsigned char>>& recv,
                 detail::CommOp& op) override {
    MPI_Comm comm = comm_for(g, a.gid);
    check_rank_identity(g, a);
    const int G = g.size();
    // Exchange per-member byte counts, then the payload.
    std::vector<std::int64_t> send_counts(static_cast<std::size_t>(G));
    std::vector<std::int64_t> recv_counts(static_cast<std::size_t>(G));
    std::int64_t my_total = 0;
    for (int m = 0; m < G; ++m) {
      send_counts[static_cast<std::size_t>(m)] =
          static_cast<std::int64_t>(send[static_cast<std::size_t>(m)].size());
      my_total += send_counts[static_cast<std::size_t>(m)];
    }
    const double max_posted = clock_sync(comm, op, my_total);
    mpi_check(MPI_Alltoall(send_counts.data(), 1, MPI_INT64_T, recv_counts.data(), 1,
                           MPI_INT64_T, comm),
              "MPI_Alltoall(counts)");
    std::vector<int> scounts(static_cast<std::size_t>(G)), sdispls(static_cast<std::size_t>(G));
    std::vector<int> rcounts(static_cast<std::size_t>(G)), rdispls(static_cast<std::size_t>(G));
    std::int64_t soff64 = 0, roff64 = 0;
    for (int m = 0; m < G; ++m) {
      soff64 += send_counts[static_cast<std::size_t>(m)];
      roff64 += recv_counts[static_cast<std::size_t>(m)];
    }
    PLEXUS_CHECK(soff64 <= std::numeric_limits<int>::max() &&
                     roff64 <= std::numeric_limits<int>::max(),
                 "MPI transport: all_to_all_v payload exceeds MPI int counts");
    int soff = 0, roff = 0;
    for (int m = 0; m < G; ++m) {
      scounts[static_cast<std::size_t>(m)] =
          static_cast<int>(send_counts[static_cast<std::size_t>(m)]);
      rcounts[static_cast<std::size_t>(m)] =
          static_cast<int>(recv_counts[static_cast<std::size_t>(m)]);
      sdispls[static_cast<std::size_t>(m)] = soff;
      rdispls[static_cast<std::size_t>(m)] = roff;
      soff += scounts[static_cast<std::size_t>(m)];
      roff += rcounts[static_cast<std::size_t>(m)];
    }
    std::vector<unsigned char> send_flat(static_cast<std::size_t>(soff));
    for (int m = 0; m < G; ++m) {
      const auto& s = send[static_cast<std::size_t>(m)];
      if (!s.empty()) {
        std::copy(s.begin(), s.end(),
                  send_flat.begin() + sdispls[static_cast<std::size_t>(m)]);
      }
    }
    std::vector<unsigned char> recv_flat(static_cast<std::size_t>(roff));
    MPI_Request req = MPI_REQUEST_NULL;
    mpi_check(MPI_Ialltoallv(nn(send_flat.data()), scounts.data(), sdispls.data(), MPI_BYTE,
                             nn(recv_flat.data()), rcounts.data(), rdispls.data(), MPI_BYTE,
                             comm, &req),
              "MPI_Ialltoallv");
    mpi_check(MPI_Wait(&req, MPI_STATUS_IGNORE), "MPI_Wait");
    recv.assign(static_cast<std::size_t>(G), {});
    for (int m = 0; m < G; ++m) {
      recv[static_cast<std::size_t>(m)].assign(
          recv_flat.begin() + rdispls[static_cast<std::size_t>(m)],
          recv_flat.begin() + rdispls[static_cast<std::size_t>(m)] +
              rcounts[static_cast<std::size_t>(m)]);
    }
    // The straggler defines the exchange: cost the maximum per-member total.
    // Clocked ops already exchanged it through the fused allreduce.
    if (!op.clocked) {
      std::int64_t max_total = my_total;
      mpi_check(MPI_Allreduce(MPI_IN_PLACE, &max_total, 1, MPI_INT64_T, MPI_MAX, comm),
                "MPI_Allreduce(max bytes)");
      op.bytes = max_total;
    }
    finish(g, op, max_posted);
  }

 private:
  /// The whole mapping assumes plexus rank == MPI rank: `a.pos` places data
  /// by plexus position while MPI places it by process rank. Reject the
  /// mismatch instead of scattering chunks into the wrong slots.
  static void check_rank_identity(const GroupShared& g, const CollArgs& a) {
    int world_rank = -1;
    MPI_Comm_rank(MPI_COMM_WORLD, &world_rank);
    PLEXUS_CHECK(g.members[static_cast<std::size_t>(a.pos)] == world_rank,
                 "MPI transport: plexus rank must equal the MPI rank");
  }

  /// Clocked ops piggyback one fused max-allreduce of {posted clock, payload
  /// bytes} on the collective. Both results are group-uniform: the clock max
  /// feeds the completion instant, the byte max prices variable exchanges by
  /// their straggler (for fixed-size collectives `my_bytes` is already
  /// uniform, so the second lane is a no-op). Unclocked ops skip the wire
  /// round-trip and keep the post-clock-only accounting.
  static double clock_sync(MPI_Comm comm, detail::CommOp& op, std::int64_t my_bytes) {
    if (!op.clocked) return op.posted_clock;
    double v[2] = {op.posted_clock, static_cast<double>(my_bytes)};
    mpi_check(MPI_Allreduce(MPI_IN_PLACE, v, 2, MPI_DOUBLE, MPI_MAX, comm),
              "MPI_Allreduce(clock sync)");
    op.bytes = static_cast<std::int64_t>(v[1]);
    return v[0];
  }

  /// Completion math. Clocked: the in-process `finish_read_phase` formula —
  /// start at max(group link-busy horizon, latest member post clock), add the
  /// ring cost, advance this process's copy of the horizon (group-uniform by
  /// induction, see file comment). Unclocked: cost-model time from the
  /// poster's (zero) clock, as before.
  static void finish(GroupShared& g, detail::CommOp& op, double max_posted) {
    op.full_seconds =
        collective_time(op.op, op.bytes, g.size(), g.link, g.a2a_distance_penalty);
    op.wire_bytes = wire_bytes(op.op, op.bytes, g.size());
    if (op.clocked) {
      const double start = std::max(g.link_busy_until, max_posted);
      op.done_clock = start + op.full_seconds;
      g.link_busy_until = op.done_clock;
    } else {
      op.done_clock = op.posted_clock + op.full_seconds;
    }
  }

  MPI_Comm comm_for(GroupShared& g, GroupId gid) {
    int initialized = 0;
    MPI_Initialized(&initialized);
    PLEXUS_CHECK(initialized != 0, "MPI backend: call MPI_Init first");
    {
      std::lock_guard<std::mutex> lock(m_);
      const auto it = comms_.find(gid);
      if (it != comms_.end()) return it->second;
    }
    // Create outside the cache lock: MPI_Comm_create_group is collective over
    // the member set, and members may be creating different groups
    // concurrently on different channels.
    int world_rank = -1, world_size = 0;
    MPI_Comm_rank(MPI_COMM_WORLD, &world_rank);
    MPI_Comm_size(MPI_COMM_WORLD, &world_size);
    PLEXUS_CHECK(world_size >= g.size(), "plexus group larger than MPI world");
    PLEXUS_CHECK(g.position_of(world_rank) >= 0, "rank not in group");
    MPI_Group world_group = MPI_GROUP_NULL;
    MPI_Group sub_group = MPI_GROUP_NULL;
    mpi_check(MPI_Comm_group(MPI_COMM_WORLD, &world_group), "MPI_Comm_group");
    mpi_check(MPI_Group_incl(world_group, g.size(), g.members.data(), &sub_group),
              "MPI_Group_incl");
    MPI_Comm sub = MPI_COMM_NULL;
    mpi_check(MPI_Comm_create_group(MPI_COMM_WORLD, sub_group, /*tag=*/gid, &sub),
              "MPI_Comm_create_group");
    MPI_Group_free(&sub_group);
    MPI_Group_free(&world_group);
    std::lock_guard<std::mutex> lock(m_);
    const auto [it, inserted] = comms_.emplace(gid, sub);
    if (!inserted) MPI_Comm_free(&sub);  // lost a (same-thread-impossible) race
    return it->second;
  }

  std::mutex m_;
  std::unordered_map<GroupId, MPI_Comm> comms_;
  // Reused count/displacement/gather scratch. One MpiTransport is shared by
  // every channel thread, so these must be per-thread to stay race-free.
  static thread_local std::vector<int> counts_;
  static thread_local std::vector<int> displs_;
  static thread_local std::vector<unsigned char> gather_buf_;
  static thread_local std::vector<double> scalars_;
};

thread_local std::vector<int> MpiTransport::counts_;
thread_local std::vector<int> MpiTransport::displs_;
thread_local std::vector<unsigned char> MpiTransport::gather_buf_;
thread_local std::vector<double> MpiTransport::scalars_;

}  // namespace

namespace detail {

Transport& mpi_transport() {
  static MpiTransport t;
  return t;
}

}  // namespace detail

MpiRuntime mpi_runtime_init(int* argc, char*** argv) {
  int initialized = 0;
  MPI_Initialized(&initialized);
  int provided = MPI_THREAD_SINGLE;
  if (initialized == 0) {
    mpi_check(MPI_Init_thread(argc, argv, MPI_THREAD_MULTIPLE, &provided),
              "MPI_Init_thread");
  } else {
    mpi_check(MPI_Query_thread(&provided), "MPI_Query_thread");
  }
  // Comm channels make MPI calls from their own threads. Under
  // MPI_THREAD_MULTIPLE any budget works; SERIALIZED tolerates exactly one
  // channel; anything less forces inline mode (posting thread does MPI).
  if (provided < MPI_THREAD_SERIALIZED) {
    set_comm_thread_budget(0);
  } else if (provided < MPI_THREAD_MULTIPLE && comm_thread_budget() > 1) {
    set_comm_thread_budget(1);
  }
  MpiRuntime rt;
  MPI_Comm_rank(MPI_COMM_WORLD, &rt.rank);
  MPI_Comm_size(MPI_COMM_WORLD, &rt.size);
  return rt;
}

void mpi_runtime_barrier() {
  mpi_check(MPI_Barrier(MPI_COMM_WORLD), "MPI_Barrier");
}

void mpi_runtime_finalize() {
  int initialized = 0, finalized = 0;
  MPI_Initialized(&initialized);
  MPI_Finalized(&finalized);
  if (initialized != 0 && finalized == 0) MPI_Finalize();
}

}  // namespace plexus::comm
