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
///   barrier            -> MPI_Ibarrier
///   ireduce_scatter    -> MPI_Alltoall of the per-member chunks + canonical
///                         fold of the own chunk
///   iall_reduce_sum    -> MPI_Alltoallv of the fold slices + canonical fold
///                         of the own slice + MPI_Allgatherv of the folded
///                         slices (in place into the result buffer)
///   scalar reductions  -> the same, over one double (max or sum fold)
///
/// Reductions deliberately avoid `MPI_SUM`: MPI leaves the reduction order
/// implementation-defined, while the transport conformance contract requires
/// contributions folded with `CollArgs::accumulate` in canonical member order
/// (member 0, 1, …, G−1 — exactly what SimTransport::move does). Each member
/// folds only its own slice ([count·m/G, count·(m+1)/G), `detail::fold_slice`,
/// the split SimTransport uses), so a process receives 2(G−1)/G·N bytes per
/// all-reduce — the ring volume the cost model charges — and float results
/// stay bitwise-identical to the in-process backends, which is what lets
/// `mpirun`ed training gate its losses against the `sim` backend. A
/// one-member fp32 all-reduce is the identity and makes no MPI call.
///
/// The request is posted and completed on the op's executing thread (the
/// rank's comm thread, or the posting thread in inline mode), so CommHandle
/// post/wait/test/drop keep their exact semantics: `test()` polls the
/// comm-thread completion flag, `wait()` retires the op, dropping completes
/// but skips the accounting. Only that one thread makes the collective MPI
/// calls, so MPI_THREAD_SERIALIZED suffices (mpi_runtime_init asks for it and
/// falls back to inline mode when the library grants less).
///
/// Sim clocks work cross-process by piggybacking one
/// `MPI_Allreduce(MPI_MAX, posted clock)` on every clocked op. That is all
/// the completion math needs: `done = max(link busy horizon, max member post
/// clock) + T_ring(bytes)`, and `bytes` is already equal on every member.
/// Each process keeps its own copy of the group's `link_busy_until`, but the
/// written value is group-uniform (max of group-uniform inputs) and ops on
/// one group execute in SPMD posting order, so the copies stay equal by
/// induction — the same argument the in-process protocol makes for member
/// 0's single copy. Unclocked Communicators skip the clock allreduce
/// entirely and charge cost-model time per op, as before.

#include <mpi.h>

#include <algorithm>
#include <limits>
#include <mutex>
#include <string>
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

/// `v` as an MPI count or displacement. MPI-3 counts and displacements are
/// int, so every message's values are checked, turning an overflow into a
/// clean error instead of silent corruption. (Large-count MPI-4 `*_c`
/// variants are a follow-on.)
int mpi_int(std::uint64_t v, const char* what) {
  PLEXUS_CHECK(v <= static_cast<std::uint64_t>(std::numeric_limits<int>::max()),
               std::string("MPI transport: ") + what + " exceeds MPI int counts");
  return static_cast<int>(v);
}

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
    check_rank_identity(g, a);
    const int G = g.size();
    if (a.kind == Collective::AllReduce && G == 1 && a.assign == nullptr) {
      // One member whose wire and accumulator types agree: the buffer already
      // is the sum, and a one-process clock sync returns the posted clock.
      finish(g, op, op.posted_clock);
      return;
    }
    MPI_Comm comm = comm_for(g, a.gid);
    MPI_Request req = MPI_REQUEST_NULL;
    const std::uint64_t chunk_bytes =
        static_cast<std::uint64_t>(a.count) * static_cast<std::uint64_t>(a.elem);
    const auto ug = static_cast<std::size_t>(G);
    switch (a.kind) {
      case Collective::Barrier: {
        const double max_posted = clock_sync(comm, op);
        mpi_check(MPI_Ibarrier(comm, &req), "MPI_Ibarrier");
        mpi_check(MPI_Wait(&req, MPI_STATUS_IGNORE), "MPI_Wait");
        finish(g, op, max_posted);
        return;
      }
      case Collective::AllGather: {
        const double max_posted = clock_sync(comm, op);
        const int nb = mpi_int(chunk_bytes, "all_gather chunk");
        counts_.assign(ug, nb);
        displs_.resize(ug);
        for (std::size_t m = 0; m < ug; ++m) {
          displs_[m] = mpi_int(m * chunk_bytes, "all_gather displacement");
        }
        mpi_check(MPI_Iallgatherv(nn(a.send), nb, MPI_BYTE, nn(a.recv), counts_.data(),
                                  displs_.data(), MPI_BYTE, comm, &req),
                  "MPI_Iallgatherv");
        mpi_check(MPI_Wait(&req, MPI_STATUS_IGNORE), "MPI_Wait");
        finish(g, op, max_posted);
        return;
      }
      case Collective::ReduceScatter: {
        // Member j receives chunk j of every member's input, then folds them
        // in canonical order — bitwise-identical to SimTransport's read phase.
        const double max_posted = clock_sync(comm, op);
        const int nb = mpi_int(chunk_bytes, "reduce_scatter chunk");
        auto& buf = gather_buf_;
        buf.resize(chunk_bytes * ug);
        mpi_check(MPI_Alltoall(nn(a.send), nb, MPI_BYTE, nn(buf.data()), nb, MPI_BYTE, comm),
                  "MPI_Alltoall(reduce_scatter)");
        if (chunk_bytes > 0) {
          detail::assign_chunk(a, a.recv, buf.data(), a.count);
          for (std::size_t m = 1; m < ug; ++m) {
            a.accumulate(a.recv, buf.data() + m * chunk_bytes, a.count);
          }
        }
        finish(g, op, max_posted);
        return;
      }
      case Collective::AllReduce: {
        // Member j receives slice j of every member's *published*
        // contribution (the packed wire buffer under a compressed wire
        // format, else the in-place buffer) and folds it member 0 first,
        // then 1..G-1 — SimTransport's fold of `fold[j]`, verbatim — into
        // slice j of `recv`. Then every member gathers the G folded slices.
        const double max_posted = clock_sync(comm, op);
        const std::size_t acc = a.accumulator_elem();
        const detail::FoldSlice own = detail::fold_slice(a.count, a.pos, G);
        const std::uint64_t own_bytes = own.size() * a.elem;
        counts_.resize(ug);
        displs_.resize(ug);
        recv_counts_.resize(ug);
        recv_displs_.resize(ug);
        for (std::size_t m = 0; m < ug; ++m) {
          const detail::FoldSlice s = detail::fold_slice(a.count, static_cast<int>(m), G);
          counts_[m] = mpi_int(s.size() * a.elem, "all_reduce slice");
          displs_[m] = mpi_int(s.begin * a.elem, "all_reduce slice displacement");
          recv_counts_[m] = mpi_int(own_bytes, "all_reduce slice");
          recv_displs_[m] = mpi_int(m * own_bytes, "all_reduce slice displacement");
        }
        auto& buf = gather_buf_;
        buf.resize(own_bytes * ug);
        const void* contrib = a.send != nullptr ? a.send : a.recv;
        mpi_check(MPI_Alltoallv(nn(contrib), counts_.data(), displs_.data(), MPI_BYTE,
                                nn(buf.data()), recv_counts_.data(), recv_displs_.data(),
                                MPI_BYTE, comm),
                  "MPI_Alltoallv(all_reduce)");
        // The own contribution has left: its slice of `recv` takes the fold.
        auto* out = static_cast<unsigned char*>(a.recv);
        if (own.size() > 0) {
          void* folded = out + own.begin * acc;
          detail::assign_chunk(a, folded, buf.data(), own.size());
          for (std::size_t m = 1; m < ug; ++m) {
            a.accumulate(folded, buf.data() + m * own_bytes, own.size());
          }
        }
        for (std::size_t m = 0; m < ug; ++m) {
          const detail::FoldSlice s = detail::fold_slice(a.count, static_cast<int>(m), G);
          counts_[m] = mpi_int(s.size() * acc, "all_reduce folded slice");
          displs_[m] = mpi_int(s.begin * acc, "all_reduce folded slice displacement");
        }
        mpi_check(MPI_Allgatherv(MPI_IN_PLACE, 0, MPI_BYTE, nn(a.recv), counts_.data(),
                                 displs_.data(), MPI_BYTE, comm),
                  "MPI_Allgatherv(all_reduce)");
        finish(g, op, max_posted);
        return;
      }
      case Collective::Broadcast:
      case Collective::AllToAll:
      case Collective::Send:
        break;
    }
    PLEXUS_CHECK(false, std::string("MPI transport: nothing posts ") + collective_name(a.kind));
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

  /// Clocked ops piggyback one max-allreduce of the posted clock on the
  /// collective; the group-uniform result feeds the completion instant. The
  /// payload bytes need no exchange: every posted collective has the same
  /// size on every member. Unclocked ops skip the wire round-trip and keep
  /// the post-clock-only accounting.
  static double clock_sync(MPI_Comm comm, const detail::CommOp& op) {
    if (!op.clocked) return op.posted_clock;
    double max_posted = op.posted_clock;
    mpi_check(MPI_Allreduce(MPI_IN_PLACE, &max_posted, 1, MPI_DOUBLE, MPI_MAX, comm),
              "MPI_Allreduce(clock sync)");
    return max_posted;
  }

  /// Completion math. Clocked: the in-process `finish_read_phase` formula —
  /// start at max(group link-busy horizon, latest member post clock), add the
  /// ring cost, advance this process's copy of the horizon (group-uniform by
  /// induction, see file comment). Unclocked: cost-model time from the
  /// poster's (zero) clock, as before.
  static void finish(GroupShared& g, detail::CommOp& op, double max_posted) {
    op.full_seconds = collective_time(op.op, op.bytes, g.size(), g.link);
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
    // Create outside the cache lock: MPI_Comm_create_group blocks until every
    // member arrives, and no lock may be held across that wait.
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
  // Reused count/displacement/receive scratch. The comm thread and, in
  // inline mode, the posting thread both execute ops, so keep them
  // per-thread.
  static thread_local std::vector<int> counts_;
  static thread_local std::vector<int> displs_;
  static thread_local std::vector<int> recv_counts_;
  static thread_local std::vector<int> recv_displs_;
  static thread_local std::vector<unsigned char> gather_buf_;
};

thread_local std::vector<int> MpiTransport::counts_;
thread_local std::vector<int> MpiTransport::displs_;
thread_local std::vector<int> MpiTransport::recv_counts_;
thread_local std::vector<int> MpiTransport::recv_displs_;
thread_local std::vector<unsigned char> MpiTransport::gather_buf_;

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
    mpi_check(MPI_Init_thread(argc, argv, MPI_THREAD_SERIALIZED, &provided),
              "MPI_Init_thread");
  } else {
    mpi_check(MPI_Query_thread(&provided), "MPI_Query_thread");
  }
  // The comm thread makes the collective MPI calls, one at a time, so
  // SERIALIZED is enough; below it the posting thread must make them itself.
  if (provided < MPI_THREAD_SERIALIZED) set_comm_thread_budget(0);
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
