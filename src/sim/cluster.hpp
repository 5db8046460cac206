#pragma once
/// \file cluster.hpp
/// SPMD launcher: runs one std::thread per simulated GPU rank.
///
/// Each rank receives a `RankContext` bundling its communicator, its simulated
/// clock and the machine model. The body executes the *real* distributed
/// algorithm; clocks accumulate modelled kernel/collective time. Exceptions
/// thrown by any rank are captured and rethrown on the launching thread
/// (other ranks would deadlock on their barriers otherwise — a thrown rank
/// aborts the whole cluster run, matching an MPI job abort).

#include <functional>

#include "comm/clock.hpp"
#include "comm/communicator.hpp"
#include "comm/world.hpp"
#include "sim/machine.hpp"

namespace plexus::sim {

struct RankContext {
  comm::Communicator comm;
  comm::SimClock clock;
  const Machine* machine = nullptr;

  int rank() const { return comm.rank(); }
};

using RankFn = std::function<void(RankContext&)>;

/// Per-rank compute-thread budget for a cluster of `num_ranks` simulated
/// ranks. `requested > 0` wins verbatim (callers may deliberately
/// oversubscribe); otherwise the process budget — PLEXUS_THREADS when set,
/// else the hardware concurrency — is divided across ranks so an 8-rank run
/// does not oversubscribe the host. When the comm thread is enabled
/// (comm::comm_thread_budget() == 1, the default) each rank's share
/// additionally reserves one slot for it, so compute + comm stay within the
/// host budget. Always >= 1.
int resolve_intra_rank_threads(int requested, int num_ranks);

/// Run `fn` SPMD over all ranks of `world`. When `enable_clock` is false the
/// context's clock pointer inside the communicator is null (functional-only).
/// Each rank thread's kernel engine is set to
/// resolve_intra_rank_threads(intra_rank_threads, world.size()) threads.
/// `transport` selects the byte-movement backend for every rank's
/// communicator (null = Sim); it must be an in-process transport — ranks
/// here are threads of one process, so a distributed backend (MPI) needs its
/// own one-process-per-rank launcher.
/// Throws the first rank exception encountered.
void run_cluster(comm::World& world, const Machine& machine, const RankFn& fn,
                 bool enable_clock = true, int intra_rank_threads = 0,
                 comm::Transport* transport = nullptr);

/// Run `fn` as *this process's* single rank of a multi-process cluster: the
/// one-process-per-rank counterpart of run_cluster for distributed
/// (non-protocol) transports such as MPI. Every launched process must call
/// this with an identically-shaped `world` and its own `my_rank` (= MPI
/// rank). `enable_clock` requires `transport.supports_clock()` (the MPI
/// backend piggybacks the clock exchange on its collectives). The kernel
/// engine still divides the host budget by `world.size()` — mpirun places all
/// ranks on one host in the CI/dev setups this targets; pass an explicit
/// `intra_rank_threads` for true multi-node launches. Rank exceptions
/// propagate to the caller (an unmatched collective aborts the MPI job, as a
/// real MPI error would).
void run_distributed_rank(comm::World& world, const Machine& machine, int my_rank,
                          const RankFn& fn, comm::Transport& transport,
                          bool enable_clock = true, int intra_rank_threads = 0);

}  // namespace plexus::sim
