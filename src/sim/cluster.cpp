#include "sim/cluster.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>
#include <vector>

#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace plexus::sim {

int resolve_intra_rank_threads(int requested, int num_ranks) {
  if (requested > 0) return requested;
  const int env = util::env_thread_override();
  const int total = env > 0 ? env : util::hardware_threads();
  // A rank's comm thread shares the rank's host-thread slice: when enabled,
  // one slot of the per-rank share is reserved for it so compute pools plus
  // comm threads stay near the process budget.
  const int comm_reserved = comm::comm_thread_budget() > 0 ? 1 : 0;
  return std::max(1, total / std::max(1, num_ranks) - comm_reserved);
}

void run_cluster(comm::World& world, const Machine& machine, const RankFn& fn,
                 bool enable_clock, int intra_rank_threads, comm::Transport* transport) {
  const int size = world.size();
  const int threads_per_rank = resolve_intra_rank_threads(intra_rank_threads, size);
  comm::Transport& t =
      transport != nullptr ? *transport : comm::transport_for(comm::Backend::Sim);
  PLEXUS_CHECK(t.uses_group_protocol(),
               "run_cluster simulates ranks as in-process threads; distributed "
               "transports need one process per rank");
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(size));
  std::atomic<bool> failed{false};
  std::exception_ptr first_error;
  std::mutex error_mutex;

  for (int r = 0; r < size; ++r) {
    threads.emplace_back([&, r] {
      // Each rank gets an equal slice of the host's compute threads; its
      // kernel pool lives and dies with this thread.
      util::set_intra_rank_threads(threads_per_rank);
      // Context is built inside the thread so the communicator's comm engine
      // is rank-local; the communicator references the context's own clock so
      // callers can inspect it after fn returns (guaranteed elision places
      // the Communicator in the aggregate directly — it is immovable).
      RankContext ctx{comm::Communicator(world, r, nullptr, &t), comm::SimClock{}, &machine};
      if (enable_clock) ctx.comm.set_clock(&ctx.clock);
      try {
        fn(ctx);
      } catch (...) {
        {
          std::lock_guard<std::mutex> lock(error_mutex);
          if (!first_error) first_error = std::current_exception();
        }
        failed.store(true);
        // A failed rank cannot keep its barrier obligations; the only safe
        // option is to abort the whole process if peers are already waiting.
        // We log and terminate the simulation via rethrow after join — but to
        // avoid deadlock we must not leave peers blocked. Ranks check `failed`
        // only between collectives, so tests construct inputs that fail on all
        // ranks symmetrically or before the first collective.
        PLEXUS_LOG(Error) << "rank " << r << " threw; cluster run aborting";
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

void run_distributed_rank(comm::World& world, const Machine& machine, int my_rank,
                          const RankFn& fn, comm::Transport& transport, bool enable_clock,
                          int intra_rank_threads) {
  PLEXUS_CHECK(!transport.uses_group_protocol(),
               "run_distributed_rank drives one process per rank; in-process "
               "transports belong in run_cluster");
  PLEXUS_CHECK(!enable_clock || transport.supports_clock(),
               "this transport cannot carry a SimClock");
  util::set_intra_rank_threads(resolve_intra_rank_threads(intra_rank_threads, world.size()));
  RankContext ctx{comm::Communicator(world, my_rank, nullptr, &transport), comm::SimClock{},
                  &machine};
  if (enable_clock) ctx.comm.set_clock(&ctx.clock);
  fn(ctx);
}

}  // namespace plexus::sim
