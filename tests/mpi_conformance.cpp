// Transport conformance for the MPI backend (PLEXUS_WITH_MPI=ON), run as
//
//   mpirun -np 4 ./tests/mpi_conformance
//
// One process per rank. Every process derives the full schedule — group
// shapes, payloads, expected results — deterministically from (group,
// collective, member), so each collective's output is checked locally with
// no reference process. All-gather copies must match exactly; reductions
// must too, because the MPI transport never uses MPI_SUM (implementation-
// defined order) — it gathers every contribution and folds in canonical
// member order 0..G-1, exactly like the in-process backends. The CommHandle lifecycle (post / test /
// out-of-order wait / drop) and the stats accounting are exercised too,
// and an end-to-end block trains the full model over the MPI backend from a
// sharded dataset directory, gating its losses bitwise against the
// in-process Sim backend.
//
// Exit code 0 on success; nonzero (aborting the mpirun) on any failure.

#include <mpi.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/transport.hpp"
#include "comm/world.hpp"
#include "core/dataset_view.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace pc = plexus::comm;

namespace {

int g_failures = 0;
int g_rank = -1;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++g_failures;
  std::fprintf(stderr, "[mpi_conformance] rank %d FAILED: %s\n", g_rank, what.c_str());
}

void expect_near(float got, float want, const std::string& what) {
  const float tol = 1e-4f * (1.0f + std::fabs(want));
  expect(std::fabs(got - want) <= tol,
         what + " got=" + std::to_string(got) + " want=" + std::to_string(want));
}

/// Deterministic payload element for (group, collective kind, member, index).
float payload(int gid, int kind, int member_rank, std::size_t i) {
  const plexus::util::CounterRng rng(
      plexus::util::hash_combine(static_cast<std::uint64_t>(gid * 16 + kind),
                                 static_cast<std::uint64_t>(member_rank)));
  return rng.uniform_at(i, -2.0f, 2.0f);
}

void run_group(pc::Communicator& comm, pc::GroupId gid) {
  auto& g = comm.world().group(gid);
  const int G = g.size();
  bool member = false;
  for (const int m : g.members) member |= (m == g_rank);
  if (!member) return;
  const int pos = g.position_of(g_rank);
  const std::size_t n = 64 + static_cast<std::size_t>(gid) * 3;

  // all-gather: exact.
  std::vector<float> ag_in(n), ag_out(n * static_cast<std::size_t>(G));
  for (std::size_t i = 0; i < n; ++i) ag_in[i] = payload(gid, 0, g_rank, i);
  comm.all_gather<float>(gid, ag_in, ag_out);
  for (int m = 0; m < G; ++m) {
    for (std::size_t i = 0; i < n; ++i) {
      expect(ag_out[static_cast<std::size_t>(m) * n + i] == payload(gid, 0, g.members[m], i),
             "all_gather gid=" + std::to_string(gid) + " member " + std::to_string(m));
    }
  }

  // reduce-scatter: exact — the transport folds contributions in canonical
  // member order, which is precisely this loop.
  std::vector<float> rs_in(n * static_cast<std::size_t>(G)), rs_out(n);
  for (std::size_t i = 0; i < rs_in.size(); ++i) rs_in[i] = payload(gid, 1, g_rank, i);
  comm.reduce_scatter_sum<float>(gid, rs_in, rs_out);
  for (std::size_t i = 0; i < n; ++i) {
    float want = payload(gid, 1, g.members[0], static_cast<std::size_t>(pos) * n + i);
    for (int m = 1; m < G; ++m) {
      want += payload(gid, 1, g.members[m], static_cast<std::size_t>(pos) * n + i);
    }
    expect(rs_out[i] == want, "reduce_scatter gid=" + std::to_string(gid) + " i=" +
                                  std::to_string(i));
  }

  // all-reduce: exact, same canonical fold.
  std::vector<float> ar(n);
  for (std::size_t i = 0; i < n; ++i) ar[i] = payload(gid, 2, g_rank, i);
  comm.all_reduce_sum<float>(gid, ar);
  for (std::size_t i = 0; i < n; ++i) {
    float want = payload(gid, 2, g.members[0], i);
    for (int m = 1; m < G; ++m) want += payload(gid, 2, g.members[m], i);
    expect(ar[i] == want, "all_reduce gid=" + std::to_string(gid) + " i=" + std::to_string(i));
  }

  // zero-sized payloads: every collective must tolerate null/empty buffers
  // (MPI may reject null pointers even with zero counts — the transport
  // substitutes a dummy address).
  {
    comm.all_gather<float>(gid, {}, {});
    comm.all_reduce_sum<float>(gid, {});
    comm.reduce_scatter_sum<float>(gid, {}, {});
    // A live round after the degenerate ones proves the communicator survived.
    std::vector<float> one{1.0f};
    comm.all_reduce_sum<float>(gid, one);
    expect_near(one[0], static_cast<float>(G), "all_reduce after zero-sized ops");
  }

  // scalar reductions: both exact (the sum folds 0.0 + v_0 + ... + v_{G-1}
  // in member order on every backend).
  const double mx = comm.all_reduce_max_scalar(gid, static_cast<double>(g_rank));
  expect(mx == static_cast<double>(g.members.back()), "scalar max gid=" + std::to_string(gid));
  const double sum = comm.all_reduce_sum_scalar(gid, 1.5);
  double want_sum = 0.0;
  for (int m = 0; m < G; ++m) want_sum += 1.5;
  expect(sum == want_sum, "scalar sum gid=" + std::to_string(gid));

  comm.barrier(gid);
}

void run_handle_lifecycle(pc::Communicator& comm) {
  // Nonblocking post → test-poll → out-of-order wait, and drop-without-wait:
  // the CommHandle states map onto real MPI_I* requests here.
  const pc::GroupId wg = comm.world().world_group();
  const int G = comm.world().size();
  std::vector<float> a(32, 1.0f), b_in(8, static_cast<float>(g_rank)),
      b_out(8 * static_cast<std::size_t>(G));
  auto h1 = comm.iall_reduce_sum<float>(wg, a);
  auto h2 = comm.iall_gather<float>(wg, b_in, b_out);
  while (!h2.test()) {
  }
  h2.wait();  // out of post order
  h1.wait();
  for (const float v : a) expect_near(v, static_cast<float>(G), "lifecycle all_reduce");
  for (int m = 0; m < G; ++m) {
    expect(b_out[static_cast<std::size_t>(m) * 8] == static_cast<float>(m),
           "lifecycle all_gather");
  }

  // Dropped handle: the collective still completes on every member (the
  // matching posts stay matched), but no stats are charged.
  const auto calls_before = comm.stats().entry(pc::Collective::AllGather).calls;
  {
    auto dropped = comm.iall_gather<float>(wg, b_in, b_out);
    (void)dropped;  // destructor completes the op and discards the accounting
  }
  expect(comm.stats().entry(pc::Collective::AllGather).calls == calls_before,
         "dropped handle must not charge stats");

  // Functional-only accounting: cost-model time charged per waited op.
  expect(comm.stats().entry(pc::Collective::AllReduce).sim_seconds > 0.0,
         "functional-mode stats charge cost-model time");
}

/// End-to-end: the full trainer, one process per rank over the MPI backend,
/// fed from a sharded dataset directory rank 0 writes — the mpi_conformance
/// version of `mpirun plexus_train ... mpi`. Losses must be bitwise-identical
/// to the threaded in-process Sim backend (identical data via exact binary
/// shard IO + canonical-order reductions + SPMD-identical schedules).
void run_end_to_end_training(int size) {
  namespace pcore = plexus::core;
  namespace psim = plexus::sim;
  psim::GridShape shape{size, 1, 1};
  if (size == 4) shape = {2, 2, 1};
  if (size == 8) shape = {2, 2, 2};

  const auto g = plexus::graph::make_test_graph(120, 6.0, 12, 4, 1234);
  pcore::TrainOptions opt;
  opt.grid = shape;
  opt.machine = &psim::Machine::test_machine();
  opt.model.hidden_dims = {12, 8};
  opt.model.options.agg_row_blocks = 4;
  opt.model.seed = 99;
  opt.epochs = 4;

  // Reference: the threaded in-process cluster over the Sim backend —
  // every process derives it independently, no reference rank needed.
  const auto ref = pcore::train_plexus(g, opt);

  // Distributed run: rank 0 publishes the sharded layout, every rank streams
  // only its own shard's block files.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("plexus_mpi_conformance_shards_np" + std::to_string(size));
  if (g_rank == 0) {
    const auto ds = pcore::preprocess_graph(g, opt.scheme, opt.model.num_layers(),
                                            /*pad_multiple=*/shape.size(), opt.preprocess_seed);
    std::filesystem::remove_all(dir);  // stale leftovers from a killed run
    pcore::write_sharded_plexus_dataset(dir.string(), ds, shape.size());
  }
  MPI_Barrier(MPI_COMM_WORLD);
  pcore::ShardedDatasetView view(dir.string());
  opt.backend = pc::Backend::Mpi;
  const auto got = pcore::train_plexus_rank(view, opt, g_rank);

  expect(got.epochs.size() == ref.epochs.size(), "e2e epoch count");
  for (std::size_t i = 0; i < got.epochs.size() && i < ref.epochs.size(); ++i) {
    expect(std::memcmp(&got.epochs[i].loss, &ref.epochs[i].loss, sizeof(double)) == 0,
           "e2e loss epoch " + std::to_string(i) + " mpi=" + std::to_string(got.epochs[i].loss) +
               " sim=" + std::to_string(ref.epochs[i].loss));
    expect(got.epochs[i].epoch_seconds > 0.0, "e2e sim clock epoch " + std::to_string(i));
  }
  expect(view.load_stats().files_opened > 0, "e2e shard IO happened");
  MPI_Barrier(MPI_COMM_WORLD);
  if (g_rank == 0) std::filesystem::remove_all(dir);
}

}  // namespace

int main(int argc, char** argv) {
  // Initialises MPI (requesting MPI_THREAD_MULTIPLE) and downgrades the comm
  // thread budget to whatever the runtime actually provides — the same hook
  // the plexus_train mpi driver uses.
  const pc::MpiRuntime rt = pc::mpi_runtime_init(&argc, &argv);
  g_rank = rt.rank;
  const int size = rt.size;

  {
    pc::World world(size);
    std::vector<pc::GroupId> gids{world.world_group()};
    if (size >= 2) {
      std::vector<int> evens, odds, halves;
      for (int r = 0; r < size; ++r) (r % 2 == 0 ? evens : odds).push_back(r);
      for (int r = 0; r < size / 2; ++r) halves.push_back(r);
      gids.push_back(world.create_group(evens));
      if (!odds.empty()) gids.push_back(world.create_group(odds));
      gids.push_back(world.create_group(halves));
      gids.push_back(world.create_group({0, size - 1}));
    }

    pc::Communicator comm(world, g_rank, /*clock=*/nullptr,
                          &pc::transport_for(pc::Backend::Mpi));
    for (const auto gid : gids) run_group(comm, gid);
    run_handle_lifecycle(comm);
    comm.barrier(world.world_group());
  }

  run_end_to_end_training(size);

  int total_failures = g_failures;
  MPI_Allreduce(MPI_IN_PLACE, &total_failures, 1, MPI_INT, MPI_SUM, MPI_COMM_WORLD);
  if (g_rank == 0) {
    std::printf("[mpi_conformance] %d ranks, %s (%d failure%s)\n", size,
                total_failures == 0 ? "PASS" : "FAIL", total_failures,
                total_failures == 1 ? "" : "s");
  }
  pc::mpi_runtime_finalize();
  return total_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
