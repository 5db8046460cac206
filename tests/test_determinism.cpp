// Determinism guarantees of the threaded kernel + comm engines at the
// training level: the same seed and grid must give bitwise-identical
// train_plexus losses across repeated runs, across intra-rank thread budgets,
// across blocked-aggregation pipeline depths, and across comm-thread modes.
// Every kernel's output rows are owned by exactly one chunk, the loss
// reduction uses a thread-count-independent chunk grid, and the pipelined
// per-block all-reduces sum in fixed member order over disjoint row ranges —
// so no tolerance is needed anywhere.
//
// The kernel seed-bits test pins the exact output bits of dense::matmul and
// sparse::spmm on fixed operands to constants recorded before the
// register-blocked kernels replaced the per-k axpy row kernels. It needs no
// libm, so the hashes are host-independent, and CI's PLEXUS_SIMD=scalar quick
// run checks the scalar table against the same constants.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "comm/handle.hpp"
#include "core/trainer.hpp"
#include "dense/gemm.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"

namespace pc = plexus::core;
namespace pd = plexus::dense;
namespace pg = plexus::graph;
namespace psim = plexus::sim;

namespace {

/// FNV-1a over the IEEE bit patterns of every element, row-major.
std::uint64_t fnv1a_bits(const pd::Matrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const float v : m.flat()) {
    std::uint32_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    for (int byte = 0; byte < 4; ++byte) {
      h ^= (u >> (8 * byte)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

/// Uniform [-1, 1) operand; `relu` zeroes the negative half, as activations
/// are, so the GEMM's `alpha * a == 0` skip is exercised.
pd::Matrix seeded_dense(std::int64_t r, std::int64_t c, std::uint64_t seed, bool relu = false) {
  plexus::util::CounterRng rng(seed);
  pd::Matrix m(r, c);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    const float v = rng.uniform_at(static_cast<std::uint64_t>(i), -1.0f, 1.0f);
    m.flat()[static_cast<std::size_t>(i)] = relu && v < 0.0f ? 0.0f : v;
  }
  return m;
}

/// rows x cols CSR with 0..11 nonzeros per row (empty and hub-ish rows).
plexus::sparse::Csr seeded_csr(std::int64_t rows, std::int64_t cols, std::uint64_t seed) {
  plexus::util::CounterRng rng(seed);
  std::vector<std::int64_t> rp(static_cast<std::size_t>(rows) + 1, 0);
  std::vector<std::int32_t> ci;
  std::vector<float> va;
  for (std::int64_t r = 0; r < rows; ++r) {
    const auto deg = static_cast<std::int64_t>(rng.uniform_at(static_cast<std::uint64_t>(r)) * 12);
    for (std::int64_t k = 0; k < deg; ++k) {
      const auto u = static_cast<std::uint64_t>(rows + 2 * (r * 16 + k));
      ci.push_back(static_cast<std::int32_t>(rng.uniform_at(u) * static_cast<double>(cols)));
      va.push_back(rng.uniform_at(u + 1, -1.0f, 1.0f));
    }
    rp[static_cast<std::size_t>(r) + 1] = static_cast<std::int64_t>(ci.size());
  }
  return plexus::sparse::Csr::from_parts(rows, cols, std::move(rp), std::move(ci), std::move(va));
}

// Sized so the per-rank SpMM/GEMM shards and the 512-row loss slice exceed
// the kernels' small-work cutoffs — the threaded paths must actually run for
// the cross-budget comparison to mean anything.
pc::TrainOptions small_options() {
  pc::TrainOptions opt;
  opt.grid = {2, 1, 1};
  opt.machine = &psim::Machine::test_machine();
  opt.model.hidden_dims = {16};
  opt.epochs = 3;
  return opt;
}

std::vector<double> losses_with_threads(const pg::Graph& g, int intra_rank_threads) {
  pc::TrainOptions opt = small_options();
  opt.intra_rank_threads = intra_rank_threads;
  return pc::train_plexus(g, opt).losses();
}

}  // namespace

TEST(Determinism, RepeatedRunsAreBitwiseIdentical) {
  const pg::Graph g = pg::make_test_graph(1024, 8.0, 32, 4, /*seed=*/3);
  const auto a = losses_with_threads(g, 2);
  const auto b = losses_with_threads(g, 2);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t e = 0; e < a.size(); ++e) {
    EXPECT_EQ(a[e], b[e]) << "epoch " << e;  // bitwise, no tolerance
  }
}

TEST(Determinism, LossesIdenticalAcrossThreadBudgets) {
  const pg::Graph g = pg::make_test_graph(1024, 8.0, 32, 4, /*seed=*/3);
  const auto serial = losses_with_threads(g, 1);
  ASSERT_EQ(serial.size(), 3u);
  EXPECT_TRUE(serial.front() > 0.0);
  for (const int threads : {2, 4}) {
    const auto threaded = losses_with_threads(g, threads);
    ASSERT_EQ(threaded.size(), serial.size());
    for (std::size_t e = 0; e < serial.size(); ++e) {
      EXPECT_EQ(threaded[e], serial[e]) << "threads=" << threads << " epoch " << e;
    }
  }
}

TEST(Determinism, LossesIdenticalAcrossPipelineDepthsAndThreads) {
  // The paper's headline claim is that pipelining changes only the schedule:
  // losses must be bitwise-identical between the fully blocking path
  // (depth 1) and any pipelined depth, for any thread budget.
  const pg::Graph g = pg::make_test_graph(1024, 8.0, 32, 4, /*seed=*/3);
  pc::TrainOptions base = small_options();
  base.grid = {2, 2, 1};
  base.model.options.agg_row_blocks = 4;
  base.pipeline_depth = 1;
  base.intra_rank_threads = 1;
  const auto blocking = pc::train_plexus(g, base).losses();
  ASSERT_EQ(blocking.size(), 3u);
  for (const int depth : {2, 4, 0}) {  // 0 = adaptive per-layer depth
    for (const int threads : {1, 2}) {
      pc::TrainOptions opt = base;
      opt.pipeline_depth = depth;
      opt.intra_rank_threads = threads;
      const auto piped = pc::train_plexus(g, opt).losses();
      ASSERT_EQ(piped.size(), blocking.size());
      for (std::size_t e = 0; e < blocking.size(); ++e) {
        EXPECT_EQ(piped[e], blocking[e]) << "depth=" << depth << " threads=" << threads
                                         << " epoch " << e;  // bitwise
      }
    }
  }
}

TEST(Determinism, LossesIdenticalInlineAndOnTheCommThread) {
  // Inline mode (PLEXUS_COMM_THREADS=0) executes collectives on the posting
  // thread; the FIFO comm thread (1) must not change a single bit — the data
  // math and the sim-time math are both independent of real execution order.
  // A 2x2 grid gives each rank collectives on several distinct line groups.
  const pg::Graph g = pg::make_test_graph(1024, 8.0, 32, 4, /*seed=*/3);
  pc::TrainOptions opt = small_options();
  opt.grid = {2, 2, 1};
  opt.model.options.agg_row_blocks = 4;
  opt.pipeline_depth = 4;
  std::vector<double> reference;
  {
    plexus::comm::ScopedCommThreads scoped(1);
    reference = pc::train_plexus(g, opt).losses();
  }
  ASSERT_EQ(reference.size(), 3u);
  plexus::comm::ScopedCommThreads scoped(0);
  const auto losses = pc::train_plexus(g, opt).losses();
  ASSERT_EQ(losses.size(), reference.size());
  for (std::size_t e = 0; e < losses.size(); ++e) {
    EXPECT_EQ(losses[e], reference[e]) << "inline, epoch " << e;
  }
}

TEST(Determinism, KernelOutputBitsMatchSeedConstants) {
  // k = 300 and 520 cross the GEMM's k blocks; n = 100 and 200 leave vector
  // tails and (200) take two SpMM column passes.
  const auto nn = pd::matmul(seeded_dense(37, 300, 1, /*relu=*/true), seeded_dense(300, 100, 2));
  const auto tn = pd::matmul(seeded_dense(520, 24, 3, /*relu=*/true), seeded_dense(520, 33, 4),
                             pd::Trans::T, pd::Trans::N);
  const auto nt = pd::matmul(seeded_dense(45, 70, 5), seeded_dense(100, 70, 6), pd::Trans::N,
                             pd::Trans::T);
  const auto adj = seeded_csr(211, 150, 7);
  const auto s100 = plexus::sparse::spmm(adj, seeded_dense(150, 100, 8));
  const auto s200 = plexus::sparse::spmm(adj, seeded_dense(150, 200, 9));
  EXPECT_EQ(fnv1a_bits(nn), 0x28063698ebd8bd50ull) << "matmul N/N";
  EXPECT_EQ(fnv1a_bits(tn), 0xa28e5d4b01a7b8b7ull) << "matmul T/N";
  EXPECT_EQ(fnv1a_bits(nt), 0x7b10bf91dc3c1aa3ull) << "matmul N/T";
  EXPECT_EQ(fnv1a_bits(s100), 0x84ad48b6bb4720c3ull) << "spmm n=100";
  EXPECT_EQ(fnv1a_bits(s200), 0x6b0b0166600a38faull) << "spmm n=200";
}

TEST(Determinism, AutoBudgetMatchesExplicitBudgets) {
  // intra_rank_threads = 0 resolves from the environment/hardware; whatever
  // it picks must not change the math.
  const pg::Graph g = pg::make_test_graph(72, 5.0, 12, 3, /*seed=*/9);
  const auto fixed = losses_with_threads(g, 1);
  const auto autod = losses_with_threads(g, 0);
  ASSERT_EQ(autod.size(), fixed.size());
  for (std::size_t e = 0; e < fixed.size(); ++e) {
    EXPECT_EQ(autod[e], fixed[e]) << "epoch " << e;
  }
}
