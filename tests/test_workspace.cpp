// Steady-state epochs reuse one workspace. Every layer and loss buffer is
// sized on a rank's first epoch and reused after, so epochs 2..N allocate no
// workspace. A counting global operator new records each allocation of
// 64 KiB or more, from any thread, made while the ranks run epochs 2..N of a
// resident run; the count must be zero. Smaller allocations (comm handles,
// block-bound vectors, per-chunk softmax rows) are not counted; the
// single-rank hidden-128 case makes every weight-sized buffer 64 KiB, so a
// per-epoch copy of W or W^T would show. DistGcn::workspace_bytes is pinned
// against buffer shapes worked out by hand.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>

#include "comm/world.hpp"
#include "core/dataset_view.hpp"
#include "core/grid.hpp"
#include "core/model.hpp"
#include "core/preprocess.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"

namespace pc = plexus::core;
namespace pg = plexus::graph;
namespace psim = plexus::sim;

namespace {

constexpr std::size_t kLargeBytes = std::size_t{64} << 10;
std::atomic<bool> g_counting{false};
std::atomic<std::int64_t> g_large{0};

void* counted_alloc(std::size_t n, std::size_t align) {
  if (n >= kLargeBytes && g_counting.load(std::memory_order_relaxed)) {
    g_large.fetch_add(1, std::memory_order_relaxed);
  }
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(n == 0 ? 1 : n)
                : std::aligned_alloc(align, (n + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// The nothrow forms in libstdc++ forward to these.
void* operator new(std::size_t n) { return counted_alloc(n, 0); }
void* operator new[](std::size_t n) { return counted_alloc(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace {

/// One resident run shape: the grid and the hidden widths.
struct RunShape {
  psim::GridShape grid;
  std::int64_t hidden;
};

void PrintTo(const RunShape& run, std::ostream* os) {
  *os << run.grid.x << "x" << run.grid.y << "x" << run.grid.z << " hidden " << run.hidden;
}

/// Allocations of 64 KiB or more made by all threads over `epochs - 1`
/// steady resident epochs (4096-node products proxy, hidden {h, h}, 4
/// aggregation row blocks).
std::int64_t steady_large_allocations(int intra_rank_threads, bool gemm_dw_tuning,
                                      const RunShape& run, int epochs) {
  const pg::Graph g = pg::make_proxy(pg::dataset_info("ogbn-products"), 4096, /*seed=*/1);
  pc::GcnSpec spec;
  spec.hidden_dims = {run.hidden, run.hidden};
  spec.options.agg_row_blocks = 4;
  spec.options.gemm_dw_tuning = gemm_dw_tuning;
  const psim::GridShape shape = run.grid;
  const pc::TrainOptions defaults;
  const auto ds = pc::preprocess_graph(g, defaults.scheme, spec.num_layers(), shape.size(),
                                       defaults.preprocess_seed);
  const pc::InMemoryDatasetView view(ds);
  const auto& machine = psim::Machine::perlmutter_a100();
  plexus::comm::World world(shape.size());
  pc::Grid3D grid(world, shape, machine);

  g_large = 0;
  psim::run_cluster(
      world, machine,
      [&](psim::RankContext& ctx) {
        pc::DistGcn model(ctx, view, grid, spec);
        const auto wg = grid.world_group();
        model.train_epoch(ctx, 0);  // sizes every buffer
        ctx.comm.barrier(wg);
        if (ctx.rank() == 0) g_counting = true;
        ctx.comm.barrier(wg);
        for (int e = 1; e < epochs; ++e) model.train_epoch(ctx, e);
        ctx.comm.barrier(wg);
        if (ctx.rank() == 0) g_counting = false;
        ctx.comm.barrier(wg);
      },
      /*enable_clock=*/true, intra_rank_threads);
  return g_large.load();
}

}  // namespace

class SteadyEpoch : public ::testing::TestWithParam<std::tuple<int, bool, RunShape>> {};

TEST_P(SteadyEpoch, MakesNoLargeAllocation) {
  const auto [threads, tuning, run] = GetParam();
  EXPECT_EQ(steady_large_allocations(threads, tuning, run, /*epochs=*/4), 0)
      << "intra_rank_threads " << threads << ", gemm_dw_tuning " << tuning << ", grid "
      << ::testing::PrintToString(run);
}

INSTANTIATE_TEST_SUITE_P(
    ThreadsAndDwTuning, SteadyEpoch,
    ::testing::Combine(::testing::Values(1, 2), ::testing::Bool(),
                       ::testing::Values(RunShape{{2, 1, 2}, 64}, RunShape{{1, 1, 1}, 128})));

TEST(Workspace, BytesPinnedValue) {
  // 120 nodes, 12 features, 4 classes, hidden {8}, grid x=2, y=1, z=2: no
  // dimension needs padding, so N' = 120 and the dims are 12 -> 8 -> 4.
  const pg::Graph g = pg::make_test_graph(120, 6.0, 12, 4, 1234);
  pc::GcnSpec spec;
  spec.hidden_dims = {8};
  const psim::GridShape shape{2, 1, 2};
  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::None, spec.num_layers(),
                                       shape.size(), 7);
  ASSERT_EQ(ds.padded_nodes, 120);
  const pc::InMemoryDatasetView view(ds);
  const auto& machine = psim::Machine::test_machine();

  // Layer 0, roles (P, Q, R) = (X, Y, Z), extents (2, 1, 2):
  //   H 60x12 + Q 60x4 + W 12x4 + W^T 4x12 + dW 12x4 + dF_in 60x12 = 1824
  // Layer 1, roles (Z, X, Y), extents (2, 2, 1):
  //   H 120x4 + Q 120x2 + W 4x2 + W^T 2x4 + dW 4x2 + dF_in 60x4    =  984
  // Model: input block 60x12 + gathered logits 120x(2*2) + dlogits 120x2
  //                                                                  = 1440
  const std::int64_t floats = 1824 + 984 + 1440;
  // gemm_dw_tuning adds each layer's reversed dW^T: 4x12 + 2x4 = 56.
  for (const bool tuning : {false, true}) {
    spec.options.gemm_dw_tuning = tuning;
    const std::int64_t want = (floats + (tuning ? 56 : 0)) * 4;
    plexus::comm::World world(shape.size());
    pc::Grid3D grid(world, shape, machine);
    psim::run_cluster(world, machine, [&](psim::RankContext& ctx) {
      pc::DistGcn model(ctx, view, grid, spec);
      EXPECT_EQ(model.workspace_bytes(), 0);  // sized on first use
      model.train_epoch(ctx, 0);
      EXPECT_EQ(model.workspace_bytes(), want) << "rank " << ctx.rank();
      model.train_epoch(ctx, 1);
      EXPECT_EQ(model.workspace_bytes(), want) << "rank " << ctx.rank();
    });
  }
}
