// Steady-state epochs reuse one workspace. Every layer and loss buffer is
// sized on a rank's first epoch and reused after, so epochs 2..N allocate no
// workspace. A counting global operator new records each allocation of
// 64 KiB or more, from any thread, made while the ranks run epochs 2..N of a
// resident run; the count must be zero. Smaller allocations (comm handles,
// block-bound vectors, per-chunk softmax rows) are not counted; the
// single-rank hidden-128 case makes every weight-sized buffer 64 KiB, so a
// per-epoch copy of W or W^T would show. DistGcn::workspace_bytes is pinned
// against buffer shapes worked out by hand, and the memory model's
// activation term must price exactly those buffers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <ostream>
#include <vector>

#include "comm/world.hpp"
#include "core/dataset_view.hpp"
#include "core/grid.hpp"
#include "core/model.hpp"
#include "core/preprocess.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "perfmodel/perfmodel.hpp"
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

/// One pinned workspace case: the run shape and its hand-derived total.
struct PinnedWorkspace {
  psim::GridShape grid;
  std::vector<std::int64_t> hidden;
  std::int64_t floats;          ///< float buffers, gemm_dw_tuning off
  std::int64_t mask_words;      ///< 64-bit relu'(Q) words, one per 64 elements of each hidden Q
  std::int64_t dw_rev_floats;   ///< what gemm_dw_tuning adds: each layer's dW^T
};

TEST(Workspace, BytesPinnedValue) {
  // 120 nodes, 12 features, 4 classes, preprocessed without permutation. No
  // dimension needs padding on any grid, so N' = 120. Every layer's dF_in
  // overwrites the input its forward read and the loss gradient overwrites
  // the logits, so neither has a buffer of its own. When the last layer's P
  // group has one member the loss reads the logits in place, so there are no
  // gathered logits either.
  const PinnedWorkspace cases[] = {
      // hidden {8}, grid x=2, y=1, z=2; dims 12 -> 8 -> 4.
      // Layer 0, roles (P, Q, R) = (X, Y, Z), extents (2, 1, 2):
      //   H 60x12 + Q 60x4 + W 12x4 + W^T 4x12 + dW 12x4        = 1104
      //   relu'(Q): 240 bits -> 4 words
      // Layer 1, roles (Z, X, Y), extents (2, 2, 1):
      //   H 120x4 + Q 120x2 + W 4x2 + W^T 2x4 + dW 4x2          =  744
      // Model: input block 60x12 + gathered logits 120x(2*2)    = 1200
      // gemm_dw_tuning: dW^T 4x12 + 2x4                          =   56
      {{2, 1, 2}, {8}, 1104 + 744 + 1200, 4, 56},
      // hidden {8, 8}, grid x=2, y=2, z=1; dims 12 -> 8 -> 8 -> 4.
      // Layer 0, roles (X, Y, Z), extents (2, 2, 1):
      //   H 120x6 + Q 120x4 + W 6x4 + W^T 4x6 + dW 6x4         = 1272
      //   relu'(Q): 480 bits -> 8 words
      // Layer 1, roles (Z, X, Y), extents (1, 2, 2):
      //   H 60x4 + Q 60x8 + W 4x8 + W^T 8x4 + dW 4x8           =  816
      //   relu'(Q): 480 bits -> 8 words
      // Layer 2, roles (Y, Z, X), extents (2, 1, 2):
      //   H 60x8 + Q 60x2 + W 8x2 + W^T 2x8 + dW 8x2           =  648
      // Model: input block 60x6 + gathered logits 60x(2*2)     =  600
      // gemm_dw_tuning: dW^T 4x6 + 8x4 + 2x8                    =   72
      {{2, 2, 1}, {8, 8}, 1272 + 816 + 648 + 600, 16, 72},
      // hidden {8, 8}, grid x=2, y=1, z=2; dims 12 -> 8 -> 8 -> 4.
      // Layer 0, roles (X, Y, Z), extents (2, 1, 2):
      //   H 60x12 + Q 60x4 + W 12x4 + W^T 4x12 + dW 12x4        = 1104
      //   relu'(Q): 240 bits -> 4 words
      // Layer 1, roles (Z, X, Y), extents (2, 2, 1):
      //   H 120x4 + Q 120x4 + W 4x4 + W^T 4x4 + dW 4x4          = 1008
      //   relu'(Q): 480 bits -> 8 words
      // Layer 2, roles (Y, Z, X), extents (1, 2, 2):
      //   H 60x4 + Q 60x4 + W 4x4 + W^T 4x4 + dW 4x4            =  528
      // Model: input block 60x12; P = 1, so no gathered logits  =  720
      // gemm_dw_tuning: dW^T 4x12 + 4x4 + 4x4                    =   80
      {{2, 1, 2}, {8, 8}, 1104 + 1008 + 528 + 720, 12, 80},
  };
  const pg::Graph g = pg::make_test_graph(120, 6.0, 12, 4, 1234);
  const auto& machine = psim::Machine::test_machine();
  for (const PinnedWorkspace& c : cases) {
    pc::GcnSpec spec;
    spec.hidden_dims = c.hidden;
    const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::None, spec.num_layers(),
                                         c.grid.size(), 7);
    ASSERT_EQ(ds.padded_nodes, 120);
    const pc::InMemoryDatasetView view(ds);
    for (const bool tuning : {false, true}) {
      spec.options.gemm_dw_tuning = tuning;
      const std::int64_t want = (c.floats + (tuning ? c.dw_rev_floats : 0)) * 4 + c.mask_words * 8;
      plexus::comm::World world(c.grid.size());
      pc::Grid3D grid(world, c.grid, machine);
      psim::run_cluster(world, machine, [&](psim::RankContext& ctx) {
        pc::DistGcn model(ctx, view, grid, spec);
        EXPECT_EQ(model.workspace_bytes(), 0);  // sized on first use
        model.train_epoch(ctx, 0);
        EXPECT_EQ(model.workspace_bytes(), want)
            << "hidden layers " << c.hidden.size() << ", tuning " << tuning << ", rank "
            << ctx.rank();
        if (!tuning) {
          plexus::perf::WorkloadStats shape;
          shape.num_nodes = ds.padded_nodes;
          shape.layer_dims = model.padded_dims();
          EXPECT_EQ(plexus::perf::estimate_activation_bytes(shape, c.grid),
                    static_cast<double>(want))
              << "memory model, hidden layers " << c.hidden.size() << ", rank " << ctx.rank();
        }
        model.train_epoch(ctx, 1);
        EXPECT_EQ(model.workspace_bytes(), want)
            << "hidden layers " << c.hidden.size() << ", tuning " << tuning << ", rank "
            << ctx.rank();
      });
    }
  }
}
