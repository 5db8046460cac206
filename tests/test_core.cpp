// Tests for core building blocks: grid/groups, role rotation, shard geometry
// and the slice map, preprocessing (permutation schemes), adjacency store,
// weight init.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "comm/world.hpp"
#include "core/adjacency_store.hpp"
#include "core/grid.hpp"
#include "core/preprocess.hpp"
#include "core/roles.hpp"
#include "core/shard.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"
#include "sparse/partition2d.hpp"

namespace pc = plexus::core;
namespace pg = plexus::graph;

TEST(Roles, RotationCycle) {
  const auto l0 = pc::roles_for_layer(0);
  EXPECT_EQ(l0.p, pc::Axis::X);
  EXPECT_EQ(l0.q, pc::Axis::Y);
  EXPECT_EQ(l0.r, pc::Axis::Z);
  const auto l1 = pc::roles_for_layer(1);
  EXPECT_EQ(l1.p, pc::Axis::Z);
  EXPECT_EQ(l1.q, pc::Axis::X);
  EXPECT_EQ(l1.r, pc::Axis::Y);
  const auto l2 = pc::roles_for_layer(2);
  EXPECT_EQ(l2.p, pc::Axis::Y);
  EXPECT_EQ(l2.q, pc::Axis::Z);
  EXPECT_EQ(l2.r, pc::Axis::X);
  // Period 3.
  const auto l3 = pc::roles_for_layer(3);
  EXPECT_EQ(l3.p, l0.p);
  EXPECT_EQ(l3.q, l0.q);
  EXPECT_EQ(l3.r, l0.r);
}

TEST(Roles, OutputLayoutFeedsNextInput) {
  // F_out of layer l is (rows = R_l, cols = P_l); F_in of layer l+1 is
  // (rows = P_{l+1}, cols = Q_{l+1}). Compatibility requires P_{l+1} == R_l
  // and Q_{l+1} == P_l — the section 3.2 consistency property.
  for (int l = 0; l < 6; ++l) {
    const auto cur = pc::roles_for_layer(l);
    const auto nxt = pc::roles_for_layer(l + 1);
    EXPECT_EQ(nxt.p, cur.r);
    EXPECT_EQ(nxt.q, cur.p);
  }
}

TEST(Grid, CoordsRoundTrip) {
  plexus::comm::World world(24);
  pc::Grid3D grid(world, {4, 3, 2}, plexus::sim::Machine::test_machine());
  std::set<std::tuple<int, int, int>> seen;
  for (int r = 0; r < 24; ++r) {
    const auto c = grid.coords_of(r);
    EXPECT_EQ(grid.rank_of(c), r);
    EXPECT_TRUE(seen.insert({c.x, c.y, c.z}).second);
    EXPECT_LT(c.x, 4);
    EXPECT_LT(c.y, 3);
    EXPECT_LT(c.z, 2);
  }
}

TEST(Grid, YIsFastestForNodePacking) {
  plexus::comm::World world(8);
  pc::Grid3D grid(world, {2, 2, 2}, plexus::sim::Machine::test_machine());
  // Consecutive ranks advance y first (packing priority Y, X, Z).
  EXPECT_EQ(grid.coords_of(0).y, 0);
  EXPECT_EQ(grid.coords_of(1).y, 1);
  EXPECT_EQ(grid.coords_of(1).x, 0);
  EXPECT_EQ(grid.coords_of(2).x, 1);
  EXPECT_EQ(grid.coords_of(4).z, 1);
}

TEST(Grid, LineGroupsContainVaryingAxisOnly) {
  plexus::comm::World world(12);
  pc::Grid3D grid(world, {2, 3, 2}, plexus::sim::Machine::test_machine());
  for (int r = 0; r < 12; ++r) {
    const auto c = grid.coords_of(r);
    const auto& gx = world.group(grid.group_along(pc::Axis::X, r));
    ASSERT_EQ(gx.size(), 2);
    // Position in the group equals the coordinate along the axis.
    EXPECT_EQ(gx.position_of(r), c.x);
    for (const int m : gx.members) {
      const auto mc = grid.coords_of(m);
      EXPECT_EQ(mc.y, c.y);
      EXPECT_EQ(mc.z, c.z);
    }
    const auto& gy = world.group(grid.group_along(pc::Axis::Y, r));
    ASSERT_EQ(gy.size(), 3);
    EXPECT_EQ(gy.position_of(r), c.y);
    const auto& gz = world.group(grid.group_along(pc::Axis::Z, r));
    ASSERT_EQ(gz.size(), 2);
    EXPECT_EQ(gz.position_of(r), c.z);
  }
}

TEST(Shard, UniformSlice) {
  const auto s = pc::uniform_slice(12, 3, 1);
  EXPECT_EQ(s.begin, 4);
  EXPECT_EQ(s.end, 8);
  EXPECT_THROW(pc::uniform_slice(10, 3, 0), std::runtime_error);  // not divisible
}

TEST(Shard, SliceRunsTileEachBufferOnce) {
  // Over every 2- and 4-rank grid, 2x2x2 and an uneven 3x2x1, the ranks'
  // slice runs must cover each layer's weight (all three role rotations) and
  // the trainable features exactly once, each rank's runs must sum to its
  // slice length, and each rank's offsets must ascend (the R group's slices
  // all-gather back into row-major blocks).
  const std::vector<plexus::sim::GridShape> shapes = {
      {2, 1, 1}, {1, 2, 1}, {1, 1, 2}, {4, 1, 1}, {1, 4, 1}, {1, 1, 4},
      {2, 2, 1}, {2, 1, 2}, {1, 2, 2}, {2, 2, 2}, {3, 2, 1}};
  for (const auto& shape : shapes) {
    const int volume = shape.size();
    SCOPED_TRACE(std::to_string(shape.x) + "x" + std::to_string(shape.y) + "x" +
                 std::to_string(shape.z));
    plexus::comm::World world(volume);
    const pc::Grid3D grid(world, shape, plexus::sim::Machine::test_machine());
    const auto pad = [&](std::int64_t d) { return (d + volume - 1) / volume * volume; };
    // Tiles `rows x cols` once with the runs_of(coords) of every rank, whose
    // slices hold `slice_len` elements each.
    const auto expect_tiles = [&](std::int64_t rows, std::int64_t cols, std::int64_t slice_len,
                                  const auto& runs_of) {
      std::vector<int> hits(static_cast<std::size_t>(rows * cols), 0);
      for (int r = 0; r < volume; ++r) {
        const std::vector<pc::SliceRun> runs = runs_of(grid.coords_of(r));
        EXPECT_EQ(pc::runs_length(runs), slice_len) << "rank " << r;
        std::int64_t prev_end = 0;
        for (const pc::SliceRun& run : runs) {
          ASSERT_GE(run.offset, prev_end) << "rank " << r;
          ASSERT_LE(run.offset + run.length, rows * cols) << "rank " << r;
          for (std::int64_t k = run.offset; k < run.offset + run.length; ++k) {
            ++hits[static_cast<std::size_t>(k)];
          }
          prev_end = run.offset + run.length;
        }
      }
      EXPECT_TRUE(std::all_of(hits.begin(), hits.end(), [](int h) { return h == 1; }));
    };
    for (int layer = 0; layer < 3; ++layer) {
      SCOPED_TRACE("layer " + std::to_string(layer));
      const pc::LayerRoles roles = pc::roles_for_layer(layer);
      const std::int64_t rows = pad(13), cols = pad(7);
      expect_tiles(rows, cols, rows * cols / volume, [&](const pc::Coords& c) {
        return pc::weight_slice_runs(rows, cols, grid, roles, c);
      });
    }
    for (const int agg_row_blocks : {1, 3, 8}) {
      SCOPED_TRACE("agg_row_blocks " + std::to_string(agg_row_blocks));
      const std::int64_t rows = pad(50), cols = pad(6);
      expect_tiles(rows, cols, rows * cols / volume, [&](const pc::Coords& c) {
        return pc::feature_slice_runs(rows, cols, grid, c, agg_row_blocks);
      });
    }
  }
}

TEST(Shard, WeightInitIndependentOfPadding) {
  // The same logical element must get the same value whether materialised in
  // a padded or unpadded matrix, and zero in the padded margin.
  const auto full = pc::init_weight_block(9, 0, 0, 0, 6, 4, 6, 4);
  const auto padded = pc::init_weight_block(9, 0, 0, 0, 8, 8, 6, 4);
  for (std::int64_t r = 0; r < 6; ++r) {
    for (std::int64_t c = 0; c < 4; ++c) EXPECT_EQ(padded.at(r, c), full.at(r, c));
  }
  EXPECT_EQ(padded.at(7, 7), 0.0f);
  EXPECT_EQ(padded.at(2, 5), 0.0f);
  // Shard offsets address the same global values.
  const auto shard = pc::init_weight_block(9, 0, 2, 1, 3, 2, 6, 4);
  EXPECT_EQ(shard.at(0, 0), full.at(2, 1));
  // Different layers differ.
  EXPECT_NE(pc::init_weight_block(9, 1, 0, 0, 6, 4, 6, 4).at(0, 0), full.at(0, 0));
}

TEST(Preprocess, PaddingAndStats) {
  const auto g = pg::make_test_graph(100, 6.0, 10, 4, 1);
  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::Double, 3, 8, 5);
  EXPECT_EQ(ds.padded_nodes, 104);
  EXPECT_EQ(ds.padded_feature_dim, 16);
  EXPECT_EQ(ds.num_nodes, 100);
  EXPECT_EQ(ds.train_total, g.train_count());
  // Adjacency versions have identical nnz (both are permutations of A~).
  EXPECT_EQ(ds.adj_even.nnz(), ds.adj_odd.nnz());
  // Padded feature columns are zero.
  for (std::int64_t i = 0; i < ds.padded_nodes; ++i) {
    for (std::int64_t k = 10; k < 16; ++k) EXPECT_EQ(ds.features.at(i, k), 0.0f);
  }
}

TEST(Preprocess, MaskCountsPreserved) {
  const auto g = pg::make_test_graph(200, 5.0, 8, 3, 2);
  for (const auto scheme : {pc::PermutationScheme::None, pc::PermutationScheme::Single,
                            pc::PermutationScheme::Double}) {
    const auto ds = pc::preprocess_graph(g, scheme, 3, 16, 5);
    std::int64_t train = 0;
    std::int64_t total_mask = 0;
    for (std::int64_t i = 0; i < ds.padded_nodes; ++i) {
      train += ds.train_mask[static_cast<std::size_t>(i)];
      total_mask += ds.train_mask[static_cast<std::size_t>(i)] +
                    ds.val_mask[static_cast<std::size_t>(i)] +
                    ds.test_mask[static_cast<std::size_t>(i)];
    }
    EXPECT_EQ(train, g.train_count());
    EXPECT_EQ(total_mask, g.num_nodes);  // padding rows carry no mask
  }
}

TEST(Preprocess, NoneSchemeKeepsOrdering) {
  const auto g = pg::make_test_graph(64, 4.0, 6, 3, 3);
  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::None, 3, 8, 5);
  // Features in original order.
  for (std::int64_t u = 0; u < 64; ++u) {
    EXPECT_EQ(ds.features.at(u, 0), g.features.at(u, 0));
  }
  EXPECT_TRUE(plexus::sparse::Csr::equal(ds.adj_even, ds.adj_odd));
}

TEST(Preprocess, DoublePermutationBalancesRoadNetwork) {
  // Table 3: original ordering of a road network is badly imbalanced over an
  // 8x8 grid; a single permutation helps; double permutation is near-perfect.
  const auto g = pg::make_proxy(pg::dataset_info("europe_osm"), 40'000, 4);
  const double orig = pc::scheme_imbalance(g, pc::PermutationScheme::None, 8, 8, 5);
  const double single = pc::scheme_imbalance(g, pc::PermutationScheme::Single, 8, 8, 5);
  const double dbl = pc::scheme_imbalance(g, pc::PermutationScheme::Double, 8, 8, 5);
  EXPECT_GT(orig, 3.0);
  EXPECT_LT(single, orig);
  EXPECT_LT(dbl, 1.2);
}

TEST(Preprocess, LabelsFollowOutputPermutation) {
  // With L=1 (output permuted by P_r), the label of original node u must sit
  // at row p_r[u]; we can't see p_r directly, but None scheme must be identity.
  const auto g = pg::make_test_graph(50, 4.0, 6, 3, 7);
  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::None, 1, 1, 5);
  for (std::int64_t u = 0; u < 50; ++u) {
    EXPECT_EQ(ds.labels[static_cast<std::size_t>(u)], g.labels[static_cast<std::size_t>(u)]);
  }
}

TEST(AdjacencyStore, UniqueShardCounts) {
  const auto g = pg::make_test_graph(96, 4.0, 6, 3, 8);
  plexus::comm::World world(8);
  pc::Grid3D grid(world, {2, 2, 2}, plexus::sim::Machine::test_machine());

  const auto ds_dbl = pc::preprocess_graph(g, pc::PermutationScheme::Double, 6, 8, 5);
  const pc::InMemoryDatasetView dbl(ds_dbl);
  // Double permutation: (version, plane) pairs cycle with period 6.
  EXPECT_EQ(pc::AdjacencyStore(dbl, grid, 0, 1).unique_shards(), 1u);
  EXPECT_EQ(pc::AdjacencyStore(dbl, grid, 0, 3).unique_shards(), 3u);
  EXPECT_EQ(pc::AdjacencyStore(dbl, grid, 0, 6).unique_shards(), 6u);

  const auto ds_single = pc::preprocess_graph(g, pc::PermutationScheme::Single, 6, 8, 5);
  const pc::InMemoryDatasetView single(ds_single);
  // Single permutation: only the plane matters -> min(3, L).
  EXPECT_EQ(pc::AdjacencyStore(single, grid, 0, 6).unique_shards(), 3u);
}

TEST(AdjacencyStore, ShardsPartitionTheMatrix) {
  // Sum of per-rank shard nnz over a plane's ranks must equal the full nnz.
  const auto g = pg::make_test_graph(96, 4.0, 6, 3, 9);
  plexus::comm::World world(8);
  pc::Grid3D grid(world, {2, 2, 2}, plexus::sim::Machine::test_machine());
  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::Double, 3, 8, 5);
  const pc::InMemoryDatasetView view(ds);
  for (int layer = 0; layer < 3; ++layer) {
    std::int64_t total = 0;
    const auto roles = pc::roles_for_layer(layer);
    for (int r = 0; r < 8; ++r) {
      const auto c = grid.coords_of(r);
      // Count each (r_coord, p_coord) block once (skip Q replicas).
      if (pc::Grid3D::coord(c, roles.q) != 0) continue;
      total += pc::AdjacencyStore(view, grid, r, 3).layer(layer).a.nnz();
    }
    EXPECT_EQ(total, ds.adjacency_for_layer(layer).nnz()) << "layer " << layer;
  }
}

// ---------------------------------------------------------------------------
// core::resolve_options — the one place trainer-level overrides meet GcnSpec
// (shared by the threaded driver, the per-rank driver, resume, and serve/).

#include "core/trainer.hpp"

namespace {

pc::TrainOptions options_with_model_defaults() {
  pc::TrainOptions opt;
  opt.model.options.pipeline_depth = 3;
  return opt;
}

}  // namespace

TEST(ResolveOptions, NegativeDepthInheritsModelDepth) {
  auto opt = options_with_model_defaults();
  opt.pipeline_depth = -1;
  EXPECT_EQ(pc::resolve_options(opt).options.pipeline_depth, 3);
}

TEST(ResolveOptions, ZeroAndPositiveDepthOverride) {
  auto opt = options_with_model_defaults();
  opt.pipeline_depth = 0;  // 0 is a real setting (adaptive), not "unset"
  EXPECT_EQ(pc::resolve_options(opt).options.pipeline_depth, 0);
  opt.pipeline_depth = 2;
  EXPECT_EQ(pc::resolve_options(opt).options.pipeline_depth, 2);
}

TEST(ResolveOptions, EverythingElsePassesThrough) {
  auto opt = options_with_model_defaults();
  opt.model.hidden_dims = {96, 32};
  opt.model.seed = 1234;
  opt.model.options.agg_row_blocks = 4;
  opt.model.options.gemm_dw_tuning = true;
  opt.pipeline_depth = 1;
  const auto spec = pc::resolve_options(opt);
  EXPECT_EQ(spec.hidden_dims, opt.model.hidden_dims);
  EXPECT_EQ(spec.seed, 1234u);
  EXPECT_EQ(spec.options.agg_row_blocks, 4);
  EXPECT_TRUE(spec.options.gemm_dw_tuning);
  EXPECT_EQ(spec.options.pipeline_depth, 1);
}

TEST(ResolveOptions, RssBudgetOverridesWhenNonNegative) {
  auto opt = options_with_model_defaults();
  opt.model.options.rss_budget_bytes = 7;
  EXPECT_EQ(pc::resolve_options(opt).options.rss_budget_bytes, 7);  // -1 inherits
  opt.rss_budget_bytes = 0;
  EXPECT_EQ(pc::resolve_options(opt).options.rss_budget_bytes, 0);
}
