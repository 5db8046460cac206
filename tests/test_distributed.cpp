// Integration tests: the 3D-parallel GCN must reproduce the serial reference
// exactly (up to float reduction order) for every grid factorisation, every
// permutation scheme, and with every optimisation toggled — the in-repo
// equivalent of the paper's Figure 7 validation against PyTorch Geometric.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>
#include <memory>

#include "comm/world.hpp"
#include "core/dataset_view.hpp"
#include "core/grid.hpp"
#include "core/model.hpp"
#include "core/preprocess.hpp"
#include "core/shard.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "model/serial_gcn.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"

namespace pc = plexus::core;
namespace pg = plexus::graph;
namespace pd = plexus::dense;
namespace psim = plexus::sim;

namespace {

pg::Graph small_graph() { return pg::make_test_graph(120, 6.0, 12, 4, 1234); }

pc::GcnSpec small_spec() {
  pc::GcnSpec spec;
  spec.hidden_dims = {12, 8};
  spec.options.adam.lr = 0.02f;
  spec.seed = 99;
  return spec;
}

/// Losses must track the serial reference; fp reduction-order differences are
/// amplified by Adam, so the tolerance grows modestly per epoch.
void expect_losses_close(const std::vector<double>& got, const std::vector<double>& want) {
  ASSERT_EQ(got.size(), want.size());
  double tol = 2e-3;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_NEAR(got[i], want[i], tol) << "epoch " << i;
    tol *= 1.8;
  }
}

/// Run a forward pass on the given grid and assemble the global logits matrix.
pd::Matrix distributed_logits(const pg::Graph& g, psim::GridShape shape,
                              pc::PermutationScheme scheme, const pc::GcnSpec& spec) {
  const auto ds = pc::preprocess_graph(g, scheme, spec.num_layers(), shape.size(), 7);
  const pc::InMemoryDatasetView view(ds);
  plexus::comm::World world(shape.size());
  pc::Grid3D grid(world, shape, psim::Machine::test_machine());
  const auto roles = pc::roles_for_layer(spec.num_layers() - 1);
  const std::int64_t volume = shape.size();
  const std::int64_t padded_classes = (g.num_classes + volume - 1) / volume * volume;

  pd::Matrix out(ds.padded_nodes, padded_classes);
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    pc::DistGcn model(ctx, view, grid, spec);
    const pd::Matrix block = model.forward_logits(ctx);
    const auto c = grid.coords_of(ctx.rank());
    if (pc::Grid3D::coord(c, roles.q) != 0) return;  // skip replicas
    const auto rows = pc::uniform_slice(ds.padded_nodes, grid.extent(roles.r),
                                        pc::Grid3D::coord(c, roles.r));
    const auto cols = pc::uniform_slice(padded_classes, grid.extent(roles.p),
                                        pc::Grid3D::coord(c, roles.p));
    out.set_block(rows.begin, cols.begin, block);  // disjoint writers
  });
  return out;
}

}  // namespace

class GridShapes : public ::testing::TestWithParam<psim::GridShape> {};

TEST_P(GridShapes, ForwardMatchesSerial) {
  const auto shape = GetParam();
  const auto g = small_graph();
  const auto spec = small_spec();
  // Scheme None keeps node order, so blocks map directly onto serial rows.
  const auto dist = distributed_logits(g, shape, pc::PermutationScheme::None, spec);
  const auto serial = plexus::ref::serial_forward(g, spec);
  for (std::int64_t i = 0; i < g.num_nodes; ++i) {
    for (std::int64_t j = 0; j < g.num_classes; ++j) {
      EXPECT_NEAR(dist.at(i, j), serial.at(i, j), 5e-4f)
          << "node " << i << " class " << j << " grid " << shape.x << "x" << shape.y << "x"
          << shape.z;
    }
  }
}

TEST_P(GridShapes, TrainingMatchesSerialAllSchemes) {
  const auto shape = GetParam();
  const auto g = small_graph();
  const auto spec = small_spec();
  const auto serial = plexus::ref::train_serial_gcn(g, spec, 6);

  for (const auto scheme : {pc::PermutationScheme::None, pc::PermutationScheme::Single,
                            pc::PermutationScheme::Double}) {
    pc::TrainOptions opt;
    opt.grid = shape;
    opt.machine = &psim::Machine::test_machine();
    opt.scheme = scheme;
    opt.model = spec;
    opt.epochs = 6;
    const auto result = pc::train_plexus(g, opt);
    expect_losses_close(result.losses(), serial.losses());
  }
}

INSTANTIATE_TEST_SUITE_P(Volume8, GridShapes,
                         ::testing::Values(psim::GridShape{1, 1, 1}, psim::GridShape{8, 1, 1},
                                           psim::GridShape{1, 8, 1}, psim::GridShape{1, 1, 8},
                                           psim::GridShape{2, 2, 2}, psim::GridShape{4, 2, 1},
                                           psim::GridShape{2, 1, 4}, psim::GridShape{1, 4, 2}));

TEST(Distributed, SixteenRankGrid) {
  // One larger configuration exercising uneven axis extents.
  const auto g = small_graph();
  const auto spec = small_spec();
  const auto serial = plexus::ref::train_serial_gcn(g, spec, 4);
  pc::TrainOptions opt;
  opt.grid = {4, 2, 2};
  opt.machine = &psim::Machine::test_machine();
  opt.model = spec;
  opt.epochs = 4;
  const auto result = pc::train_plexus(g, opt);
  expect_losses_close(result.losses(), serial.losses());
}

TEST(Distributed, DeepNetworkCyclesPlanes) {
  // Five layers exercise the full (version, plane) cycle of section 3.2 + 5.1.
  const auto g = small_graph();
  auto spec = small_spec();
  spec.hidden_dims = {12, 8, 8, 8};
  const auto serial = plexus::ref::train_serial_gcn(g, spec, 3);
  pc::TrainOptions opt;
  opt.grid = {2, 2, 2};
  opt.machine = &psim::Machine::test_machine();
  opt.model = spec;
  opt.epochs = 3;
  const auto result = pc::train_plexus(g, opt);
  expect_losses_close(result.losses(), serial.losses());
}

TEST(Distributed, BlockedAggregationIsExact) {
  // Blocking only changes the schedule, not the math: per-element sums are
  // performed in the same order, so losses must match to double precision.
  const auto g = small_graph();
  pc::TrainOptions opt;
  opt.grid = {2, 2, 2};
  opt.machine = &psim::Machine::test_machine();
  opt.model = small_spec();
  opt.epochs = 5;
  const auto base = pc::train_plexus(g, opt);
  opt.model.options.agg_row_blocks = 4;
  const auto blocked = pc::train_plexus(g, opt);
  for (std::size_t i = 0; i < base.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(base.epochs[i].loss, blocked.epochs[i].loss);
  }
}

TEST(Distributed, PipelinedAggregationIsExactAndHidesComm) {
  // The software pipeline (blocked aggregation with in-flight per-block
  // all-reduces) changes the schedule, never the math: losses match the
  // blocking path to the bit, while the exposed comm time can only shrink
  // and the hidden share can only grow.
  const auto g = small_graph();
  pc::TrainOptions opt;
  opt.grid = {2, 2, 2};
  opt.machine = &psim::Machine::perlmutter_a100();
  opt.model = small_spec();
  opt.model.options.agg_row_blocks = 4;
  opt.epochs = 5;
  opt.pipeline_depth = 1;  // fully blocking baseline
  const auto blocking = pc::train_plexus(g, opt);
  opt.pipeline_depth = 4;
  const auto piped = pc::train_plexus(g, opt);
  ASSERT_EQ(blocking.epochs.size(), piped.epochs.size());
  double blocking_comm = 0.0;
  double piped_comm = 0.0;
  double piped_hidden = 0.0;
  for (std::size_t i = 0; i < blocking.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(blocking.epochs[i].loss, piped.epochs[i].loss) << "epoch " << i;
    blocking_comm += blocking.epochs[i].comm_seconds;
    piped_comm += piped.epochs[i].comm_seconds;
    piped_hidden += piped.epochs[i].hidden_comm_seconds;
  }
  EXPECT_LT(piped_comm, blocking_comm);  // pipelining strictly hides comm
  EXPECT_GT(piped_hidden, 0.0);
  EXPECT_LE(piped.avg_epoch_seconds(1), blocking.avg_epoch_seconds(1) + 1e-12);
}

TEST(Distributed, AdaptiveDepthIsExactAndExposesNoMoreThanAnyFixedDepth) {
  // pipeline_depth = 0: each layer picks its depth from the perf model
  // (per-block SpMM vs ring time). The choice changes only the schedule —
  // losses bitwise-match every fixed depth — and the exposed communication
  // must be <= every fixed depth in {1, 2, 4} (exposed time is monotone
  // non-increasing in lookahead, and the adaptive rule errs deep).
  const pg::Graph g = pg::make_test_graph(4096, 10.0, 48, 6, /*seed=*/21);
  pc::TrainOptions opt;
  opt.grid = {2, 2, 2};
  opt.machine = &psim::Machine::test_machine();
  opt.model = small_spec();
  opt.model.hidden_dims = {48};
  opt.model.options.agg_row_blocks = 8;
  opt.epochs = 4;

  opt.pipeline_depth = 0;  // adaptive
  const auto adaptive = pc::train_plexus(g, opt);
  double adaptive_comm = 0.0;
  for (const auto& e : adaptive.epochs) adaptive_comm += e.comm_seconds;

  for (const int depth : {1, 2, 4}) {
    opt.pipeline_depth = depth;
    const auto fixed = pc::train_plexus(g, opt);
    ASSERT_EQ(fixed.epochs.size(), adaptive.epochs.size());
    double fixed_comm = 0.0;
    for (std::size_t i = 0; i < fixed.epochs.size(); ++i) {
      EXPECT_DOUBLE_EQ(adaptive.epochs[i].loss, fixed.epochs[i].loss)
          << "depth " << depth << " epoch " << i;
      fixed_comm += fixed.epochs[i].comm_seconds;
    }
    EXPECT_LE(adaptive_comm, fixed_comm * (1.0 + 1e-12)) << "depth " << depth;
  }
}

TEST(Distributed, GemmTuningIsExact) {
  const auto g = small_graph();
  pc::TrainOptions opt;
  opt.grid = {2, 2, 2};
  opt.machine = &psim::Machine::test_machine();
  opt.model = small_spec();
  opt.epochs = 5;
  const auto base = pc::train_plexus(g, opt);
  opt.model.options.gemm_dw_tuning = true;
  const auto tuned = pc::train_plexus(g, opt);
  for (std::size_t i = 0; i < base.epochs.size(); ++i) {
    EXPECT_NEAR(base.epochs[i].loss, tuned.epochs[i].loss, 1e-6);
  }
}

TEST(Distributed, LossDecreasesOverTraining) {
  const auto g = small_graph();
  pc::TrainOptions opt;
  opt.grid = {2, 2, 1};
  opt.machine = &psim::Machine::test_machine();
  opt.model = small_spec();
  opt.epochs = 30;
  opt.evaluate_validation = true;
  const auto result = pc::train_plexus(g, opt);
  EXPECT_LT(result.epochs.back().loss, 0.6 * result.epochs.front().loss);
  EXPECT_GT(result.val_accuracy, 0.3);  // label signal makes the task learnable
}

TEST(Distributed, EpochStatsArePopulated) {
  const auto g = small_graph();
  pc::TrainOptions opt;
  opt.grid = {2, 2, 2};
  opt.machine = &psim::Machine::perlmutter_a100();
  opt.model = small_spec();
  opt.epochs = 3;
  const auto result = pc::train_plexus(g, opt);
  for (const auto& e : result.epochs) {
    EXPECT_GT(e.epoch_seconds, 0.0);
    EXPECT_GT(e.spmm_seconds, 0.0);
    EXPECT_GT(e.gemm_seconds, 0.0);
    EXPECT_GT(e.comm_seconds, 0.0);
    EXPECT_LE(e.compute_seconds(), e.epoch_seconds + 1e-12);
  }
  EXPECT_GT(result.avg_epoch_seconds(1), 0.0);
}

TEST(Distributed, SingleRankHasNoComm) {
  const auto g = small_graph();
  pc::TrainOptions opt;
  opt.grid = {1, 1, 1};
  opt.machine = &psim::Machine::perlmutter_a100();
  opt.model = small_spec();
  opt.epochs = 2;
  const auto result = pc::train_plexus(g, opt);
  EXPECT_EQ(result.epochs[0].comm_seconds, 0.0);
}

TEST(Distributed, ReduceEpochStatsTakesCrossRankMaxima) {
  // The trainer's cross-rank epoch line: every field is max-reduced, every
  // rank returns the same values (the distributed driver records them on all
  // processes). Loss/accuracy are identical inputs, mirroring the real run.
  const int n = 4;
  plexus::comm::World world(n);
  std::vector<pc::EpochStats> out(static_cast<std::size_t>(n));
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    const double r = 1.0 + ctx.rank();
    pc::EpochStats s;
    s.loss = 3.5;
    s.train_accuracy = 0.25;
    s.epoch_seconds = 10.0 * r;
    s.spmm_seconds = r;
    s.gemm_seconds = 100.0 - r;  // max at rank 0: order must not matter
    s.elementwise_seconds = r * r;
    s.comm_seconds = 5.0 + r;
    s.hidden_comm_seconds = 0.5 * r;
    s.comm_wire_bytes = 1000.0 * r;
    out[static_cast<std::size_t>(ctx.rank())] =
        pc::reduce_epoch_stats(ctx.comm, ctx.comm.world().world_group(), s);
  });
  for (int i = 0; i < n; ++i) {
    const auto& s = out[static_cast<std::size_t>(i)];
    EXPECT_EQ(s.loss, 3.5) << "rank " << i;
    EXPECT_EQ(s.train_accuracy, 0.25) << "rank " << i;
    EXPECT_EQ(s.epoch_seconds, 40.0) << "rank " << i;
    EXPECT_EQ(s.spmm_seconds, 4.0) << "rank " << i;
    EXPECT_EQ(s.gemm_seconds, 99.0) << "rank " << i;
    EXPECT_EQ(s.elementwise_seconds, 16.0) << "rank " << i;
    EXPECT_EQ(s.comm_seconds, 9.0) << "rank " << i;
    EXPECT_EQ(s.hidden_comm_seconds, 2.0) << "rank " << i;
    EXPECT_EQ(s.comm_wire_bytes, 4000.0) << "rank " << i;
  }
}

TEST(Distributed, ShardedViewTrainingBitwiseEqualsInMemory) {
  // The one-process-per-rank data path: rank-private ShardedDatasetViews must
  // train bitwise-identically to the shared in-memory dataset (the block-file
  // round trip is exact binary IO), and each rank must read strictly fewer
  // adjacency block files than the directory holds — the shard-local-IO
  // guarantee. The view's cache counts each block file it reads as a miss.
  const auto g = small_graph();
  const auto spec = small_spec();
  const psim::GridShape shape{2, 2, 1};
  const int volume = shape.size();
  const auto ds =
      pc::preprocess_graph(g, pc::PermutationScheme::Double, spec.num_layers(), volume, 7);
  const auto dir = std::filesystem::temp_directory_path() /
                   ("plexus_shard_view_" + std::to_string(::getpid()));
  pc::write_sharded_plexus_dataset(dir.string(), ds, volume);

  const int epochs = 3;
  auto run = [&](bool sharded) {
    std::vector<double> losses(static_cast<std::size_t>(epochs), 0.0);
    std::vector<std::int64_t> files(static_cast<std::size_t>(volume), 0);
    plexus::comm::World world(volume);
    pc::Grid3D grid(world, shape, psim::Machine::test_machine());
    psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
      std::unique_ptr<pc::DatasetView> view;
      if (sharded) {
        view = std::make_unique<pc::ShardedDatasetView>(dir.string());
      } else {
        view = std::make_unique<pc::InMemoryDatasetView>(ds);
      }
      pc::DistGcn model(ctx, *view, grid, spec);
      for (int e = 0; e < epochs; ++e) {
        const auto s =
            pc::reduce_epoch_stats(ctx.comm, grid.world_group(), model.train_epoch(ctx, e));
        if (ctx.rank() == 0) losses[static_cast<std::size_t>(e)] = s.loss;
      }
      if (sharded) {
        files[static_cast<std::size_t>(ctx.rank())] =
            static_cast<const pc::ShardedDatasetView&>(*view).cache_stats().misses;
      }
    });
    return std::make_pair(losses, files);
  };
  const auto [mem_losses, mem_files] = run(false);
  const auto [shard_losses, shard_files] = run(true);
  for (int e = 0; e < epochs; ++e) {
    EXPECT_EQ(std::memcmp(&mem_losses[static_cast<std::size_t>(e)],
                          &shard_losses[static_cast<std::size_t>(e)], sizeof(double)),
              0)
        << "epoch " << e << " in-memory " << mem_losses[static_cast<std::size_t>(e)]
        << " sharded " << shard_losses[static_cast<std::size_t>(e)];
  }
  std::int64_t block_files = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (name.rfind("adj", 0) == 0) ++block_files;
  }
  ASSERT_GT(block_files, 0);
  for (int r = 0; r < volume; ++r) {
    EXPECT_GT(shard_files[static_cast<std::size_t>(r)], 0) << "rank " << r;
    EXPECT_LT(shard_files[static_cast<std::size_t>(r)], block_files)
        << "rank " << r << " opened every block file — not shard-local IO";
  }
  std::filesystem::remove_all(dir);
}

TEST(Serial, GradientsMatchFiniteDifferences) {
  // Independent correctness anchor for the whole chain (aggregation,
  // combination, ReLU, loss): analytic dW vs central differences.
  auto g = pg::make_test_graph(40, 4.0, 6, 3, 55);
  auto spec = small_spec();
  spec.hidden_dims = {6};
  const auto grads = plexus::ref::serial_loss_and_grads(g, spec);

  // Check dF (input-feature gradient) at a few positions.
  const double eps = 1e-3;
  for (const auto& [r, c] : std::vector<std::pair<int, int>>{{0, 0}, {5, 3}, {17, 2}}) {
    auto gp = g;
    gp.features.at(r, c) += static_cast<float>(eps);
    const double up = plexus::ref::serial_loss_and_grads(gp, spec).loss;
    gp.features.at(r, c) -= static_cast<float>(2 * eps);
    const double dn = plexus::ref::serial_loss_and_grads(gp, spec).loss;
    const double fd = (up - dn) / (2 * eps);
    EXPECT_NEAR(grads.df.at(r, c), fd, 5e-3) << "feature (" << r << "," << c << ")";
  }
}

TEST(Serial, TrainingReachesHighTrainAccuracy) {
  const auto g = pg::make_test_graph(150, 6.0, 12, 4, 77);
  auto spec = small_spec();
  const auto res = plexus::ref::train_serial_gcn(g, spec, 60, /*evaluate_splits=*/true);
  EXPECT_GT(res.epochs.back().train_accuracy, 0.8);
  EXPECT_LT(res.epochs.back().loss, res.epochs.front().loss * 0.5);
}
