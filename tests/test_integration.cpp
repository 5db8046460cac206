// End-to-end integration and property tests: full option combinations vs the
// serial reference, asymmetric grids, determinism, preprocessing algebra, and
// failure-path validation.
#include <gtest/gtest.h>

#include "baselines/bnsgcn.hpp"
#include "core/dataset_view.hpp"
#include "core/preprocess.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "model/serial_gcn.hpp"
#include "sim/machine.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"

namespace pc = plexus::core;
namespace pg = plexus::graph;
namespace psim = plexus::sim;

namespace {

pg::Graph graph_200() { return pg::make_test_graph(200, 7.0, 10, 5, 2024); }

pc::GcnSpec spec_small() {
  pc::GcnSpec spec;
  spec.hidden_dims = {16, 8};
  spec.options.adam.lr = 0.02f;
  spec.seed = 5;
  return spec;
}

}  // namespace

TEST(Integration, AllOptimisationsTogetherMatchSerial) {
  // Double permutation + blocked aggregation + dW tuning, simultaneously.
  const auto g = graph_200();
  auto spec = spec_small();
  const auto serial = plexus::ref::train_serial_gcn(g, spec, 6);

  spec.options.agg_row_blocks = 4;
  spec.options.gemm_dw_tuning = true;
  pc::TrainOptions opt;
  opt.grid = {2, 2, 2};
  opt.machine = &psim::Machine::perlmutter_a100();
  opt.scheme = pc::PermutationScheme::Double;
  opt.model = spec;
  opt.epochs = 6;
  const auto res = pc::train_plexus(g, opt);
  double tol = 2e-3;
  for (std::size_t i = 0; i < res.epochs.size(); ++i) {
    EXPECT_NEAR(res.epochs[i].loss, serial.losses()[i], tol);
    tol *= 1.8;
  }
}

TEST(Integration, AsymmetricGridWithNonPowerOfTwoAxis) {
  const auto g = graph_200();
  const auto serial = plexus::ref::train_serial_gcn(g, spec_small(), 4);
  pc::TrainOptions opt;
  opt.grid = {3, 2, 2};  // 12 ranks, axis of 3
  opt.machine = &psim::Machine::test_machine();
  opt.model = spec_small();
  opt.epochs = 4;
  const auto res = pc::train_plexus(g, opt);
  double tol = 2e-3;
  for (std::size_t i = 0; i < res.epochs.size(); ++i) {
    EXPECT_NEAR(res.epochs[i].loss, serial.losses()[i], tol);
    tol *= 1.8;
  }
}

TEST(Integration, TrainingIsDeterministic) {
  const auto g = graph_200();
  pc::TrainOptions opt;
  opt.grid = {2, 2, 1};
  opt.machine = &psim::Machine::perlmutter_a100();
  opt.model = spec_small();
  opt.epochs = 4;
  const auto a = pc::train_plexus(g, opt);
  const auto b = pc::train_plexus(g, opt);
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.epochs[i].loss, b.epochs[i].loss);
    EXPECT_DOUBLE_EQ(a.epochs[i].epoch_seconds, b.epochs[i].epoch_seconds);
  }
}

TEST(Integration, DifferentSeedsGiveDifferentModels) {
  const auto g = graph_200();
  pc::TrainOptions opt;
  opt.grid = {2, 1, 1};
  opt.machine = &psim::Machine::test_machine();
  opt.model = spec_small();
  opt.epochs = 3;
  const auto a = pc::train_plexus(g, opt);
  opt.model.seed = 999;
  const auto b = pc::train_plexus(g, opt);
  EXPECT_NE(a.epochs.back().loss, b.epochs.back().loss);
}

TEST(Integration, FrontierClockSlowerThanPerlmutter) {
  // Same functional math, different machine model => slower simulated epochs.
  const auto g = graph_200();
  pc::TrainOptions opt;
  opt.grid = {2, 2, 1};
  opt.model = spec_small();
  opt.epochs = 3;
  opt.machine = &psim::Machine::perlmutter_a100();
  const auto p = pc::train_plexus(g, opt);
  opt.machine = &psim::Machine::frontier_mi250x_gcd();
  const auto f = pc::train_plexus(g, opt);
  EXPECT_EQ(p.epochs.back().loss, f.epochs.back().loss);  // identical math
  EXPECT_GT(f.epochs.back().spmm_seconds, p.epochs.back().spmm_seconds);
}

TEST(Integration, BlockedAggregationReducesExposedComm) {
  // On a bandwidth-bound configuration the pipelined all-reduce must lower
  // the exposed communication time without changing the computation.
  const auto g = pg::make_proxy(pg::dataset_info("Isolate-3-8M"), 2000, 3);
  psim::Machine m = psim::Machine::perlmutter_a100();
  m.alpha = 0.0;  // bandwidth-bound regime (large-message limit)
  pc::TrainOptions opt;
  opt.grid = {4, 2, 2};
  opt.machine = &m;
  opt.model.hidden_dims = {64, 64};
  opt.epochs = 3;
  const auto base = pc::train_plexus(g, opt);
  opt.model.options.agg_row_blocks = 8;
  const auto blocked = pc::train_plexus(g, opt);
  EXPECT_LT(blocked.avg_comm_seconds(1), base.avg_comm_seconds(1));
  EXPECT_NEAR(blocked.avg_compute_seconds(1), base.avg_compute_seconds(1),
              0.35 * base.avg_compute_seconds(1));
}

TEST(Integration, ValidationAccuracyBeatsChance) {
  const auto g = pg::make_test_graph(300, 8.0, 16, 4, 31);
  pc::TrainOptions opt;
  opt.grid = {2, 2, 1};
  opt.machine = &psim::Machine::test_machine();
  opt.model = spec_small();
  opt.model.options.adam.lr = 0.02f;
  opt.epochs = 40;
  opt.evaluate_validation = true;
  const auto res = pc::train_plexus(g, opt);
  EXPECT_GT(res.val_accuracy, 1.5 / 4.0);  // well above the 25% chance level
}

TEST(Integration, RejectsMismatchedPadding) {
  const auto g = graph_200();
  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::Double, 3, /*pad=*/4, 7);
  pc::TrainOptions opt;
  opt.grid = {3, 1, 1};  // 3 does not divide the padding of 4
  opt.machine = &psim::Machine::test_machine();
  opt.model = spec_small();
  opt.epochs = 1;
  EXPECT_THROW(pc::train_plexus(pc::InMemoryDatasetView(ds), opt), std::runtime_error);
}

TEST(PreprocessAlgebra, PermutedAdjacencyKeepsRowSums) {
  // P_r A P_c^T is a reordering: multiplying by the all-ones vector must give
  // the permuted row sums (conservation of aggregation mass).
  const auto g = graph_200();
  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::Double, 3, 8, 7);
  plexus::dense::Matrix ones(ds.padded_nodes, 1, 1.0f);
  const auto sums_even = plexus::sparse::spmm(ds.adj_even, ones);
  const auto sums_odd = plexus::sparse::spmm(ds.adj_odd, ones);
  // Sorted multisets of row sums must be identical across versions.
  std::vector<float> a(sums_even.data(), sums_even.data() + sums_even.size());
  std::vector<float> b(sums_odd.data(), sums_odd.data() + sums_odd.size());
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_NEAR(a[i], b[i], 1e-5f);
}

TEST(PreprocessAlgebra, SchemesAgreeOnLossTrajectory) {
  // Permutation must not change training *mathematically* — only fp order.
  const auto g = graph_200();
  std::vector<std::vector<double>> losses;
  for (const auto scheme : {pc::PermutationScheme::None, pc::PermutationScheme::Single,
                            pc::PermutationScheme::Double}) {
    pc::TrainOptions opt;
    opt.grid = {2, 2, 2};
    opt.machine = &psim::Machine::test_machine();
    opt.scheme = scheme;
    opt.model = spec_small();
    opt.epochs = 5;
    losses.push_back(pc::train_plexus(g, opt).losses());
  }
  for (std::size_t e = 0; e < losses[0].size(); ++e) {
    EXPECT_NEAR(losses[0][e], losses[1][e], 5e-3) << "epoch " << e;
    EXPECT_NEAR(losses[0][e], losses[2][e], 5e-3) << "epoch " << e;
  }
}

TEST(Integration, BnsAndPlexusAgreeWithEachOther) {
  // Two completely independent distributed implementations (3D tensor
  // parallelism vs partition parallelism) must produce the same training run.
  const auto g = graph_200();
  pc::TrainOptions popt;
  popt.grid = {2, 2, 1};
  popt.machine = &psim::Machine::test_machine();
  popt.model = spec_small();
  popt.epochs = 5;
  const auto plexus_run = pc::train_plexus(g, popt);

  plexus::base::BnsGcnOptions bopt;
  bopt.parts = 4;
  bopt.machine = &psim::Machine::test_machine();
  bopt.hidden_dims = popt.model.hidden_dims;
  bopt.adam = popt.model.options.adam;
  bopt.seed = popt.model.seed;
  bopt.epochs = 5;
  const auto bns_run = plexus::base::train_bnsgcn(g, bopt);

  double tol = 2e-3;
  for (std::size_t i = 0; i < plexus_run.epochs.size(); ++i) {
    EXPECT_NEAR(plexus_run.epochs[i].loss, bns_run.epochs[i].loss, tol);
    tol *= 1.8;
  }
}
