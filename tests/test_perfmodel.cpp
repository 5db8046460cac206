// Tests for the section-4 performance model: features, regression fitting,
// epoch prediction, configuration enumeration and selection.
#include <gtest/gtest.h>

#include <cmath>

#include "graph/datasets.hpp"
#include "perfmodel/perfmodel.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace pp = plexus::perf;
namespace pg = plexus::graph;
namespace psim = plexus::sim;

namespace {

pp::WorkloadStats products_stats() {
  return pp::WorkloadStats::from_dataset(pg::dataset_info("ogbn-products"));
}

}  // namespace

TEST(PerfModel, WorkloadFromDataset) {
  const auto w = products_stats();
  EXPECT_EQ(w.num_nodes, 2'449'029);
  EXPECT_EQ(w.num_nonzeros, 126'167'053);
  ASSERT_EQ(w.layer_dims.size(), 4u);  // D, 128, 128, C
  EXPECT_EQ(w.layer_dims[0], 100);
  EXPECT_EQ(w.layer_dims[3], 47);
  EXPECT_EQ(w.num_layers(), 3);
}

TEST(PerfModel, FeaturesFollowEq44) {
  // Single layer, grid (Gx, Gy, Gz) = (4, 2, 8): layer 0 roles P=X, Q=Y, R=Z.
  pp::WorkloadStats w;
  w.num_nodes = 1000;
  w.num_nonzeros = 50000;
  w.layer_dims = {10, 20};
  const auto f = pp::comp_model_features(w, {4, 2, 8});
  const double flops_cost = 50000.0 * 10.0;
  const double fwd = (1000.0 / 4.0) * (2.0 / 10.0);
  const double bwd = (1000.0 / 8.0) * (2.0 / 10.0);
  EXPECT_NEAR(f[0], std::sqrt(flops_cost), 1e-9);
  EXPECT_NEAR(f[1], std::sqrt(flops_cost) * fwd, 1e-9);
  EXPECT_NEAR(f[2], std::sqrt(flops_cost) * bwd, 1e-9);
}

TEST(PerfModel, FitRecoversSyntheticCoefficients) {
  // Build observations from known coefficients; the fit must recover them.
  const std::vector<double> truth{7.8e-4, 7.8e-10, 2.6e-10};
  std::vector<std::vector<double>> feats;
  std::vector<double> obs;
  for (const auto& info : pg::paper_datasets()) {
    const auto w = pp::WorkloadStats::from_dataset(info);
    for (const int gpus : {8, 64, 512}) {
      for (const auto& g : pp::enumerate_grids(gpus)) {
        const auto f = pp::comp_model_features(w, g);
        feats.push_back(f);
        obs.push_back(truth[0] * f[0] + truth[1] * f[1] + truth[2] * f[2]);
      }
    }
  }
  const auto model = pp::fit_comp_model(feats, obs);
  EXPECT_NEAR(model.coefficients[0], truth[0], 1e-10);
  EXPECT_NEAR(model.train_r2, 1.0, 1e-9);
  EXPECT_LT(model.train_rmse, 1e-9);
}

TEST(PerfModel, CrossValidationOnNoisyData) {
  plexus::util::SplitMix64 rng(3);
  std::vector<std::vector<double>> feats;
  std::vector<double> obs;
  const auto w = products_stats();
  for (const int gpus : {4, 8, 16, 32, 64, 128}) {
    for (const auto& g : pp::enumerate_grids(gpus)) {
      const auto f = pp::comp_model_features(w, g);
      const double clean = 1e-4 * f[0] + 1e-10 * f[1] + 5e-11 * f[2];
      feats.push_back(f);
      obs.push_back(clean * (1.0 + 0.1 * (rng.next_double() - 0.5)));
    }
  }
  const auto summary = pp::cross_validate_comp_model(feats, obs, 200, 11);
  EXPECT_GT(summary.train_r2, 0.7);
  EXPECT_GT(summary.test_r2, 0.5);
  EXPECT_GE(summary.train_r2, summary.test_r2 - 0.05);
}

TEST(PerfModel, EnumerateGrids) {
  const auto grids = pp::enumerate_grids(64);
  // Number of ordered factorizations of 64 = C(6+2,2) = 28.
  EXPECT_EQ(grids.size(), 28u);
  for (const auto& g : grids) EXPECT_EQ(g.x * g.y * g.z, 64);
  EXPECT_EQ(pp::enumerate_grids(1).size(), 1u);
}

TEST(PerfModel, Dimensionality) {
  EXPECT_EQ(pp::grid_dimensionality({64, 1, 1}), 1);
  EXPECT_EQ(pp::grid_dimensionality({8, 8, 1}), 2);
  EXPECT_EQ(pp::grid_dimensionality({4, 4, 4}), 3);
}

TEST(PerfModel, PredictionScalesDown) {
  const auto& m = psim::Machine::perlmutter_a100();
  const auto w = products_stats();
  const double t8 = pp::predict_epoch(m, w, pp::best_configuration(m, w, 8)).total();
  const double t64 = pp::predict_epoch(m, w, pp::best_configuration(m, w, 64)).total();
  EXPECT_LT(t64, t8);  // strong scaling at these sizes
}

TEST(PerfModel, BestConfigBeatsWorst) {
  const auto& m = psim::Machine::perlmutter_a100();
  const auto w = products_stats();
  const auto ranked = pp::rank_configurations(m, w, 64);
  ASSERT_GE(ranked.size(), 2u);
  EXPECT_LE(ranked.front().prediction.total(), ranked.back().prediction.total());
  // Figure 5: 3D/2D configurations beat extreme 1D ones for ogbn-products@64.
  const auto& best = ranked.front().grid;
  EXPECT_GE(pp::grid_dimensionality(best), 2);
}

TEST(PerfModel, PureYConfigIsBad) {
  // Config V from Table 2 (all parallelism in Y) must rank poorly: it shards
  // only feature columns, leaving tall-skinny SpMMs and full-size all-reduces.
  const auto& m = psim::Machine::perlmutter_a100();
  const auto w = products_stats();
  const double t_y = pp::predict_epoch(m, w, {1, 64, 1}).total();
  const double t_best = pp::predict_epoch(m, w, pp::best_configuration(m, w, 64)).total();
  EXPECT_GT(t_y, 2.0 * t_best);
}

TEST(PerfModel, GridToString) {
  EXPECT_EQ(pp::grid_to_string({2, 8, 1}), "X2Y8Z1");
}

TEST(PerfModel, EstimatePerGpuBytesPinnedValue) {
  // Tiny single-layer workload on one GPU: every term is computable by hand.
  pp::WorkloadStats w;
  w.num_nodes = 100;
  w.num_nonzeros = 1000;
  w.layer_dims = {8, 4};  // one layer, so one plane in use
  // CSR shard = nnz*(4+4) + (rows+1)*8; two versions, each with transpose.
  const double adjacency = 2.0 * 2.0 * (1000.0 * 8.0 + 101.0 * 8.0);
  // H 100x8 + Q 100x4 + W, W^T and dW 8x4 each + input block 100x8 floats;
  // no hidden layer, so no relu bits, and P = 1, so no gathered logits.
  const double activations = (800.0 + 400.0 + 3.0 * 32.0 + 800.0) * 4.0;
  const double features = 3.0 * 100.0 * 8.0 * 4.0;
  EXPECT_EQ(pp::estimate_activation_bytes(w, {1, 1, 1}), activations);
  EXPECT_NEAR(pp::estimate_per_gpu_bytes(w, {1, 1, 1}), adjacency + activations + features,
              1e-6);
  // A single adjacency version halves exactly the adjacency term.
  EXPECT_NEAR(pp::estimate_per_gpu_bytes(w, {1, 1, 1}, /*adjacency_versions=*/1),
              adjacency / 2.0 + activations + features, 1e-6);
}

TEST(PerfModel, EstimatePerGpuBytesShrinksWithMoreGpus) {
  const auto w = products_stats();
  const double b64 = pp::estimate_per_gpu_bytes(w, {4, 4, 4});
  const double b512 = pp::estimate_per_gpu_bytes(w, {8, 8, 8});
  EXPECT_GT(b64, b512);
  EXPECT_GT(b512, 0.0);
  // More versions can only cost more memory.
  EXPECT_LT(pp::estimate_per_gpu_bytes(w, {4, 4, 4}, 1), pp::estimate_per_gpu_bytes(w, {4, 4, 4}, 2));
}
