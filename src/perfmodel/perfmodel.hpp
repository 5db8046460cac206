#pragma once
/// \file perfmodel.hpp
/// The Plexus performance model (paper section 4): predicts per-epoch SpMM,
/// GEMM and communication time for any 3D configuration, fits the 3-term
/// computational regression of section 4.1, and selects the best grid for a
/// GPU budget (section 4.3) — replacing exhaustive configuration search.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "sim/machine.hpp"
#include "sim/topology.hpp"

namespace plexus::perf {

/// Structural inputs of the model — exactly what section 4 uses: node count,
/// nonzeros of the (preprocessed) adjacency, and the layer dims.
struct WorkloadStats {
  std::int64_t num_nodes = 0;
  std::int64_t num_nonzeros = 0;
  std::vector<std::int64_t> layer_dims;  ///< [D_in, hidden..., classes]

  static WorkloadStats from_dataset(const graph::DatasetInfo& info,
                                    std::int64_t hidden = 128, int num_layers = 3);

  int num_layers() const { return static_cast<int>(layer_dims.size()) - 1; }
};

/// The three regression features of eq. 4.4, summed over layers (forward +
/// backward SpMM of each layer):
///   f0 = sqrt(flops_cost),  f1 = f0 * fwd_penalty,  f2 = f0 * bwd_penalty.
std::vector<double> comp_model_features(const WorkloadStats& w, const sim::GridShape& g);

/// Linear model fitted on (features -> observed SpMM seconds) pairs.
struct FittedCompModel {
  std::vector<double> coefficients;  ///< 3 coefficients, no intercept
  double train_r2 = 0.0;
  double train_rmse = 0.0;

  double predict(const WorkloadStats& w, const sim::GridShape& g) const;
};

FittedCompModel fit_comp_model(const std::vector<std::vector<double>>& features,
                               const std::vector<double>& observed_seconds);

/// Cross-validation summary over random 70/30 splits (section 4.1 reports an
/// average R^2 of 0.89/0.79 and RMSE of 16.8/20.1 ms over 1000 iterations).
struct ValidationSummary {
  double train_r2 = 0.0;
  double test_r2 = 0.0;
  double train_rmse = 0.0;
  double test_rmse = 0.0;
};
ValidationSummary cross_validate_comp_model(const std::vector<std::vector<double>>& features,
                                            const std::vector<double>& observed_seconds,
                                            int iterations, std::uint64_t seed);

/// Analytic (machine-model based) per-epoch time components for a
/// configuration. Used directly by the unified model; the fitted regression is
/// the section-4.1 alternative that works from measured runs.
struct EpochPrediction {
  double spmm_seconds = 0.0;
  double gemm_seconds = 0.0;
  double comm_seconds = 0.0;
  double total() const { return spmm_seconds + gemm_seconds + comm_seconds; }
};

/// Predict one training epoch (forward + backward, all layers) on `machine`.
EpochPrediction predict_epoch(const sim::Machine& machine, const WorkloadStats& w,
                              const sim::GridShape& g);

/// Estimated peak per-GPU training bytes for a configuration — what the
/// billion-edge planner checks against device memory. Counts, per rank:
///   * the distinct adjacency shards actually materialised (one per unique
///     plane l % 3 in use, times `adjacency_versions` for the double
///     permutation, times 2 for the stored transpose), in CSR bytes
///     (nnz * (4 + elem) + (rows + 1) * 8 under the uniform-shard-density
///     assumption of section 5.1);
///   * activations + gradients: estimate_activation_bytes;
///   * trainable input features with their two Adam moments (3x the flat
///     feature slice).
/// `elem_bytes` prices the dense element (4 = fp32). Streaming mode drops the
/// adjacency term to the BlockCache budget instead — this function prices the
/// fully resident mode.
double estimate_per_gpu_bytes(const WorkloadStats& w, const sim::GridShape& g,
                              int adjacency_versions = 2, double elem_bytes = 4.0);

/// The activation + gradient term of estimate_per_gpu_bytes: the buffers a
/// rank's DistGcn holds, at each layer's role extents (P, Q, R):
///   * per layer H (N/R x Din/Q), Q (N/R x Dout/P), and the weight block,
///     its transpose and dW (Din/Q x Dout/P, three times);
///   * each hidden layer's relu'(Q) bits, in whole 64-bit words;
///   * layer 0's gathered input block (N/P0 x D0/Q0);
///   * the P-gathered logits (N/R x C) when the last layer's P > 1.
/// Gradients overwrite dead buffers and add nothing. At padded dims this
/// equals DistGcn::workspace_bytes() without gemm_dw_tuning.
double estimate_activation_bytes(const WorkloadStats& w, const sim::GridShape& g,
                                 double elem_bytes = 4.0);

/// All factorisations x*y*z == gpus.
std::vector<sim::GridShape> enumerate_grids(int gpus);

/// Dimensionality of a configuration: number of axes > 1 (Figure 5 classifies
/// configurations as 1D / 2D / 3D).
int grid_dimensionality(const sim::GridShape& g);

struct RankedConfig {
  sim::GridShape grid;
  EpochPrediction prediction;
};

/// All configurations for `gpus`, sorted by predicted epoch time (best first).
std::vector<RankedConfig> rank_configurations(const sim::Machine& machine,
                                              const WorkloadStats& w, int gpus);

/// The section 4.3 API: the predicted-optimal 3D configuration.
sim::GridShape best_configuration(const sim::Machine& machine, const WorkloadStats& w, int gpus);

std::string grid_to_string(const sim::GridShape& g);

}  // namespace plexus::perf
