#pragma once
/// \file costmodels.hpp
/// Analytic epoch-time models of Plexus and the baseline frameworks at
/// arbitrary GPU counts (the full-size points of Figures 8-10).
///
/// Scale protocol: structural curves that drive the models —
/// boundary-node growth with partition count (BNS-GCN) and the
/// received-row fraction (SA) — are *measured* on scaled-down proxy graphs
/// with the real partitioners, fitted as power laws, and extrapolated to the
/// paper's dataset sizes. Hardware behaviour comes from the same
/// machine/kernel/collective models the functional simulator uses.
///
/// Where the paper reports a hard failure (OOM, partitioner timeout) we gate
/// the series on the *paper-reported* status and record it verbatim; see
/// `paper_reported_status`.

#include <optional>
#include <string>
#include <vector>

#include "graph/datasets.hpp"
#include "graph/graph.hpp"
#include "sim/machine.hpp"

namespace plexus::base {

/// Structural curves measured on a proxy and extrapolated as power laws.
struct StructuralCurves {
  // BNS-GCN: total nodes incl. boundary / N  ==  1 + a * parts^b (capped).
  double boundary_a = 0.0;
  double boundary_b = 0.0;
  // SA: received remote-row fraction per rank = min(1, a * parts^b).
  double sa_recv_a = 0.0;
  double sa_recv_b = 0.0;

  double expansion(int parts) const;      ///< >= 1
  double sa_recv_fraction(int parts) const;  ///< in [0, 1]
};

/// Measure the curves by partitioning the proxy at several part counts.
/// NOTE: raw proxy curves over-estimate boundary fractions at full scale
/// (small parts are nearly all boundary); use `calibrated_curves` for the
/// full-size models.
StructuralCurves measure_structural_curves(const graph::Graph& proxy,
                                           const std::vector<int>& part_counts,
                                           std::uint64_t seed);

/// Full-scale curves: the boundary-growth law is anchored to the paper's own
/// measurements for products-14M (total nodes incl. boundary: 18M at 32 parts
/// and 22M at 256 parts => expansion = 1 + 0.077 * G^0.35), and transferred to
/// other datasets by their cut difficulty relative to products-14M, measured
/// with the same partitioner on same-size proxies. The SA exchange fraction
/// is proxy-measured (it is a property of the column support, far less
/// scale-sensitive).
StructuralCurves calibrated_curves(const graph::DatasetInfo& info, std::uint64_t seed);

/// Per-epoch time components at full dataset scale.
struct BaselineEpoch {
  double compute_seconds = 0.0;
  double comm_seconds = 0.0;
  double total() const { return compute_seconds + comm_seconds; }
};

/// BNS-GCN (boundary rate 1.0) epoch time: local SpMM/GEMM on the expanded
/// subgraph + per-layer halo all-to-all (forward and backward) + dW
/// all-reduce. The all-to-all carries the topology distance penalty that
/// produces the section 7.1 scaling cliff.
BaselineEpoch bnsgcn_epoch(const sim::Machine& m, const graph::DatasetInfo& info, int gpus,
                           const StructuralCurves& curves, std::int64_t hidden = 128,
                           int layers = 3);

/// CAGNET-SA epoch time: 1D stages with index-targeted feature exchange.
/// `nnz_imbalance` >= 1 inflates the straggler's compute (uniform block rows
/// without GVB are imbalanced on power-law graphs; GVB sets it to ~1).
BaselineEpoch sa_epoch(const sim::Machine& m, const graph::DatasetInfo& info, int gpus,
                       const StructuralCurves& curves, double nnz_imbalance,
                       std::int64_t hidden = 128, int layers = 3);

/// Plexus epoch time at the best predicted 3D configuration.
BaselineEpoch plexus_epoch(const sim::Machine& m, const graph::DatasetInfo& info, int gpus,
                           std::int64_t hidden = 128, int layers = 3);

/// Failures the paper reports for a framework/dataset(/scale): "OOM",
/// "partition timeout (>5h)", "job timeout". Returns nullopt when the paper
/// ran the point successfully.
std::optional<std::string> paper_reported_status(const std::string& framework,
                                                 const std::string& dataset, int gpus);

}  // namespace plexus::base
