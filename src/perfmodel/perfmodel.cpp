#include "perfmodel/perfmodel.hpp"

#include <algorithm>
#include <cmath>

#include "comm/cost.hpp"
#include "core/roles.hpp"
#include "sim/kernels.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace plexus::perf {

using core::Axis;
using core::LayerRoles;
using core::roles_for_layer;

WorkloadStats WorkloadStats::from_dataset(const graph::DatasetInfo& info, std::int64_t hidden,
                                          int num_layers) {
  WorkloadStats w;
  w.num_nodes = info.num_nodes;
  w.num_nonzeros = info.num_nonzeros;
  w.layer_dims.push_back(info.feature_dim);
  for (int l = 1; l < num_layers; ++l) w.layer_dims.push_back(hidden);
  w.layer_dims.push_back(info.num_classes);
  return w;
}

namespace {

int extent(const sim::GridShape& g, Axis a) {
  switch (a) {
    case Axis::X: return g.x;
    case Axis::Y: return g.y;
    case Axis::Z: return g.z;
  }
  return 1;
}

}  // namespace

std::vector<double> comp_model_features(const WorkloadStats& w, const sim::GridShape& g) {
  // eq. 4.4 summed across layers. flops_cost = NNZ * Din; fwd_penalty =
  // (N / G_P) * (G_Q / Din); bwd_penalty = (N / G_R) * (G_Q / Din).
  double f0 = 0.0;
  double f1 = 0.0;
  double f2 = 0.0;
  const double n = static_cast<double>(w.num_nodes);
  const double nnz = static_cast<double>(w.num_nonzeros);
  for (int l = 0; l < w.num_layers(); ++l) {
    const LayerRoles roles = roles_for_layer(l);
    const double din = static_cast<double>(w.layer_dims[static_cast<std::size_t>(l)]);
    const double ep = extent(g, roles.p);
    const double eq = extent(g, roles.q);
    const double er = extent(g, roles.r);
    const double flops_cost = nnz * din;
    const double fwd_penalty = (n / ep) * (eq / din);
    const double bwd_penalty = (n / er) * (eq / din);
    const double root = std::sqrt(flops_cost);
    f0 += root;
    f1 += root * fwd_penalty;
    f2 += root * bwd_penalty;
  }
  return {f0, f1, f2};
}

double FittedCompModel::predict(const WorkloadStats& w, const sim::GridShape& g) const {
  const auto f = comp_model_features(w, g);
  PLEXUS_CHECK(coefficients.size() == f.size(), "model not fitted");
  double v = 0.0;
  for (std::size_t i = 0; i < f.size(); ++i) v += coefficients[i] * f[i];
  return v;
}

FittedCompModel fit_comp_model(const std::vector<std::vector<double>>& features,
                               const std::vector<double>& observed_seconds) {
  FittedCompModel m;
  m.coefficients = util::linear_regression(features, observed_seconds, /*add_intercept=*/false);
  const auto pred = util::linear_predict(features, m.coefficients, false);
  m.train_r2 = util::r_squared(observed_seconds, pred);
  m.train_rmse = util::rmse(observed_seconds, pred);
  return m;
}

ValidationSummary cross_validate_comp_model(const std::vector<std::vector<double>>& features,
                                            const std::vector<double>& observed_seconds,
                                            int iterations, std::uint64_t seed) {
  PLEXUS_CHECK(features.size() >= 10, "need enough samples to cross-validate");
  ValidationSummary sum;
  util::SplitMix64 rng(seed);
  int valid_iters = 0;
  for (int it = 0; it < iterations; ++it) {
    std::vector<std::vector<double>> xtr;
    std::vector<std::vector<double>> xte;
    std::vector<double> ytr;
    std::vector<double> yte;
    for (std::size_t i = 0; i < features.size(); ++i) {
      if (rng.next_double() < 0.7) {
        xtr.push_back(features[i]);
        ytr.push_back(observed_seconds[i]);
      } else {
        xte.push_back(features[i]);
        yte.push_back(observed_seconds[i]);
      }
    }
    if (xtr.size() < 4 || xte.size() < 4) continue;
    const auto beta = util::linear_regression(xtr, ytr, false);
    const auto ptr = util::linear_predict(xtr, beta, false);
    const auto pte = util::linear_predict(xte, beta, false);
    sum.train_r2 += util::r_squared(ytr, ptr);
    sum.test_r2 += util::r_squared(yte, pte);
    sum.train_rmse += util::rmse(ytr, ptr);
    sum.test_rmse += util::rmse(yte, pte);
    ++valid_iters;
  }
  PLEXUS_CHECK(valid_iters > 0, "no valid cross-validation splits");
  const double inv = 1.0 / static_cast<double>(valid_iters);
  sum.train_r2 *= inv;
  sum.test_r2 *= inv;
  sum.train_rmse *= inv;
  sum.test_rmse *= inv;
  return sum;
}

EpochPrediction predict_epoch(const sim::Machine& machine, const WorkloadStats& w,
                              const sim::GridShape& g) {
  EpochPrediction out;
  const double n = static_cast<double>(w.num_nodes);
  const double nnz = static_cast<double>(w.num_nonzeros);

  for (int l = 0; l < w.num_layers(); ++l) {
    const LayerRoles roles = roles_for_layer(l);
    const double ep = extent(g, roles.p);
    const double eq = extent(g, roles.q);
    const double er = extent(g, roles.r);
    const double din = static_cast<double>(w.layer_dims[static_cast<std::size_t>(l)]);
    const double dout = static_cast<double>(w.layer_dims[static_cast<std::size_t>(l) + 1]);
    const double din_q = std::max(1.0, din / eq);
    const double dout_p = std::max(1.0, dout / ep);
    const auto nnz_shard = static_cast<std::int64_t>(nnz / (er * ep));

    // SpMM: forward H = A F, backward dF = A^T dH. Double permutation makes
    // per-shard nonzeros near-uniform (Table 3), so NNZ/(R*P) per shard.
    const sim::SpmmShape fwd{nnz_shard, static_cast<std::int64_t>(n / er),
                             static_cast<std::int64_t>(n / ep),
                             static_cast<std::int64_t>(din_q)};
    const sim::SpmmShape bwd{nnz_shard, static_cast<std::int64_t>(n / ep),
                             static_cast<std::int64_t>(n / er),
                             static_cast<std::int64_t>(din_q)};
    out.spmm_seconds += sim::spmm_time(machine, fwd) + sim::spmm_time(machine, bwd);

    // Dense GEMMs (small next to SpMM; the paper's unified model neglects
    // them, we keep them for completeness). dW uses the tuned fast mode.
    out.gemm_seconds += sim::gemm_time(machine, static_cast<std::int64_t>(n / er),
                                       static_cast<std::int64_t>(dout_p),
                                       static_cast<std::int64_t>(din_q), dense::Trans::N,
                                       dense::Trans::N);
    out.gemm_seconds += sim::gemm_time(machine, static_cast<std::int64_t>(din_q),
                                       static_cast<std::int64_t>(dout_p),
                                       static_cast<std::int64_t>(n / er), dense::Trans::N,
                                       dense::Trans::T);
    out.gemm_seconds += sim::gemm_time(machine, static_cast<std::int64_t>(n / er),
                                       static_cast<std::int64_t>(din_q),
                                       static_cast<std::int64_t>(dout_p), dense::Trans::N,
                                       dense::Trans::T);

    // Collectives (eq. 4.5 with the eq. 4.6 effective links).
    const auto link_p = sim::link_for_dim(machine, g, roles.p);
    const auto link_q = sim::link_for_dim(machine, g, roles.q);
    const auto link_r = sim::link_for_dim(machine, g, roles.r);
    const int gp = static_cast<int>(ep);
    const int gq = static_cast<int>(eq);
    const int gr = static_cast<int>(er);
    auto t = [&](comm::Collective op, double bytes, int size, const comm::LinkParams& link) {
      return comm::collective_time(op, static_cast<std::int64_t>(bytes), size, link);
    };
    const double bytes_h = 4.0 * (n / er) * din_q;
    const double bytes_q = 4.0 * (n / er) * dout_p;
    const double bytes_w = 4.0 * din_q * dout_p;
    const double bytes_f = 4.0 * (n / ep) * din_q;

    // Forward: (layer 0) all-gather F over R; all-reduce H over P; all-gather
    // W over R; all-reduce Q over Q.
    if (l == 0) out.comm_seconds += t(comm::Collective::AllGather, bytes_f, gr, link_r);
    out.comm_seconds += t(comm::Collective::AllReduce, bytes_h, gp, link_p);
    out.comm_seconds += t(comm::Collective::AllGather, bytes_w, gr, link_r);
    out.comm_seconds += t(comm::Collective::AllReduce, bytes_q, gq, link_q);
    // Backward: reduce-scatter dW over R; all-gather W over R; all-reduce dH
    // over P; reduce-scatter (layer 0) / all-reduce dF over R.
    out.comm_seconds += t(comm::Collective::ReduceScatter, bytes_w, gr, link_r);
    out.comm_seconds += t(comm::Collective::AllGather, bytes_w, gr, link_r);
    out.comm_seconds += t(comm::Collective::AllReduce, bytes_h, gp, link_p);
    out.comm_seconds += t(l == 0 ? comm::Collective::ReduceScatter : comm::Collective::AllReduce,
                          bytes_f, gr, link_r);
  }
  return out;
}

double estimate_activation_bytes(const WorkloadStats& w, const sim::GridShape& g,
                                 double elem_bytes) {
  const double n = static_cast<double>(w.num_nodes);
  const int L = w.num_layers();
  const auto dim = [&](int l) {
    return static_cast<double>(w.layer_dims[static_cast<std::size_t>(l)]);
  };
  double elems = 0.0;
  double mask_bytes = 0.0;
  for (int l = 0; l < L; ++l) {
    const LayerRoles roles = roles_for_layer(l);
    const double rows = n / extent(g, roles.r);
    const double din_q = dim(l) / extent(g, roles.q);
    const double dout_p = dim(l + 1) / extent(g, roles.p);
    // H, Q, and the weight block with its transpose and dW.
    elems += rows * din_q + rows * dout_p + 3.0 * din_q * dout_p;
    // Hidden layers keep relu'(Q) as bits, in whole 64-bit words.
    if (l + 1 < L) mask_bytes += 8.0 * std::ceil(rows * dout_p / 64.0);
  }
  // Layer 0's gathered input block (N/P0 x D0/Q0).
  const LayerRoles first = roles_for_layer(0);
  elems += n / extent(g, first.p) * dim(0) / extent(g, first.q);
  // The P-gathered logits (N/R x C); at P = 1 the loss reads Q in place.
  const LayerRoles last = roles_for_layer(L - 1);
  if (extent(g, last.p) > 1) elems += n / extent(g, last.r) * dim(L);
  return elems * elem_bytes + mask_bytes;
}

double estimate_per_gpu_bytes(const WorkloadStats& w, const sim::GridShape& g,
                              int adjacency_versions, double elem_bytes) {
  PLEXUS_CHECK(adjacency_versions >= 1, "estimate_per_gpu_bytes: bad version count");
  const double n = static_cast<double>(w.num_nodes);
  const double nnz = static_cast<double>(w.num_nonzeros);
  const double gpus = static_cast<double>(g.x) * g.y * g.z;

  // Adjacency: one shard per distinct plane in use (planes cycle mod 3), per
  // version, stored with its transpose. CSR = col_idx (4B) + vals (elem) per
  // nonzero, row_ptr (8B) per row.
  double adjacency = 0.0;
  const int planes = std::min(3, w.num_layers());
  for (int l = 0; l < planes; ++l) {
    const LayerRoles roles = roles_for_layer(l);
    const double er = extent(g, roles.r);
    const double ep = extent(g, roles.p);
    const double shard_nnz = nnz / (er * ep);
    const double csr = shard_nnz * (4.0 + elem_bytes) + (n / er + 1.0) * 8.0;
    adjacency += static_cast<double>(adjacency_versions) * 2.0 * csr;
  }

  const double activations = estimate_activation_bytes(w, g, elem_bytes);

  // Trainable features plus their two Adam moments.
  const double features =
      3.0 * n * static_cast<double>(w.layer_dims.front()) / gpus * elem_bytes;

  return adjacency + activations + features;
}

std::vector<sim::GridShape> enumerate_grids(int gpus) {
  std::vector<sim::GridShape> out;
  for (int x = 1; x <= gpus; ++x) {
    if (gpus % x != 0) continue;
    const int yz = gpus / x;
    for (int y = 1; y <= yz; ++y) {
      if (yz % y != 0) continue;
      out.push_back({x, y, yz / y});
    }
  }
  return out;
}

int grid_dimensionality(const sim::GridShape& g) {
  return (g.x > 1 ? 1 : 0) + (g.y > 1 ? 1 : 0) + (g.z > 1 ? 1 : 0);
}

std::vector<RankedConfig> rank_configurations(const sim::Machine& machine,
                                              const WorkloadStats& w, int gpus) {
  std::vector<RankedConfig> out;
  for (const auto& g : enumerate_grids(gpus)) {
    out.push_back({g, predict_epoch(machine, w, g)});
  }
  std::sort(out.begin(), out.end(), [](const RankedConfig& a, const RankedConfig& b) {
    return a.prediction.total() < b.prediction.total();
  });
  return out;
}

sim::GridShape best_configuration(const sim::Machine& machine, const WorkloadStats& w,
                                  int gpus) {
  const auto ranked = rank_configurations(machine, w, gpus);
  PLEXUS_CHECK(!ranked.empty(), "no configurations");
  return ranked.front().grid;
}

std::string grid_to_string(const sim::GridShape& g) {
  // Built with append rather than operator+ chaining: GCC 12's -Wrestrict
  // false-positives on `const char* + std::string&&` chains (GCC PR 105329).
  std::string s = "X";
  s += std::to_string(g.x);
  s += "Y";
  s += std::to_string(g.y);
  s += "Z";
  s += std::to_string(g.z);
  return s;
}

}  // namespace plexus::perf
