#pragma once
/// \file machine.hpp
/// GPU-cluster machine models (the paper's two platforms, section 6.1).
///
/// Substitution note: we do not have Perlmutter or Frontier, so
/// epoch *times* come from these calibrated analytic models. Parameters follow
/// the published hardware numbers: A100 = 19.5 fp32 Tflop/s, 1.5 TB/s HBM,
/// 40 MB L2, 4 GPUs/node; MI250X GCD = 23.9 fp32 Tflop/s, 1.6 TB/s, 8 MB L2,
/// 8 GCDs/node; both systems have 4x 25 GB/s Slingshot-11 NICs per node.
/// SpMM on ROCm is an order of magnitude slower than on CUDA (paper section
/// 7.2) — captured by `spmm_efficiency`.

#include <string>

namespace plexus::sim {

struct Machine {
  std::string name;
  int gpus_per_node = 4;

  // Compute.
  double peak_flops = 19.5e12;     ///< fp32 peak per device
  double gemm_eff_nn = 0.80;       ///< achievable fraction of peak, NN GEMM
  double gemm_eff_nt = 0.70;       ///< ... A * B^T
  double gemm_eff_tn = 0.55;       ///< ... A^T * B (slowest mode; section 5.3)
  double spmm_efficiency = 0.02;   ///< achievable fraction of peak for SpMM
  double spmm_shape_k = 171e3;     ///< tall-skinny penalty scale (section 4.1)
  double spmm_noise = 0.35;        ///< relative run-to-run variability amplitude
                                   ///< for working sets far beyond L2 (section 5.2)

  // Memory.
  double mem_bw = 1.5e12;          ///< HBM bytes/s
  double l2_bytes = 40e6;          ///< L2 capacity
  double disk_bw = 2.0e9;          ///< sustained sequential read bytes/s of the
                                   ///< node-local storage the streaming epoch
                                   ///< pulls shard blocks from (NVMe-class)

  // Network (paper eq. 4.6 parameters).
  double beta_intra = 200e9;       ///< intra-node ring bandwidth, bytes/s
  double beta_inter = 25e9;        ///< per-NIC injection bandwidth, bytes/s
  double alpha = 5e-6;             ///< per-hop latency, s
  double a2a_node_penalty = 0.5;   ///< all-to-all long-distance factor per log2(nodes)
  double a2a_peer_overhead = 5e-4; ///< per-peer all-to-all software overhead, seconds

  /// NERSC Perlmutter GPU partition (4x NVIDIA A100-40GB per node).
  static const Machine& perlmutter_a100();
  /// OLCF Frontier (4x MI250X per node = 8 GCDs, each GCD one device).
  static const Machine& frontier_mi250x_gcd();
  /// Generic single-node box for unit tests (no inter-node effects).
  static const Machine& test_machine();

  double gemm_eff(bool trans_a, bool trans_b) const {
    if (trans_a) return gemm_eff_tn;
    if (trans_b) return gemm_eff_nt;
    return gemm_eff_nn;
  }
};

}  // namespace plexus::sim
