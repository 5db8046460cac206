#pragma once
/// \file host_fit.hpp
/// One-shot calibration of the perf model's compute constants from the
/// *measured* host kernels (the `perfmodel_fit` path of ROADMAP item 4).
///
/// The machine models in sim/machine.hpp carry published GPU hardware
/// numbers; the host kernels behind the simulator were calibrated against
/// their scalar-era throughput. With the runtime-dispatched SIMD kernels
/// (util/simd.hpp) the real peak-FLOP and per-byte rates moved by integer
/// factors, so planning decisions that compare compute time against wire
/// time — perf::choose_pipeline_depth, perf::choose_prefetch_depth — would
/// be fed stale ratios if the constants were left alone.
///
/// `measure_host_kernels()` times the vectorized GEMM (all three transpose
/// modes), the SpMM row kernel on a random graph, and a streaming-copy
/// bandwidth probe, all single-threaded on the active SIMD target;
/// `fit_host_machine()` folds the measurements into a sim::Machine whose
/// compute constants are the measured rates (network parameters are
/// inherited from the reference machine — the host has no NICs to probe).
/// Nothing in the default training path calls this: the default machine
/// stays Machine::perlmutter_a100(), so fp32 epoch lines are untouched.
/// bench/perfmodel_fit_section41.cpp surfaces the fit next to the paper's
/// section-4.1 regression.

#include <string>

#include "sim/machine.hpp"

namespace plexus::perf {

/// Measured single-thread host kernel rates on the active SIMD target.
struct HostCalibration {
  std::string simd;              ///< simd::target_name(simd::active_target())
  double gemm_nn_flops = 0.0;    ///< fp32 flop/s, C = A B
  double gemm_nt_flops = 0.0;    ///< ... C = A B^T
  double gemm_tn_flops = 0.0;    ///< ... C = A^T B (slowest mode)
  double spmm_flops = 0.0;       ///< fp32 flop/s of the CSR row kernel
  double stream_bytes = 0.0;     ///< streaming read+write bytes/s
};

/// Run the probes (fractions of a second total: warm-up plus min-of-three
/// timed repetitions per kernel, like the micro-bench baselines).
HostCalibration measure_host_kernels();

/// A sim::Machine with the measured compute constants: peak_flops is the NN
/// GEMM rate (so gemm_eff_nn == 1 by construction), the NT/TN efficiencies
/// and spmm_efficiency are the measured ratios, mem_bw is the stream rate,
/// and spmm_noise is zeroed (the probes are deterministic wall-clock
/// medians, not a noisy population). Network parameters copy `reference`.
sim::Machine fit_host_machine(const HostCalibration& c,
                              const sim::Machine& reference = sim::Machine::perlmutter_a100());

}  // namespace plexus::perf
