// Section 4.1: fitting and cross-validating the 3-term computational model.
// The paper fits a linear regression on 67 measured runs and reports, over
// 1000 random 70/30 splits, train R^2 = 0.89 / RMSE = 16.8 ms and test
// R^2 = 0.79 / RMSE = 20.1 ms, with coefficients ~7.8e-4, 7.8e-10, -2.6e-10.
//
// Our "measured runs" are the detailed kernel model (roofline + cache
// residency + shape penalty + noise) evaluated across datasets x GPU counts x
// configurations — a strictly richer model than the 3-term regression, so the
// regression's fit quality is a meaningful number, not a tautology.
#include "bench_common.hpp"
#include "comm/transport.hpp"
#include "core/roles.hpp"
#include "perfmodel/host_fit.hpp"
#include "perfmodel/perfmodel.hpp"
#include "sim/kernels.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main() {
  using plexus::util::Table;
  namespace pp = plexus::perf;
  namespace pg = plexus::graph;
  namespace psim = plexus::sim;

  plexus::bench::banner("Section 4.1: computational model fit and cross-validation",
                        "section 4.1 regression (R^2 / RMSE over 1000 splits)");
  const auto& m = psim::Machine::perlmutter_a100();

  std::vector<std::vector<double>> feats;
  std::vector<double> observed;
  plexus::util::SplitMix64 noise_rng(17);
  // The paper's 67 runs span medium datasets and GPU counts where epoch times
  // sit in the tens-to-hundreds of ms; mixing papers100M@8 (seconds) with
  // Reddit@512 (sub-ms) would ask one linear model to span 3 orders of
  // magnitude. We sample the same regime.
  for (const char* name : {"Reddit", "ogbn-products", "Isolate-3-8M", "products-14M"}) {
    const auto& info = pg::dataset_info(name);
    const auto w = pp::WorkloadStats::from_dataset(info);
    for (const int gpus : {32, 64, 128}) {
      for (const auto& grid : pp::enumerate_grids(gpus)) {
        // Y-extreme configurations shard feature columns below one element
        // per GPU; the paper's runs keep D/Gy >= 1 (D >= 100, Gy <= 64).
        if (grid.y > 64) continue;
        feats.push_back(pp::comp_model_features(w, grid));
        // Detailed per-layer SpMM times (fwd + bwd) with run-to-run noise.
        double t = 0.0;
        for (int l = 0; l < w.num_layers(); ++l) {
          const auto roles = plexus::core::roles_for_layer(l);
          auto ext = [&](plexus::core::Axis a) {
            switch (a) {
              case plexus::core::Axis::X: return grid.x;
              case plexus::core::Axis::Y: return grid.y;
              case plexus::core::Axis::Z: return grid.z;
            }
            return 1;
          };
          const auto din = std::max<std::int64_t>(
              1, w.layer_dims[static_cast<std::size_t>(l)] / ext(roles.q));
          const auto nnz = w.num_nonzeros / (ext(roles.r) * ext(roles.p));
          const psim::SpmmShape fwd{nnz, w.num_nodes / ext(roles.r),
                                    w.num_nodes / ext(roles.p), din};
          const psim::SpmmShape bwd{nnz, w.num_nodes / ext(roles.p),
                                    w.num_nodes / ext(roles.r), din};
          t += psim::spmm_time(m, fwd) + psim::spmm_time(m, bwd);
        }
        observed.push_back(t * (1.0 + 0.08 * (noise_rng.next_double() - 0.5)));
      }
    }
  }
  std::printf("data points: %zu (paper: 67 measured runs)\n", feats.size());

  const auto fitted = pp::fit_comp_model(feats, observed);
  std::printf("fitted coefficients: %.3e, %.3e, %.3e (paper: 7.8e-4, 7.8e-10, -2.6e-10)\n",
              fitted.coefficients[0], fitted.coefficients[1], fitted.coefficients[2]);

  const auto cv = pp::cross_validate_comp_model(feats, observed, 1000, 99);
  Table t({"Split", "R^2 (measured)", "R^2 (paper)", "RMSE ms (measured)", "RMSE ms (paper)"});
  t.add_row({"train (70%)", Table::fmt(cv.train_r2, 3), "0.89",
             Table::fmt(cv.train_rmse * 1e3, 1), "16.8"});
  t.add_row({"test (30%)", Table::fmt(cv.test_r2, 3), "0.79", Table::fmt(cv.test_rmse * 1e3, 1),
             "20.1"});
  t.print();

  // One-shot host recalibration: measure the vectorized kernels and refit the
  // machine constants, so the planning heuristics (pipeline and prefetch
  // depth) can be priced against this host's real rates instead of the
  // scalar-era ones. The default training machine stays perlmutter_a100 —
  // this section only reports what the fit would change.
  plexus::bench::banner("Host kernel calibration (one-shot perfmodel fit)",
                        "measured single-thread rates on the active SIMD target");
  const auto cal = pp::measure_host_kernels();
  const auto host = pp::fit_host_machine(cal);
  Table h({"Constant", host.name.c_str(), "perlmutter_a100 (reference)"});
  h.add_row({"peak fp32 Gflop/s", Table::fmt(host.peak_flops / 1e9, 2),
             Table::fmt(m.peak_flops / 1e9, 0)});
  h.add_row({"gemm_eff NN/NT/TN",
             Table::fmt(host.gemm_eff_nn, 2) + "/" + Table::fmt(host.gemm_eff_nt, 2) + "/" +
                 Table::fmt(host.gemm_eff_tn, 2),
             Table::fmt(m.gemm_eff_nn, 2) + "/" + Table::fmt(m.gemm_eff_nt, 2) + "/" +
                 Table::fmt(m.gemm_eff_tn, 2)});
  h.add_row({"spmm_efficiency", Table::fmt(host.spmm_efficiency, 4),
             Table::fmt(m.spmm_efficiency, 4)});
  h.add_row({"mem_bw GB/s", Table::fmt(host.mem_bw / 1e9, 1), Table::fmt(m.mem_bw / 1e9, 0)});
  h.print();

  // What the refit changes downstream: the adaptive pipeline depth for
  // ogbn-products' layer 0 on a 2x2x2 grid, priced at both wire formats
  // (fp32 = 4 bytes/float, bf16 = 2 — comm::wire_elem_size).
  const auto wp = pp::WorkloadStats::from_dataset(pg::dataset_info("ogbn-products"));
  const psim::GridShape grid{2, 2, 2};
  const auto eb_fp32 = static_cast<int>(plexus::comm::wire_elem_size(
      plexus::comm::WirePrecision::Fp32));
  const auto eb_bf16 = static_cast<int>(plexus::comm::wire_elem_size(
      plexus::comm::WirePrecision::Bf16));
  std::printf("adaptive depth, products layer 0, X2Y2Z2, 8 blocks: "
              "reference %d (fp32) / %d (bf16); host-fit %d (fp32) / %d (bf16)\n",
              pp::choose_pipeline_depth(m, wp, grid, 0, 8, eb_fp32),
              pp::choose_pipeline_depth(m, wp, grid, 0, 8, eb_bf16),
              pp::choose_pipeline_depth(host, wp, grid, 0, 8, eb_fp32),
              pp::choose_pipeline_depth(host, wp, grid, 0, 8, eb_bf16));
  return 0;
}
