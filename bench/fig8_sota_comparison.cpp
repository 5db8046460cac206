// Figure 8: strong scaling of Plexus vs SA, SA+GVB and BNS-GCN on Reddit,
// Isolate-3-8M and products-14M (Perlmutter).
//
// Full-size points come from the analytic scale-out models; the structural
// curves driving them (boundary growth, SA exchange volume, 1D nonzero
// imbalance) are measured on scaled-down proxies with the real partitioners.
// Points the paper reports as failures (OOM / partition
// timeout / job timeout) are annotated with the paper's status.
#include <optional>

#include "baselines/costmodels.hpp"
#include "bench_common.hpp"
#include "sim/machine.hpp"
#include "sparse/partition2d.hpp"
#include "util/table.hpp"

namespace {

using plexus::util::Table;
namespace pb = plexus::base;
namespace pg = plexus::graph;

struct DatasetCase {
  const char* name;
  std::vector<int> gpu_counts;
};

void run_dataset(const DatasetCase& dc, const plexus::sim::Machine& m) {
  const auto& info = pg::dataset_info(dc.name);
  const auto proxy = plexus::bench::bench_proxy(dc.name, 4000);
  const auto curves = pb::calibrated_curves(info, 5);
  // 1D nonzero imbalance of uniform row blocks (SA) vs balanced (SA+GVB).
  const auto imb =
      plexus::sparse::grid_imbalance(proxy.adjacency(), 16, 1).max_over_mean;

  std::printf("\n-- Strong scaling on %s --\n", dc.name);
  std::printf("measured structural curves: boundary expansion(G)=1+%.3g*G^%.2f, "
              "SA recv fraction(G)=%.3g*G^%.2f, SA 1D nnz imbalance=%.2f\n",
              curves.boundary_a, curves.boundary_b, curves.sa_recv_a, curves.sa_recv_b, imb);

  Table t({"#GPUs", "Plexus (ms)", "BNS-GCN (ms)", "SA (ms)", "SA+GVB (ms)"});
  auto cell = [&](const char* framework, int gpus, double value) -> std::string {
    if (const auto status = pb::paper_reported_status(framework, dc.name, gpus)) {
      return *status;
    }
    return plexus::bench::ms(value, 1);
  };
  for (const int gpus : dc.gpu_counts) {
    const double plx = pb::plexus_epoch(m, info, gpus).total();
    const double bns = pb::bnsgcn_epoch(m, info, gpus, curves).total();
    const double sa = pb::sa_epoch(m, info, gpus, curves, imb).total();
    // SA+GVB is SA at perfect nonzero balance (imbalance 1.0).
    const double gvb = pb::sa_epoch(m, info, gpus, curves, 1.0).total();
    t.add_row({std::to_string(gpus), plexus::bench::ms(plx, 1), cell("BNS-GCN", gpus, bns),
               cell("SA", gpus, sa), cell("SA+GVB", gpus, gvb)});
  }
  t.print();
}

}  // namespace

int main() {
  plexus::bench::banner("Figure 8: Plexus vs SA / SA+GVB / BNS-GCN strong scaling",
                        "Figure 8 (section 7.1), Perlmutter");
  const auto& m = plexus::sim::Machine::perlmutter_a100();

  run_dataset({"Reddit", {4, 8, 16, 32, 64, 128}}, m);
  run_dataset({"Isolate-3-8M", {16, 32, 64, 128, 256, 512, 1024}}, m);
  run_dataset({"products-14M", {8, 16, 32, 64, 128, 256, 512, 1024}}, m);

  // The paper's headline comparisons.
  const auto& reddit = pg::dataset_info("Reddit");
  const auto& prod14 = pg::dataset_info("products-14M");
  const auto& isolate = pg::dataset_info("Isolate-3-8M");
  const auto pp14 = plexus::bench::bench_proxy("products-14M", 4000);
  const auto rc = pb::calibrated_curves(reddit, 5);
  const auto pc14 = pb::calibrated_curves(prod14, 5);
  const auto ic = pb::calibrated_curves(isolate, 5);

  std::printf("\nheadline speedups (measured | paper):\n");
  std::printf("  Reddit:       Plexus vs BNS-GCN @32:   %.1fx | 6x\n",
              pb::bnsgcn_epoch(m, reddit, 32, rc).total() /
                  pb::plexus_epoch(m, reddit, 32).total());
  std::printf("  Isolate-3-8M: Plexus vs BNS-GCN @256:  %.1fx | 3.8x\n",
              pb::bnsgcn_epoch(m, isolate, 256, ic).total() /
                  pb::plexus_epoch(m, isolate, 256).total());
  std::printf("  products-14M: Plexus vs BNS-GCN @256:  %.1fx | 4x\n",
              pb::bnsgcn_epoch(m, prod14, 256, pc14).total() /
                  pb::plexus_epoch(m, prod14, 256).total());
  const auto imb14 = plexus::sparse::grid_imbalance(pp14.adjacency(), 16, 1).max_over_mean;
  std::printf("  products-14M: Plexus vs SA @128:       %.1fx | 2.3x\n",
              pb::sa_epoch(m, prod14, 128, pc14, imb14).total() /
                  pb::plexus_epoch(m, prod14, 128).total());
  return 0;
}
