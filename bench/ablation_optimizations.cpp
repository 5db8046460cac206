// Ablation study over Plexus's design choices: starting from the
// naive 3D algorithm, enable one optimisation at a time and measure the
// simulated epoch time on both machines. Functional runs on an Isolate-3-8M
// proxy (the dataset most sensitive to balance and variability) at 16 ranks;
// the grid is deliberately the *model-selected* one only in the final row, so
// the table also quantifies the value of the performance model itself.
#include <string>

#include "bench_common.hpp"
#include "core/trainer.hpp"
#include "perfmodel/perfmodel.hpp"
#include "sim/machine.hpp"
#include "util/table.hpp"

namespace {

using plexus::util::Table;
namespace pc = plexus::core;
namespace pp = plexus::perf;
namespace psim = plexus::sim;

double run(const plexus::graph::Graph& g, const psim::Machine& m, psim::GridShape grid,
           pc::PermutationScheme scheme, int blocks, bool tuning) {
  pc::TrainOptions opt;
  opt.grid = grid;
  opt.machine = &m;
  opt.scheme = scheme;
  opt.model.hidden_dims = {128, 128};
  opt.model.options.agg_row_blocks = blocks;
  opt.model.options.gemm_dw_tuning = tuning;
  opt.epochs = 4;
  return plexus::core::train_plexus(g, opt).avg_epoch_seconds(1);
}

}  // namespace

int main() {
  plexus::bench::banner("Ablation: contribution of each Plexus design choice",
                        "sections 4-5 (design-choice ablation; not a paper figure)");
  const auto g = plexus::bench::bench_proxy("Isolate-3-8M", 4000);

  pp::WorkloadStats w;
  w.num_nodes = g.num_nodes;
  w.num_nonzeros = g.num_edges() + g.num_nodes;
  w.layer_dims = {g.feature_dim(), 128, 128, g.num_classes};

  for (const auto* base_m :
       {&psim::Machine::perlmutter_a100(), &psim::Machine::frontier_mi250x_gcd()}) {
    // Large-message limit (alpha = 0): at proxy scale the per-block latency of
    // blocked aggregation would otherwise dominate, a regime that does not
    // exist at the paper's buffer sizes (hundreds of MB per collective).
    psim::Machine machine = *base_m;
    machine.alpha = 0.0;
    const psim::Machine* m = &machine;
    std::printf("\n-- %s, 16 simulated ranks (large-message limit) --\n", m->name.c_str());
    const psim::GridShape naive_grid{16, 1, 1};  // 1D baseline an MPI port would start from
    const psim::GridShape best_grid = pp::best_configuration(*m, w, 16);

    Table t({"Variant", "Epoch (ms)", "vs naive"});
    const double naive =
        run(g, *m, naive_grid, pc::PermutationScheme::None, 1, false);
    auto row = [&](const std::string& name, double v) {
      t.add_row({name, plexus::bench::ms(v, 3), plexus::util::Table::fmt(naive / v, 2) + "x"});
    };
    row("1D grid, natural order", naive);
    row("+ 3D grid (model-selected " + pp::grid_to_string(best_grid) + ")",
        run(g, *m, best_grid, pc::PermutationScheme::None, 1, false));
    row("+ double permutation", run(g, *m, best_grid, pc::PermutationScheme::Double, 1, false));
    row("+ blocked aggregation",
        run(g, *m, best_grid, pc::PermutationScheme::Double, 8, false));
    row("+ dW GEMM tuning (full Plexus)",
        run(g, *m, best_grid, pc::PermutationScheme::Double, 8, true));
    t.print();
  }
  plexus::bench::note("every variant trains to the same losses (no approximations); only the "
                      "schedule changes. Proxy scale: small messages mute the communication "
                      "terms relative to full-scale runs.");
  return 0;
}
