// Figure 5: validating the unified performance model — predicted vs observed
// epoch time for *every* 3D configuration of 64 GPUs on ogbn-products.
// "Observed" comes from the functional cluster simulation (real shards, real
// collectives, simulated clocks); "predicted" from the section-4 analytic
// model. The paper's claims: strong predicted/observed correlation, 3D
// configurations beat 2D/1D, and the top configurations are identified.
#include <algorithm>
#include <cmath>

#include "bench_common.hpp"
#include "core/dataset_view.hpp"
#include "core/trainer.hpp"
#include "perfmodel/perfmodel.hpp"
#include "sim/machine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

int main() {
  using plexus::util::Table;
  namespace pc = plexus::core;
  namespace pp = plexus::perf;
  namespace psim = plexus::sim;

  plexus::bench::banner(
      "Figure 5: predicted vs observed epoch time, all 64-GPU configs",
      "Figure 5 (section 4.3), ogbn-products on 64 GPUs of Perlmutter");
  const auto& machine = psim::Machine::perlmutter_a100();
  const auto g = plexus::bench::bench_proxy("ogbn-products", 4000);

  pc::GcnSpec spec;
  spec.hidden_dims = {64, 64};
  spec.seed = 7;

  pp::WorkloadStats w;
  w.num_nodes = g.num_nodes;
  // nnz of the preprocessed adjacency ~ symmetric edges + self loops.
  w.num_nonzeros = g.num_edges() + g.num_nodes;
  w.layer_dims = {g.feature_dim(), 64, 64, g.num_classes};

  const auto ds = pc::preprocess_graph(g, pc::PermutationScheme::Double, spec.num_layers(),
                                       /*pad_multiple=*/64, /*seed=*/5);
  const pc::InMemoryDatasetView view(ds);

  struct Row {
    psim::GridShape grid;
    double predicted;
    double observed;
  };
  std::vector<Row> rows;
  for (const auto& shape : pp::enumerate_grids(64)) {
    pc::TrainOptions opt;
    opt.grid = shape;
    opt.machine = &machine;
    opt.model = spec;
    opt.epochs = 2;
    const auto res = pc::train_plexus(view, opt);
    rows.push_back({shape, pp::predict_epoch(machine, w, shape).total(),
                    res.avg_epoch_seconds(/*skip=*/1)});
  }
  std::sort(rows.begin(), rows.end(),
            [](const Row& a, const Row& b) { return a.observed < b.observed; });

  Table t({"Config", "Dim", "Predicted (ms)", "Observed (ms)"});
  for (const auto& r : rows) {
    t.add_row({pp::grid_to_string(r.grid),
               std::to_string(pp::grid_dimensionality(r.grid)) + "D",
               plexus::bench::ms(r.predicted, 2), plexus::bench::ms(r.observed, 2)});
  }
  t.print();

  // Correlation + best-config identification, the figure's two claims.
  std::vector<double> pred;
  std::vector<double> obs;
  double best_3d = 1e300;
  double best_1d = 1e300;
  for (const auto& r : rows) {
    pred.push_back(r.predicted);
    obs.push_back(r.observed);
    if (pp::grid_dimensionality(r.grid) == 3) best_3d = std::min(best_3d, r.observed);
    if (pp::grid_dimensionality(r.grid) == 1) best_1d = std::min(best_1d, r.observed);
  }
  const double r2 = plexus::util::r_squared(obs, pred);
  const auto predicted_best =
      std::min_element(rows.begin(), rows.end(),
                       [](const Row& a, const Row& b) { return a.predicted < b.predicted; });
  const std::size_t rank_of_predicted_best =
      static_cast<std::size_t>(predicted_best - rows.begin());

  std::printf("\npredicted-vs-observed R^2: %.3f (paper: 'strong correlation')\n", r2);
  std::printf("predicted-best config %s is observed rank %zu of %zu\n",
              pp::grid_to_string(predicted_best->grid).c_str(), rank_of_predicted_best + 1,
              rows.size());
  std::printf("best 3D observed %.2f ms vs best 1D observed %.2f ms (paper: 3D > 2D > 1D)\n",
              best_3d * 1e3, best_1d * 1e3);
  return 0;
}
