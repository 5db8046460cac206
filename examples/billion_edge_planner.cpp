// Planning a billion-edge full-graph training run (the paper's headline
// scenario): for ogbn-papers100M (1.6B edges) at 512-2048 GPUs on both
// machines, pick the best 3D configuration, predict the epoch breakdown, and
// estimate the per-GPU memory footprint that makes full-graph training
// feasible at this scale. Finishes with a sharded-file write/load round trip
// on a proxy, the workflow a real deployment would use (section 5.4).
//
// --run-proxy upgrades the demo to the full out-of-core pipeline: generate a
// scale-N RMAT proxy straight to sharded block files (graph::rmat_to_shards,
// never holding the graph in memory), then train streaming epochs out of the
// directory under a fixed --rss-budget — the block cache's peak residency is
// reported against the budget and the total on-disk adjacency bytes.
#include <cstdio>
#include <filesystem>
#include <string>

#include <unistd.h>

#include "core/dataset_view.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/rmat_shards.hpp"
#include "loader/shard_io.hpp"
#include "perfmodel/perfmodel.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"
#include "util/arg_parser.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace {

int fail(const plexus::util::ArgParser& args, const std::string& what) {
  std::fprintf(stderr, "billion_edge_planner: %s\n%s", what.c_str(), args.usage().c_str());
  return 1;
}

/// The planning table + sharded round-trip demo (the original, flagless run).
int plan() {
  using plexus::util::Table;
  namespace pp = plexus::perf;

  const auto& info = plexus::graph::dataset_info("ogbn-papers100M");
  const auto w = pp::WorkloadStats::from_dataset(info);
  std::printf("planning full-graph training of %s: %lld nodes, %lld edges\n", info.name.c_str(),
              static_cast<long long>(info.num_nodes), static_cast<long long>(info.num_edges));

  Table t({"Machine", "#GPUs", "Config", "SpMM (ms)", "Comm (ms)", "Total (ms)",
           "Mem/GPU (GB)"});
  for (const auto* m :
       {&plexus::sim::Machine::perlmutter_a100(), &plexus::sim::Machine::frontier_mi250x_gcd()}) {
    for (const int gpus : {512, 1024, 2048}) {
      const auto grid = pp::best_configuration(*m, w, gpus);
      const auto e = pp::predict_epoch(*m, w, grid);
      t.add_row({m->name, std::to_string(gpus), pp::grid_to_string(grid),
                 Table::fmt(e.spmm_seconds * 1e3, 1), Table::fmt(e.comm_seconds * 1e3, 1),
                 Table::fmt(e.total() * 1e3, 1),
                 Table::fmt(pp::estimate_per_gpu_bytes(w, grid) / 1e9, 2)});
    }
  }
  t.print();
  std::printf("\n(40 GB A100s need >= 512 GPUs for the full graph — the paper uses 80 GB nodes "
              "for its 64/128-GPU papers100M points.)\n");

  // Deployment workflow: write the (proxy) dataset as 2D shard files once,
  // then each rank loads only its window (section 5.4).
  const auto proxy = plexus::graph::make_proxy(info, 30'000, 11);
  const auto adj = plexus::sparse::normalize_adjacency(proxy.adjacency(), proxy.num_nodes);
  // Suffixed with the pid, so two planner runs at once never share it.
  const auto dir = std::filesystem::temp_directory_path() /
                   ("plexus_planner_demo_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  plexus::io::write_sharded_dataset(dir.string(), adj, proxy.features, proxy.labels,
                                    proxy.num_classes, 8, 8);
  plexus::io::LoadStats stats;
  const auto shard = plexus::io::load_adjacency_block(dir.string(), 0, adj.rows() / 8, 0,
                                                      adj.cols() / 8, &stats);
  std::printf("\nsharded-file round trip (proxy): rank 0 loaded its %lld x %lld window "
              "(%lld nnz) reading %.1f%% of the dataset bytes\n",
              static_cast<long long>(shard.rows()), static_cast<long long>(shard.cols()),
              static_cast<long long>(shard.nnz()),
              100.0 * static_cast<double>(stats.bytes_read) /
                  static_cast<double>(12 * adj.nnz() + 4 * proxy.features.size()));
  std::filesystem::remove_all(dir);
  return 0;
}

/// --run-proxy: generate a scale-N RMAT proxy to disk and train streaming
/// epochs out of it under the RSS budget. The proof-of-feasibility run for
/// "graphs bigger than memory": the budgeted block cache, not the graph size,
/// bounds resident adjacency bytes.
int run_proxy(int scale, std::int64_t rss_budget_mb, int epochs, const std::string& keep_dir) {
  namespace pg = plexus::graph;
  const auto& info = pg::dataset_info("ogbn-papers100M");
  const std::int64_t nodes = std::int64_t{1} << scale;

  plexus::core::TrainOptions opt;
  opt.grid = {2, 2, 1};
  opt.model.hidden_dims = {64};
  opt.model.options.agg_row_blocks = 8;
  opt.epochs = epochs;
  opt.rss_budget_bytes = rss_budget_mb << 20;
  const int volume = opt.grid.size();

  auto spec = pg::proxy_shards_spec(info, nodes, /*seed=*/1);
  spec.scheme = static_cast<int>(opt.scheme);
  spec.num_layers = opt.model.num_layers();
  spec.pad_multiple = volume;
  spec.preprocess_seed = opt.preprocess_seed;
  spec.parts = volume;

  const std::string dir =
      keep_dir.empty()
          ? (std::filesystem::temp_directory_path() /
             ("plexus_proxy_scale" + std::to_string(scale))).string()
          : keep_dir;
  std::printf("generating scale-%d proxy (%lld nodes) straight to shards in %s ...\n", scale,
              static_cast<long long>(nodes), dir.c_str());
  const plexus::util::WallTimer gen_timer;
  const auto r = pg::rmat_to_shards(dir, spec);
  const double gen_s = gen_timer.seconds();
  std::printf("  %lld edges, %lld nnz, %.1f MB on disk "
              "(peak generation buffer %.1f MB, %lld of %lld R-MAT attempts replayed, "
              "%.2f s)\n",
              static_cast<long long>(r.num_edges), static_cast<long long>(r.adjacency_nnz),
              static_cast<double>(r.bytes_written) / 1e6,
              static_cast<double>(r.peak_buffer_bytes) / 1e6, static_cast<long long>(r.attempts),
              static_cast<long long>(spec.target_edges * pg::RmatAttempts::kCapPerEdge), gen_s);

  // Both adjacency versions with transposes would be resident in-memory; the
  // streamed run holds at most the budget.
  const double adj_bytes = 2.0 * (static_cast<double>(r.adjacency_nnz) * 12.0 +
                                  static_cast<double>(r.padded_nodes + 1) * 8.0);
  std::printf("training %d streaming epochs under a %lld MB block-cache budget "
              "(resident adjacency would be %.1f MB)\n",
              epochs, static_cast<long long>(rss_budget_mb), adj_bytes / 1e6);

  // Train through a named budgeted view (instead of train_plexus_streaming)
  // so the cache high-water mark is still readable after the run.
  const plexus::core::ShardedDatasetView view(dir, opt.rss_budget_bytes);
  const auto result = plexus::core::train_plexus(view, opt);

  double io_bytes = 0.0;
  double io_s = 0.0;
  for (std::size_t e = 0; e < result.epochs.size(); ++e) {
    const auto& s = result.epochs[e];
    io_bytes += s.io_bytes_streamed;
    io_s += s.io_exposed_seconds;
    std::printf("epoch %2zu  loss %.4f  acc %.3f  sim %.2f ms  streamed %.1f MB  "
                "exposed io %.1f ms\n",
                e + 1, s.loss, s.train_accuracy, s.epoch_seconds * 1e3,
                s.io_bytes_streamed / 1e6, s.io_exposed_seconds * 1e3);
  }
  const auto cs = view.cache_stats();
  std::printf("streamed %.1f MB total, %.1f ms exposed IO; cache peak %.1f MiB / budget "
              "%lld MiB (%s), %lld hits / %lld misses / %lld evictions\n",
              io_bytes / 1e6, io_s * 1e3,
              static_cast<double>(cs.peak_resident_bytes) / (1 << 20),
              static_cast<long long>(rss_budget_mb),
              cs.peak_resident_bytes <= (rss_budget_mb << 20) ? "within budget" : "OVER BUDGET",
              static_cast<long long>(cs.hits), static_cast<long long>(cs.misses),
              static_cast<long long>(cs.evictions));
  if (keep_dir.empty()) std::filesystem::remove_all(dir);
  return cs.peak_resident_bytes <= (rss_budget_mb << 20) ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using plexus::util::ArgParser;
  ArgParser args("billion_edge_planner",
                 "Plan billion-edge full-graph training; --run-proxy streams a generated "
                 "proxy from disk under an RSS budget.");
  args.add_flag("run-proxy", "", "generate a proxy to shards and train out-of-core", "");
  args.add_flag("scale", "n", "proxy scale: log2(#nodes)", "24");
  args.add_flag("rss-budget", "MB", "streaming block-cache budget in MB", "256");
  args.add_flag("epochs", "n", "streaming epochs to train", "2");
  args.add_flag("dir", "path", "keep the generated shard directory here (default: tmp, removed)");

  switch (args.parse(argc, argv)) {
    case ArgParser::Status::Help: std::fputs(args.usage().c_str(), stdout); return 0;
    case ArgParser::Status::Error:
      std::fprintf(stderr, "billion_edge_planner: %s\n%s", args.error().c_str(),
                   args.usage().c_str());
      return 1;
    case ArgParser::Status::Ok: break;
  }
  if (!args.is_set("run-proxy")) return plan();

  int scale = 0;
  if (!args.value_int("scale", scale) || scale < 10 || scale > 30) {
    return fail(args, "bad --scale '" + args.value("scale") + "' (expected 10..30)");
  }
  std::int64_t budget_mb = 0;
  if (!args.value_int64("rss-budget", budget_mb) || budget_mb < 1) {
    return fail(args, "bad --rss-budget '" + args.value("rss-budget") + "'");
  }
  int epochs = 0;
  if (!args.value_int("epochs", epochs) || epochs < 1) {
    return fail(args, "bad --epochs '" + args.value("epochs") + "'");
  }
  return run_proxy(scale, budget_mb, epochs, std::string(args.value("dir")));
}
