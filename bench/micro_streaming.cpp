// Streaming-epoch micro-benchmark: bytes streamed, exposed IO time and peak
// block-cache residency of the out-of-core training path (ROADMAP item 2).
//
//   ./build/bench/micro_streaming                       # scale-16 proxy, 8 MB budget
//   ./build/bench/micro_streaming --scale=18 --rss-budget=32
//   ./build/bench/micro_streaming --out=micro_streaming.json  # perf-smoke gate input
//
// The harness generates an RMAT proxy straight to sharded block files
// (graph::rmat_to_shards — the graph never lives in memory), then trains the
// same streaming epochs three times: prefetch_depth=1 (every block load
// waited on immediately: the blocking-IO baseline), a fixed deep prefetch
// (loads posted ahead of the SpMM through the software-pipeline deque — the
// gated configuration), and the perf-model adaptive depth (informational:
// the model prices IO at raw disk bandwidth, so on a page-cached tmpdir it
// legitimately picks a shallow depth). Losses are bitwise-identical by
// contract; what changes is the IO stall (EpochStats::io_exposed_seconds).
// Like micro_serve this needs no Google Benchmark — the counters come from
// the trainer and the block cache, and the driver writes a
// google-benchmark-shaped JSON that tools/perf_smoke_check.py gates with
// --streaming-report.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/dataset_view.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/rmat_shards.hpp"
#include "loader/block_cache.hpp"
#include "util/arg_parser.hpp"

namespace {

struct StreamRun {
  double wall_s = 0.0;         ///< wall-clock time of the whole training run
  double io_exposed_s = 0.0;   ///< summed EpochStats::io_exposed_seconds
  double bytes_streamed = 0.0; ///< summed EpochStats::io_bytes_streamed
  plexus::io::BlockCache::Stats cache;
  std::vector<double> losses;
};

StreamRun run_streaming(const std::string& dir, const plexus::core::TrainOptions& base,
                        int prefetch_depth, std::int64_t budget_bytes) {
  // A named budgeted view (rather than train_plexus_streaming) keeps the
  // cache stats readable after the run.
  const plexus::core::ShardedDatasetView view(dir, budget_bytes);
  plexus::core::TrainOptions opt = base;
  opt.prefetch_depth = prefetch_depth;
  opt.rss_budget_bytes = budget_bytes;
  const auto t0 = std::chrono::steady_clock::now();
  const auto result = plexus::core::train_plexus(view, opt);
  StreamRun run;
  run.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  for (const auto& e : result.epochs) {
    run.io_exposed_s += e.io_exposed_seconds;
    run.bytes_streamed += e.io_bytes_streamed;
    run.losses.push_back(e.loss);
  }
  run.cache = view.cache_stats();
  return run;
}

void write_report(const std::string& path, int scale, std::int64_t budget_mb, int depth,
                  const StreamRun& blocking, const StreamRun& pipelined,
                  const StreamRun& adaptive, bool losses_equal) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_streaming: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"benchmarks\": [\n    {\n");
  std::fprintf(f, "      \"name\": \"BM_StreamingEpochs\",\n");
  std::fprintf(f, "      \"run_type\": \"iteration\",\n");
  std::fprintf(f, "      \"scale\": %d,\n", scale);
  std::fprintf(f, "      \"budget_mb\": %lld,\n", static_cast<long long>(budget_mb));
  std::fprintf(f, "      \"prefetch_depth\": %d,\n", depth);
  std::fprintf(f, "      \"bytes_streamed_mb\": %.3f,\n", pipelined.bytes_streamed / 1e6);
  // peak_cache_mb and budget_mb are both MiB (the budget is budget_mb << 20
  // bytes), so the gate's peak <= budget compare is unit-consistent.
  std::fprintf(f, "      \"peak_cache_mb\": %.3f,\n",
               static_cast<double>(pipelined.cache.peak_resident_bytes) / (1 << 20));
  std::fprintf(f, "      \"evictions\": %lld,\n",
               static_cast<long long>(pipelined.cache.evictions));
  std::fprintf(f, "      \"io_exposed_s_blocking\": %.6f,\n", blocking.io_exposed_s);
  std::fprintf(f, "      \"io_exposed_s_pipelined\": %.6f,\n", pipelined.io_exposed_s);
  std::fprintf(f, "      \"io_exposed_s_adaptive\": %.6f,\n", adaptive.io_exposed_s);
  std::fprintf(f, "      \"wall_s_blocking\": %.6f,\n", blocking.wall_s);
  std::fprintf(f, "      \"wall_s_pipelined\": %.6f,\n", pipelined.wall_s);
  std::fprintf(f, "      \"wall_s_adaptive\": %.6f,\n", adaptive.wall_s);
  std::fprintf(f, "      \"losses_bitwise_equal\": %d\n", losses_equal ? 1 : 0);
  std::fprintf(f, "    }\n  ]\n}\n");
  std::fclose(f);
  std::printf("report written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using plexus::util::ArgParser;
  ArgParser args("micro_streaming",
                 "Measure streamed bytes, exposed IO and cache residency of out-of-core epochs.");
  args.add_flag("scale", "n", "proxy scale: log2(#nodes); PLEXUS_BENCH_RMAT_SCALE overrides",
                "16");
  // The budget must cover the ranks' concurrently pinned in-flight blocks
  // (pins are never evictable): 4 ranks x the largest skewed RMAT block. 16 MB
  // clears that with room while still forcing constant eviction against the
  // ~47 MB a scale-16 proxy puts on disk.
  args.add_flag("rss-budget", "MB", "streaming block-cache budget in MB", "16");
  args.add_flag("prefetch-depth", "n", "fixed prefetch depth for the pipelined run", "4");
  args.add_flag("repeats", "n", "measured runs per configuration (best exposed IO kept)", "2");
  args.add_flag("epochs", "n", "epochs per measured run", "2");
  args.add_flag("out", "path", "write a google-benchmark JSON report here");

  switch (args.parse(argc, argv)) {
    case ArgParser::Status::Help: std::fputs(args.usage().c_str(), stdout); return 0;
    case ArgParser::Status::Error:
      std::fprintf(stderr, "micro_streaming: %s\n%s", args.error().c_str(),
                   args.usage().c_str());
      return 1;
    case ArgParser::Status::Ok: break;
  }
  int flag_scale = 0, epochs = 0, depth = 0, repeats = 0;
  std::int64_t budget_mb = 0;
  if (!args.value_int("scale", flag_scale) || flag_scale < 10 || flag_scale > 26 ||
      !args.value_int64("rss-budget", budget_mb) || budget_mb < 1 ||
      !args.value_int("prefetch-depth", depth) || depth < 2 ||
      !args.value_int("repeats", repeats) || repeats < 1 ||
      !args.value_int("epochs", epochs) || epochs < 1) {
    std::fprintf(stderr, "micro_streaming: bad numeric option\n%s", args.usage().c_str());
    return 1;
  }
  const int scale = plexus::bench::rmat_scale(flag_scale);
  const std::int64_t budget = budget_mb << 20;

  plexus::bench::banner("micro_streaming: out-of-core epochs under an RSS budget",
                        "section 5.4 / ROADMAP item 2 (streaming extension, not a paper figure)");

  plexus::core::TrainOptions opt;
  opt.grid = {2, 2, 1};
  opt.model.hidden_dims = {64};
  opt.model.options.agg_row_blocks = 8;
  opt.epochs = epochs;

  auto spec = plexus::graph::proxy_shards_spec(
      plexus::graph::dataset_info("ogbn-papers100M"), std::int64_t{1} << scale, /*seed=*/1);
  spec.scheme = static_cast<int>(opt.scheme);
  spec.num_layers = opt.model.num_layers();
  spec.pad_multiple = opt.grid.size();
  spec.preprocess_seed = opt.preprocess_seed;
  spec.parts = opt.grid.size();

  const auto dir = (std::filesystem::temp_directory_path() /
                    ("plexus_micro_streaming_scale" + std::to_string(scale)))
                       .string();
  std::filesystem::remove_all(dir);
  std::printf("generating scale-%d proxy straight to shards in %s ...\n", scale, dir.c_str());
  const auto gen = plexus::graph::rmat_to_shards(dir, spec);
  std::printf("  %lld edges, %lld nnz per version, %.1f MB on disk\n",
              static_cast<long long>(gen.num_edges), static_cast<long long>(gen.adjacency_nnz),
              static_cast<double>(gen.bytes_written) / 1e6);

  // Warm-up (page cache, thread pools), then the measured runs. All runs see
  // identical file-system state, so the only difference is the prefetch
  // schedule. Exposed IO is wall-clock and scheduler-noisy, so each
  // configuration runs `repeats` times and the best (least exposed IO) run is
  // kept — the standard benchmarking move for a lower-bound-style metric.
  run_streaming(dir, opt, /*prefetch_depth=*/1, budget);
  auto best_of = [&](int pf) {
    StreamRun best = run_streaming(dir, opt, pf, budget);
    for (int r = 1; r < repeats; ++r) {
      StreamRun next = run_streaming(dir, opt, pf, budget);
      if (next.io_exposed_s < best.io_exposed_s) best = next;
    }
    return best;
  };
  const StreamRun blocking = best_of(/*prefetch_depth=*/1);
  const StreamRun pipelined = best_of(depth);
  const StreamRun adaptive = best_of(/*prefetch_depth=*/0);
  const bool losses_equal =
      blocking.losses == pipelined.losses && blocking.losses == adaptive.losses;

  std::printf("\n%d epochs under a %lld MB budget (adjacency %.1f MB on disk):\n", epochs,
              static_cast<long long>(budget_mb), static_cast<double>(gen.bytes_written) / 1e6);
  std::printf("  blocking IO (depth 1): %.1f ms wall, %.1f ms exposed IO, %.1f MB streamed\n",
              blocking.wall_s * 1e3, blocking.io_exposed_s * 1e3, blocking.bytes_streamed / 1e6);
  std::printf("  pipelined (depth %d):   %.1f ms wall, %.1f ms exposed IO, %.1f MB streamed\n",
              depth, pipelined.wall_s * 1e3, pipelined.io_exposed_s * 1e3,
              pipelined.bytes_streamed / 1e6);
  std::printf("  adaptive prefetch:     %.1f ms wall, %.1f ms exposed IO, %.1f MB streamed\n",
              adaptive.wall_s * 1e3, adaptive.io_exposed_s * 1e3, adaptive.bytes_streamed / 1e6);
  std::printf("  cache peak %.2f MiB / budget %lld MiB, %lld evictions; losses %s\n",
              static_cast<double>(pipelined.cache.peak_resident_bytes) / (1 << 20),
              static_cast<long long>(budget_mb),
              static_cast<long long>(pipelined.cache.evictions),
              losses_equal ? "bitwise-equal" : "DIVERGED");

  if (args.is_set("out")) {
    write_report(args.value("out"), scale, budget_mb, depth, blocking, pipelined, adaptive,
                 losses_equal);
  }
  return losses_equal ? 0 : 1;
}
