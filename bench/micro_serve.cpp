// Serving micro-benchmark: sustained QPS and latency percentiles of the
// serve/ inference stack (ServedModel cached logits + InferenceServer
// admission queue and batcher) under a Zipfian request mix.
//
//   ./build/bench/micro_serve                         # self-trains a checkpoint
//   ./build/bench/micro_serve --checkpoint=/tmp/ckpt  # reuse / create there
//   ./build/bench/micro_serve --out=micro_serve.json  # perf-smoke gate input
//
// Unlike micro_collectives/micro_kernels this harness does not need the
// Google Benchmark library — the measured quantities (wall-clock QPS,
// latency percentiles from the server's own counters) are produced by the
// serving stack itself, so the driver only has to run the load and write a
// google-benchmark-compatible JSON report that tools/perf_smoke_check.py
// already knows how to read.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "serve/inference_server.hpp"
#include "serve/served_model.hpp"
#include "serve/zipf.hpp"
#include "util/arg_parser.hpp"

namespace {

// Train a small proxy model and checkpoint it to `dir` (skipped when the
// directory already holds a model.plx, so repeated bench runs are cheap).
void ensure_checkpoint(const std::string& dir, std::int64_t nodes, int epochs) {
  if (std::FILE* f = std::fopen((dir + "/model.plx").c_str(), "rb")) {
    std::fclose(f);
    std::printf("reusing checkpoint %s\n", dir.c_str());
    return;
  }
  std::printf("training %d-epoch proxy checkpoint into %s ...\n", epochs, dir.c_str());
  const auto g = plexus::bench::bench_proxy("ogbn-products", nodes);
  plexus::core::TrainOptions opt;
  opt.grid = {2, 1, 2};
  opt.model.hidden_dims = {64, 64};
  opt.epochs = epochs;
  opt.checkpoint_dir = dir;
  plexus::core::train_plexus(g, opt);
}

struct ServeRun {
  double qps = 0.0;
  plexus::serve::ServeStats stats;
};

ServeRun run_load(const plexus::serve::ServedModel& model, std::int64_t queries, double zipf,
                  const plexus::serve::ServeOptions& sopt) {
  plexus::serve::InferenceServer server(model, sopt);
  plexus::serve::ZipfSampler sampler(model.num_nodes(), zipf, 0xbe7c5);
  std::vector<std::future<plexus::serve::Prediction>> futures;
  futures.reserve(static_cast<std::size_t>(queries));
  const auto t0 = std::chrono::steady_clock::now();
  for (std::int64_t i = 0; i < queries; ++i) {
    auto fut = server.submit(sampler.next());
    if (fut.has_value()) futures.push_back(std::move(*fut));
  }
  for (auto& f : futures) f.get();
  const double secs =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.stop();
  ServeRun run;
  run.stats = server.stats();
  run.qps = secs > 0 ? static_cast<double>(run.stats.served) / secs : 0.0;
  return run;
}

void write_report(const std::string& path, const ServeRun& run, std::int64_t queries,
                  double zipf) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "micro_serve: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  // Minimal google-benchmark JSON shape: one non-aggregate benchmark entry
  // whose extra fields act as counters, matching what perf_smoke_check.py's
  // load_counters() expects.
  std::fprintf(f, "{\n  \"benchmarks\": [\n    {\n");
  std::fprintf(f, "      \"name\": \"BM_ServeZipf\",\n");
  std::fprintf(f, "      \"run_type\": \"iteration\",\n");
  std::fprintf(f, "      \"queries\": %lld,\n", static_cast<long long>(queries));
  std::fprintf(f, "      \"zipf\": %.4f,\n", zipf);
  std::fprintf(f, "      \"served\": %lld,\n", static_cast<long long>(run.stats.served));
  std::fprintf(f, "      \"rejected\": %lld,\n", static_cast<long long>(run.stats.rejected));
  std::fprintf(f, "      \"batches\": %lld,\n", static_cast<long long>(run.stats.batches));
  std::fprintf(f, "      \"qps\": %.3f,\n", run.qps);
  std::fprintf(f, "      \"mean_us\": %.3f,\n", run.stats.mean_latency_us);
  std::fprintf(f, "      \"p50_us\": %.3f,\n", run.stats.p50_latency_us);
  std::fprintf(f, "      \"p99_us\": %.3f\n", run.stats.p99_latency_us);
  std::fprintf(f, "    }\n  ]\n}\n");
  std::fclose(f);
  std::printf("report written to %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  using plexus::util::ArgParser;
  ArgParser args("micro_serve", "Measure serving QPS and latency under a Zipfian query mix.");
  args.add_flag("checkpoint", "dir", "checkpoint directory (trained here if absent)",
                "micro_serve_ckpt");
  args.add_flag("nodes", "n", "proxy size when self-training", "600");
  args.add_flag("train-epochs", "n", "epochs when self-training", "3");
  args.add_flag("queries", "n", "Zipfian queries per measurement", "20000");
  args.add_flag("zipf", "s", "Zipf exponent of the request mix (0 = uniform)", "0.99");
  args.add_flag("max-batch", "n", "batcher batch bound", "64");
  args.add_flag("max-wait-us", "us", "batcher linger", "200");
  args.add_flag("out", "path", "write a google-benchmark JSON report here");

  switch (args.parse(argc, argv)) {
    case ArgParser::Status::Help: std::fputs(args.usage().c_str(), stdout); return 0;
    case ArgParser::Status::Error:
      std::fprintf(stderr, "micro_serve: %s\n%s", args.error().c_str(), args.usage().c_str());
      return 1;
    case ArgParser::Status::Ok: break;
  }
  std::int64_t nodes = 0, queries = 0, max_wait_us = 0;
  int train_epochs = 0, max_batch = 0;
  if (!args.value_int64("nodes", nodes) || nodes < 1 ||
      !args.value_int("train-epochs", train_epochs) || train_epochs < 1 ||
      !args.value_int64("queries", queries) || queries < 1 ||
      !args.value_int("max-batch", max_batch) || max_batch < 1 ||
      !args.value_int64("max-wait-us", max_wait_us) || max_wait_us < 0) {
    std::fprintf(stderr, "micro_serve: bad numeric option\n%s", args.usage().c_str());
    return 1;
  }
  double zipf = 0.0;
  if (!args.value_double("zipf", zipf) || zipf < 0.0) {
    std::fprintf(stderr, "micro_serve: bad --zipf '%s'\n%s", args.value("zipf").c_str(),
                 args.usage().c_str());
    return 1;
  }

  plexus::bench::banner("micro_serve: inference QPS / latency under Zipfian load",
                        "serving extension (not a paper figure)");
  const std::string dir = args.value("checkpoint");
  ensure_checkpoint(dir, nodes, train_epochs);

  const plexus::serve::ServedModel model(dir);
  std::printf("serving %lld nodes, %lld classes, %d layers\n",
              static_cast<long long>(model.num_nodes()),
              static_cast<long long>(model.num_classes()), model.num_layers());

  plexus::serve::ServeOptions sopt;
  sopt.max_batch = max_batch;
  sopt.max_wait_us = max_wait_us;
  // This is an open-loop throughput measurement: the submit loop runs far
  // ahead of the batcher, so admit the whole run instead of shedding load
  // (the admission bound is exercised by tests/test_serve.cpp, not here).
  sopt.max_queue = static_cast<int>(std::min<std::int64_t>(queries, 1 << 30));

  // Warm-up pass (thread pool spin-up, page-in), then the measured run.
  run_load(model, std::min<std::int64_t>(queries, 2000), zipf, sopt);
  const ServeRun run = run_load(model, queries, zipf, sopt);

  std::printf("\n%lld queries (zipf %.2f): %.0f QPS, latency mean %.1f us, p50 %.1f us, "
              "p99 %.1f us, %lld batches (max batch %lld, max queue depth %lld)\n",
              static_cast<long long>(run.stats.served), zipf, run.qps,
              run.stats.mean_latency_us, run.stats.p50_latency_us, run.stats.p99_latency_us,
              static_cast<long long>(run.stats.batches),
              static_cast<long long>(run.stats.max_batch_size),
              static_cast<long long>(run.stats.max_queue_depth));

  if (args.is_set("out")) write_report(args.value("out"), run, queries, zipf);
  return 0;
}
