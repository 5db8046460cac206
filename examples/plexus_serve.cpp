// Serve a trained model from a checkpoint directory: load it, precompute the
// full-graph logits once, then answer node-classification queries through the
// concurrent admission queue + batcher (serve/inference_server.hpp).
//
//   ./build/examples/plexus_serve --checkpoint=/tmp/ckpt --queries=1000
//   ./build/examples/plexus_serve --checkpoint=/tmp/ckpt --node=42
//
// With --node, answers that single node and exits. Otherwise fires --queries
// requests with a Zipfian popularity mix (--zipf exponent), reports accuracy
// against the checkpoint's ground-truth labels, sustained QPS and the
// latency/queue counters.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/inference_server.hpp"
#include "serve/served_model.hpp"
#include "serve/zipf.hpp"
#include "util/arg_parser.hpp"
#include "util/simd.hpp"

int main(int argc, char** argv) {
  using plexus::util::ArgParser;
  ArgParser args("plexus_serve",
                 "Serve node-classification queries from a Plexus checkpoint directory.");
  args.add_flag("checkpoint", "dir", "checkpoint directory written by plexus_train");
  args.add_flag("queries", "n", "Zipfian queries to fire", "1000");
  args.add_flag("zipf", "s", "Zipf exponent of the request mix (0 = uniform)", "0.99");
  args.add_flag("seed", "n", "request-stream seed", "1");
  args.add_flag("node", "id", "answer one node (original graph id) and exit");
  args.add_flag("max-batch", "n", "requests the batcher answers at once", "64");
  args.add_flag("max-wait-us", "us", "batcher linger for a fuller batch", "200");
  args.add_flag("max-queue", "n", "admission bound; beyond it requests are rejected", "4096");

  switch (args.parse(argc, argv)) {
    case ArgParser::Status::Help: std::fputs(args.usage().c_str(), stdout); return 0;
    case ArgParser::Status::Error:
      std::fprintf(stderr, "plexus_serve: %s\n%s", args.error().c_str(), args.usage().c_str());
      return 1;
    case ArgParser::Status::Ok: break;
  }
  const std::string dir = args.value("checkpoint");
  if (dir.empty()) {
    std::fprintf(stderr, "plexus_serve: --checkpoint is required\n%s", args.usage().c_str());
    return 1;
  }
  std::int64_t queries = 0;
  if (!args.value_int64("queries", queries) || queries < 1) {
    std::fprintf(stderr, "plexus_serve: bad --queries '%s'\n%s", args.value("queries").c_str(),
                 args.usage().c_str());
    return 1;
  }
  double zipf = 0.0;
  if (!args.value_double("zipf", zipf) || zipf < 0.0) {
    std::fprintf(stderr, "plexus_serve: bad --zipf '%s'\n%s", args.value("zipf").c_str(),
                 args.usage().c_str());
    return 1;
  }
  std::int64_t seed = 1;
  plexus::serve::ServeOptions sopt;
  int max_batch = 0, max_queue = 0;
  std::int64_t max_wait_us = 0;
  if (!args.value_int64("seed", seed) || !args.value_int("max-batch", max_batch) ||
      max_batch < 1 || !args.value_int64("max-wait-us", max_wait_us) || max_wait_us < 0 ||
      !args.value_int("max-queue", max_queue) || max_queue < 1) {
    std::fprintf(stderr, "plexus_serve: bad serve option\n%s", args.usage().c_str());
    return 1;
  }
  sopt.max_batch = max_batch;
  sopt.max_wait_us = max_wait_us;
  sopt.max_queue = max_queue;

  const plexus::serve::ServedModel model(dir);
  std::printf("serving %s: %lld nodes, %lld classes, %d layers (logits cached), %s simd\n",
              dir.c_str(), static_cast<long long>(model.num_nodes()),
              static_cast<long long>(model.num_classes()), model.num_layers(),
              plexus::simd::target_name(plexus::simd::active_target()));

  if (args.is_set("node")) {
    std::int64_t node = 0;
    if (!args.value_int64("node", node) || node < 0 || node >= model.num_nodes()) {
      std::fprintf(stderr, "plexus_serve: bad --node '%s' (valid: 0..%lld)\n",
                   args.value("node").c_str(), static_cast<long long>(model.num_nodes() - 1));
      return 1;
    }
    const auto p = model.predict(node);
    std::printf("node %lld -> class %d (logit %.4f, ground truth %d)\n",
                static_cast<long long>(node), p.label, p.score, model.label(node));
    return 0;
  }

  plexus::serve::InferenceServer server(model, sopt);
  plexus::serve::ZipfSampler sampler(model.num_nodes(), zipf,
                                     static_cast<std::uint64_t>(seed));
  std::vector<std::int64_t> nodes;
  std::vector<std::future<plexus::serve::Prediction>> futures;
  nodes.reserve(static_cast<std::size_t>(queries));
  futures.reserve(static_cast<std::size_t>(queries));
  const auto t0 = std::chrono::steady_clock::now();
  std::int64_t rejected = 0;
  for (std::int64_t i = 0; i < queries; ++i) {
    const std::int64_t node = sampler.next();
    auto fut = server.submit(node);
    if (!fut.has_value()) {
      ++rejected;
      continue;
    }
    nodes.push_back(node);
    futures.push_back(std::move(*fut));
  }
  std::int64_t correct = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const auto p = futures[i].get();
    if (p.label == model.label(nodes[i])) ++correct;
  }
  const double secs = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  server.stop();

  const auto answered = static_cast<std::int64_t>(futures.size());
  std::printf("answered %lld/%lld queries in %.2f ms (%.0f QPS), accuracy %.3f\n",
              static_cast<long long>(answered), static_cast<long long>(queries), secs * 1e3,
              secs > 0 ? static_cast<double>(answered) / secs : 0.0,
              answered > 0 ? static_cast<double>(correct) / static_cast<double>(answered) : 0.0);
  if (rejected > 0) {
    std::printf("rejected %lld requests at admission (queue bound %d)\n",
                static_cast<long long>(rejected), sopt.max_queue);
  }
  server.stats_table().print();
  return 0;
}
