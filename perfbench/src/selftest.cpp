// Harness self-check: the benchmark must time the program's own training
// path, not a copy that has drifted from it. On small graphs this checks,
// bitwise, that
//   1. the harness trial reproduces core::train_plexus (resident) and
//      core::train_plexus_streaming (budgeted shard view): losses and every
//      simulated EpochStats field;
//   2. the harness checkpoint step writes the same model.plx as the
//      trainer's checkpointing;
//   3. the timing decorators are pass-through: a traced trial equals an
//      untraced one.
//
//   perfbench_selftest [scratch-dir]     # exit 0 = all checks passed
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/dataset_view.hpp"
#include "core/preprocess.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "graph/rmat_shards.hpp"
#include "harness.hpp"
#include "trace.hpp"

namespace {

namespace fs = std::filesystem;
namespace pcore = plexus::core;

int g_failures = 0;

void expect(bool ok, const std::string& what) {
  std::printf("%-72s %s\n", what.c_str(), ok ? "ok" : "FAILED");
  if (!ok) ++g_failures;
}

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

/// Loss, accuracy and every simulated field; the two io fields are wall
/// clock and cache-state dependent, so they are left out.
bool same_epochs(const std::vector<pcore::EpochStats>& a,
                 const std::vector<pcore::EpochStats>& b) {
  if (a.size() != b.size() || a.empty()) return false;
  for (std::size_t e = 0; e < a.size(); ++e) {
    const auto& x = a[e];
    const auto& y = b[e];
    if (!same_bits(x.loss, y.loss) || !same_bits(x.train_accuracy, y.train_accuracy) ||
        !same_bits(x.epoch_seconds, y.epoch_seconds) ||
        !same_bits(x.spmm_seconds, y.spmm_seconds) ||
        !same_bits(x.gemm_seconds, y.gemm_seconds) ||
        !same_bits(x.elementwise_seconds, y.elementwise_seconds) ||
        !same_bits(x.comm_seconds, y.comm_seconds) ||
        !same_bits(x.hidden_comm_seconds, y.hidden_comm_seconds) ||
        !same_bits(x.comm_wire_bytes, y.comm_wire_bytes)) {
      return false;
    }
  }
  return true;
}

std::vector<char> file_bytes(const fs::path& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

perfbench::TrialResult traced_trial(const pcore::DatasetView& view,
                                    perfbench::TrialOptions t) {
  perfbench::Tracer tracer;
  perfbench::TimedTransport transport(plexus::comm::transport_for(t.train.backend), tracer);
  perfbench::TimedView timed(view, tracer);
  t.tracer = &tracer;
  t.timed_transport = &transport;
  t.timed_view = &timed;
  auto r = perfbench::run_trial(timed, t);
  expect(tracer.size() > 0 && !timed.block_ms().empty() && r.comm.total_calls() > 0,
         "  traced trial recorded spans, window loads and transport calls");
  return r;
}

void resident_checks(const fs::path& scratch) {
  const auto g = plexus::graph::make_proxy(plexus::graph::dataset_info("ogbn-products"), 2048, 3);
  perfbench::TrialOptions t;
  t.train = perfbench::workload_train_options(4);
  const auto ds = pcore::preprocess_graph(g, t.train.scheme, t.train.model.num_layers(),
                                          t.train.grid.size(), t.train.preprocess_seed);
  const pcore::InMemoryDatasetView view(ds);

  const fs::path ours = scratch / "ckpt-harness";
  const fs::path theirs = scratch / "ckpt-trainer";
  t.checkpoint_dir = ours.string();
  const auto harness = perfbench::run_trial(view, t);
  pcore::TrainOptions opt = t.train;
  opt.checkpoint_dir = theirs.string();
  const auto trainer = pcore::train_plexus(view, opt);
  expect(same_epochs(harness.epochs, trainer.epochs),
         "resident: harness trial == core::train_plexus (losses + sim stats)");
  const auto a = file_bytes(ours / "model.plx");
  expect(!a.empty() && a == file_bytes(theirs / "model.plx"),
         "resident: harness checkpoint == trainer checkpoint (model.plx bytes)");

  t.checkpoint_dir.clear();
  const auto traced = traced_trial(view, t);
  expect(same_epochs(harness.epochs, traced.epochs),
         "resident: traced trial == untraced trial (decorators pass through)");
}

void streaming_checks(const fs::path& scratch) {
  perfbench::TrialOptions t;
  t.train = perfbench::workload_train_options(3);
  t.train.rss_budget_bytes = std::int64_t{1} << 20;
  auto spec = plexus::graph::proxy_shards_spec(
      plexus::graph::dataset_info("ogbn-papers100M"), 4096, 5);
  spec.scheme = static_cast<int>(t.train.scheme);
  spec.num_layers = t.train.model.num_layers();
  spec.pad_multiple = t.train.grid.size();
  spec.preprocess_seed = t.train.preprocess_seed;
  spec.parts = t.train.grid.size();
  const fs::path dir = scratch / "shards";
  plexus::graph::rmat_to_shards(dir.string(), spec);

  const auto trainer = pcore::train_plexus_streaming(dir.string(), t.train);
  const pcore::ShardedDatasetView view(dir.string(), t.train.rss_budget_bytes);
  const auto harness = perfbench::run_trial(view, t);
  expect(same_epochs(harness.epochs, trainer.epochs),
         "streaming: harness trial == core::train_plexus_streaming (losses + sim stats)");
  const auto traced = traced_trial(view, t);
  expect(same_epochs(harness.epochs, traced.epochs),
         "streaming: traced trial == untraced trial (decorators pass through)");
}

}  // namespace

int main(int argc, char** argv) {
  const fs::path scratch =
      fs::absolute(argc > 1 ? fs::path(argv[1]) : fs::path("perfbench_selftest_tmp"));
  fs::remove_all(scratch);
  fs::create_directories(scratch);
  try {
    resident_checks(scratch);
    streaming_checks(scratch);
  } catch (const std::exception& e) {
    std::printf("exception: %s\n", e.what());
    ++g_failures;
  }
  std::error_code ec;
  fs::remove_all(scratch, ec);
  std::printf("%s\n", g_failures == 0 ? "selftest passed" : "selftest FAILED");
  return g_failures == 0 ? 0 : 1;
}
