// The repository benchmark's workload runner: one process runs one named
// workload end to end through the program's public entry points, checks the
// outputs, and prints every metric it measured, by name and unit, followed
// by one machine-readable RESULT line.
//
//   perfbench_workload --workload=train-resident --phase=train|serve --seed=1
//       --seconds=10 --trace=0 --checkpoint=DIR --tmp=DIR [--spans=FILE]
//       [--revision=ID]
//
// A run is two processes, as a deployment would be: the train phase sets
// up, trains and writes the checkpoint; the serve phase loads it into a
// fresh process and serves it. perfbench/run.py runs both and merges them.
//
// Workloads (perfbench/README.md gives the rationale and every metric):
//   train-resident  ogbn-products proxy, 32768 nodes, trained in memory
//   train-stream    ogbn-papers100M proxy, 65536 nodes, written by
//                   rmat_to_shards and trained from a 16 MB budgeted view
//   serve-zipf      a short checkpointed train in set-up, then open-loop
//                   Zipf(0.99) requests against InferenceServer::submit
// Every workload runs the whole user path (set up, train, checkpoint, load,
// serve); the workload decides which part dominates the measured time.
//
// --trace=1 alternates untraced trials with trials that run through timing
// decorators around the sim transport and the dataset view, records spans
// (written to --spans at exit) and replays rank 0's kernels; --trace=0
// measures with no decorator in the path.
#include <fcntl.h>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "comm/handle.hpp"
#include "core/checkpoint.hpp"
#include "core/dataset_view.hpp"
#include "core/preprocess.hpp"
#include "graph/datasets.hpp"
#include "graph/rmat_shards.hpp"
#include "harness.hpp"
#include "load.hpp"
#include "serve/inference_server.hpp"
#include "serve/served_model.hpp"
#include "serve/zipf.hpp"
#include "sim/cluster.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "util/arg_parser.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/timer.hpp"

namespace {

namespace fs = std::filesystem;
namespace pcore = plexus::core;
namespace ps = plexus::serve;
using perfbench::median;
using perfbench::percentile;

// ------------------------------------------------------------- workloads

struct Workload {
  const char* name;
  const char* dataset;
  std::int64_t nodes;
  bool stream;               ///< train from rmat_to_shards output through a budgeted view
  std::int64_t budget_mb;    ///< streaming block-cache budget
  int epochs;                ///< epochs per training trial
  int min_trials;            ///< trials always run (R: measured, S: in set-up)
  double acc_target;         ///< train accuracy the fixed epoch count must reach
  bool serve_focus;          ///< training only in set-up; the window is serving
};

constexpr Workload kWorkloads[] = {
    {"train-resident", "ogbn-products", 32768, false, 0, 10, 3, 0.20, false},
    {"train-stream", "ogbn-papers100M", 65536, true, 16, 8, 3, 0.10, false},
    {"serve-zipf", "ogbn-products", 16384, false, 0, 12, 3, 0.20, true},
};

constexpr int kSetups = 3;            ///< set-ups per run; setup_s is their median
constexpr int kTracePairs = 2;        ///< traced runs: untraced + traced trials each
constexpr int kWarmupEpochs = 1;      ///< skipped per trial: the first epoch pages memory in
constexpr double kFixedRate = 1e5;    ///< serve_p50/p99 rate, req/s
constexpr double kLatencyLimitUs = 1000.0;  ///< p99 limit of serve_max_qps
constexpr double kProbeSeconds = 0.4;  ///< per probed rate (4 slices, see load.hpp)
constexpr int kServeAttempts = 3;     ///< serve windows repeated while the host is noisy
constexpr double kQuietStealPct = 1.0;  ///< steal share above which a window is noisy
constexpr int kBisections = 3;
constexpr double kMaxProbeRate = 8e6;
constexpr double kMinProbeRate = kFixedRate / 16;
constexpr double kZipfExponent = 0.99;
constexpr std::size_t kRequestMix = std::size_t{1} << 20;

// ---------------------------------------------------------------- helpers

double vm_hwm_mb() {
  std::ifstream f("/proc/self/status");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

std::string read_first_line(const char* path) {
  std::ifstream f(path);
  std::string line;
  std::getline(f, line);
  return line;
}

/// (steal, total) jiffies of all CPUs from /proc/stat: the share a
/// hypervisor took from this machine, so runs slowed by co-tenants show.
std::pair<double, double> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  f >> cpu;
  double steal = 0.0, total = 0.0, v = 0.0;
  for (int i = 0; i < 10 && f >> v; ++i) {
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

std::string cpu_model() {
  std::ifstream f("/proc/cpuinfo");
  std::string line;
  while (std::getline(f, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto p = line.find(':');
      return p == std::string::npos ? line : line.substr(p + 2);
    }
  }
  return "unknown";
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

/// Bit pattern of a double, so the losses of two processes compare bitwise.
std::string hex_bits(double v) {
  std::uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof bits);
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(bits));
  return buf;
}

/// Removes the directories the run creates, on every exit path.
class ScratchDirs {
 public:
  explicit ScratchDirs(fs::path root) : root_(std::move(root)) {}
  ~ScratchDirs() {
    for (const auto& d : made_) {
      std::error_code ec;
      fs::remove_all(d, ec);
    }
  }
  ScratchDirs(const ScratchDirs&) = delete;
  ScratchDirs& operator=(const ScratchDirs&) = delete;

  /// A fresh, empty directory under the root.
  std::string make(const std::string& name) {
    const fs::path p = root_ / name;
    fs::remove_all(p);
    fs::create_directories(p);
    made_.push_back(p);
    return p.string();
  }
  void drop(const std::string& dir) { fs::remove_all(dir); }

 private:
  fs::path root_;
  std::vector<fs::path> made_;
};

// ----------------------------------------------------------------- report

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  void env(const std::string& key, const std::string& value) { env_.emplace_back(key, value); }
  void env(const std::string& key, double value) {
    std::ostringstream s;
    s << value;
    env_.emplace_back(key, s.str());
  }
  /// A correctness check; a failed one counts as a failed operation.
  void check(const std::string& name, bool ok) { checks_.emplace_back(name, ok); }
  void ops(std::int64_t attempted, std::int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  void losses(const std::vector<double>& l) { losses_ = l; }

  void print(const std::string& workload) const {
    std::int64_t attempted = attempted_ + static_cast<std::int64_t>(checks_.size());
    std::int64_t failed = failed_;
    bool correct = true;
    for (const auto& [name, ok] : checks_) {
      if (!ok) {
        ++failed;
        correct = false;
      }
    }
    const double fail_frac = attempted > 0 ? static_cast<double>(failed) / attempted : 1.0;
    std::printf("\n%-28s %16s  %s\n", "metric", "value", "unit");
    for (const auto& m : metrics_) {
      std::printf("%-28s %16.6g  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("%-28s %16.6g  %s\n", "fail_frac", fail_frac, "ratio");
    for (const auto& [name, ok] : checks_) {
      std::printf("check %-40s %s\n", name.c_str(), ok ? "ok" : "FAILED");
    }
    std::printf("RESULT {\"workload\": \"%s\", \"correct\": %s, \"attempted\": %lld, "
                "\"failed\": %lld, \"fail_frac\": %.17g, \"metrics\": {",
                workload.c_str(), correct ? "true" : "false", static_cast<long long>(attempted),
                static_cast<long long>(failed), fail_frac);
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                  metrics_[i].name.c_str(), metrics_[i].value, metrics_[i].unit.c_str());
    }
    std::printf("}, \"checks\": {");
    for (std::size_t i = 0; i < checks_.size(); ++i) {
      std::printf("%s\"%s\": %s", i ? ", " : "", checks_[i].first.c_str(),
                  checks_[i].second ? "true" : "false");
    }
    std::printf("}, \"losses\": [");
    for (std::size_t i = 0; i < losses_.size(); ++i) {
      std::printf("%s\"%s\"", i ? ", " : "", hex_bits(losses_[i]).c_str());
    }
    std::printf("], \"env\": {");
    for (std::size_t i = 0; i < env_.size(); ++i) {
      std::printf("%s\"%s\": \"%s\"", i ? ", " : "", env_[i].first.c_str(),
                  json_escape(env_[i].second).c_str());
    }
    std::printf("}}\n");
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> env_;
  std::vector<std::pair<std::string, bool>> checks_;
  std::vector<double> losses_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// ------------------------------------------------------------------- run

struct Args {
  const Workload* w = nullptr;
  bool serve = false;  ///< --phase=serve (else train)
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string checkpoint;
  std::string tmp;
  std::string spans;
  std::string revision = "unknown";
};

/// One set-up of the workload's dataset: an in-memory preprocessed proxy or
/// a shard directory behind a budgeted view.
struct Dataset {
  std::unique_ptr<pcore::PlexusDataset> ds;  // resident; the view points into it
  std::string dir;                         // streamed
  std::unique_ptr<pcore::DatasetView> view;
  double gen_s = 0.0;
  double prep_s = 0.0;
  std::int64_t shard_bytes = 0;
};

class Run {
 public:
  Run(const Args& a, ScratchDirs& scratch)
      : a_(a), w_(*a.w), scratch_(scratch), info_(plexus::graph::dataset_info(w_.dataset)) {
    if (a_.trace) {
      tracer_ = std::make_unique<perfbench::Tracer>();
      transport_ = std::make_unique<perfbench::TimedTransport>(
          plexus::comm::transport_for(plexus::comm::Backend::Sim), *tracer_);
    }
  }

  void run();

 private:
  std::uint64_t graph_seed() const { return plexus::util::hash_combine(a_.seed, 0x67a9); }
  std::uint64_t request_seed() const { return plexus::util::hash_combine(a_.seed, 0x5e7e); }
  pcore::TrainOptions train_options() const;
  Dataset set_up_dataset(int i);
  /// Run one training trial; traced trials go through the decorators.
  void trial(const Dataset& d, const std::string& checkpoint_dir, bool traced);
  void settle() const;
  void train_phase();
  void serve_phase();
  void training_metrics();
  void record_env();

  struct Trial {
    perfbench::TrialResult r;
    bool traced;
  };

  const Args& a_;
  const Workload& w_;
  ScratchDirs& scratch_;
  const plexus::graph::DatasetInfo& info_;
  Report rep_;
  std::unique_ptr<perfbench::Tracer> tracer_;
  std::unique_ptr<perfbench::TimedTransport> transport_;
  std::unique_ptr<perfbench::TimedView> timed_view_;  // the last traced view
  int timed_view_trials_ = 0;                         // traced trials it served

  // Collected measurements.
  std::vector<double> pre_train_s_;  // gen + preprocess per set-up
  std::vector<double> setup_s_;      // serve-zipf: whole set-ups
  std::vector<Trial> trials_;
  std::vector<double> ckpt_save_s_;
  double peak_rss_mb_ = 0.0;
  std::vector<double> gen_s_, prep_s_;
  std::int64_t shard_bytes_ = 0;
  plexus::io::BlockCache::Stats cache_{};
  std::string loadavg_before_;
  std::pair<double, double> ticks_before_;
};

pcore::TrainOptions Run::train_options() const {
  pcore::TrainOptions opt = perfbench::workload_train_options(w_.epochs);
  if (w_.stream) opt.rss_budget_bytes = w_.budget_mb << 20;
  return opt;
}

Dataset Run::set_up_dataset(int i) {
  Dataset d;
  const pcore::TrainOptions opt = train_options();
  plexus::util::WallTimer t;
  if (w_.stream) {
    auto spec = plexus::graph::proxy_shards_spec(info_, w_.nodes, graph_seed());
    spec.scheme = static_cast<int>(opt.scheme);
    spec.num_layers = opt.model.num_layers();
    spec.pad_multiple = opt.grid.size();
    spec.preprocess_seed = opt.preprocess_seed;
    spec.parts = opt.grid.size();
    spec.chunk_edges = std::int64_t{1} << 18;  // keep generation below the training budget
    d.dir = scratch_.make("shards-" + std::to_string(i));
    const auto res = plexus::graph::rmat_to_shards(d.dir, spec);
    d.gen_s = t.seconds();
    d.shard_bytes = res.bytes_written;
    t.reset();
    d.view = std::make_unique<pcore::ShardedDatasetView>(d.dir, opt.rss_budget_bytes);
    d.prep_s = t.seconds();
  } else {
    const auto g = plexus::graph::make_proxy(info_, w_.nodes, graph_seed());
    d.gen_s = t.seconds();
    t.reset();
    d.ds = std::make_unique<pcore::PlexusDataset>(pcore::preprocess_graph(
        g, opt.scheme, opt.model.num_layers(), opt.grid.size(), opt.preprocess_seed));
    d.view = std::make_unique<pcore::InMemoryDatasetView>(*d.ds);
    d.prep_s = t.seconds();
  }
  return d;
}

void Run::trial(const Dataset& d, const std::string& checkpoint_dir, bool traced) {
  perfbench::TrialOptions t;
  t.train = train_options();
  t.checkpoint_dir = checkpoint_dir;
  if (!traced) {
    trials_.push_back({perfbench::run_trial(*d.view, t), false});
    return;
  }
  if (timed_view_ == nullptr || &timed_view_->inner() != d.view.get()) {
    timed_view_ = std::make_unique<perfbench::TimedView>(*d.view, *tracer_);
    timed_view_trials_ = 0;
  }
  ++timed_view_trials_;
  t.tracer = tracer_.get();
  t.timed_transport = transport_.get();
  t.timed_view = timed_view_.get();
  trials_.push_back({perfbench::run_trial(*timed_view_, t), true});
}

void Run::settle() const {
  // Before each set-up and trial: return freed heap pages to the system, so
  // one trial's peak RSS does not stack on what earlier trials' threads left
  // in their malloc arenas, and flush what set-up and checkpointing wrote,
  // so background writeback does not land in a later measured phase.
  ::malloc_trim(0);
  const int fd = ::open(a_.checkpoint.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return;
  ::syncfs(fd);
  ::close(fd);
}

void Run::run() {
  loadavg_before_ = read_first_line("/proc/loadavg");
  ticks_before_ = cpu_ticks();
  std::printf("workload %s  phase %s  seed %llu  seconds %.1f  trace %d\n", w_.name,
              a_.serve ? "serve" : "train", static_cast<unsigned long long>(a_.seed),
              a_.seconds, a_.trace ? 1 : 0);
  if (a_.serve) {
    serve_phase();
  } else {
    train_phase();
  }
  record_env();
  if (tracer_ != nullptr && !a_.spans.empty()) {
    tracer_->write_chrome_trace(a_.spans);
    std::printf("wrote %zu spans to %s\n", tracer_->size(), a_.spans.c_str());
  }
  rep_.print(w_.name);
}

void Run::train_phase() {
  Dataset data;
  const std::string& ckpt = a_.checkpoint;
  fs::create_directories(ckpt);

  // ---- set-up, kSetups times; the last one is kept.
  for (int i = 0; i < kSetups; ++i) {
    if (data.view != nullptr) {
      if (timed_view_ != nullptr) timed_view_.reset();
      if (!data.dir.empty()) scratch_.drop(data.dir);
      data = Dataset{};
    }
    settle();
    perfbench::Tracer::Scope span(tracer_.get(), "setup");
    plexus::util::WallTimer setup_timer;
    {
      perfbench::Tracer::Scope gen(tracer_.get(), "graph.generate+core.preprocess");
      data = set_up_dataset(i);
    }
    gen_s_.push_back(data.gen_s);
    prep_s_.push_back(data.prep_s);
    shard_bytes_ = data.shard_bytes;
    pre_train_s_.push_back(data.gen_s + data.prep_s);
    if (w_.serve_focus) {
      // The serving workload's set-up is the whole train -> checkpoint ->
      // load chain. Traced runs trace set-ups 0 and 2, so the kept one is.
      trial(data, ckpt, a_.trace && i % 2 == 0);
      ckpt_save_s_.push_back(trials_.back().r.ckpt_save_s);
      perfbench::Tracer::Scope load(tracer_.get(), "serve.model_load");
      const ps::ServedModel served(ckpt);
      setup_s_.push_back(setup_timer.seconds());
    }
  }

  // ---- training window (train workloads): whole trials, the first one
  // checkpointing for the serve phase. Untraced runs go on while the time
  // lasts; traced runs alternate untraced and traced trials, kTracePairs each.
  if (!w_.serve_focus) {
    const double window = 0.6 * a_.seconds;
    plexus::util::WallTimer window_timer;
    for (int k = 0;; ++k) {
      const bool more = a_.trace ? k < 2 * kTracePairs
                                 : k < w_.min_trials || (window_timer.seconds() < window && k < 64);
      if (!more) break;
      settle();
      trial(data, k == 0 ? ckpt : std::string(), a_.trace && k % 2 == 1);
      if (k == 0) ckpt_save_s_.push_back(trials_.back().r.ckpt_save_s);
    }
    settle();
  }
  peak_rss_mb_ = vm_hwm_mb();
  if (const auto* sv = dynamic_cast<const pcore::ShardedDatasetView*>(data.view.get())) {
    cache_ = sv->cache_stats();
  }
  training_metrics();

  // ---- rank 0's kernels, replayed on the windows it requested.
  if (!a_.trace) return;
  perfbench::Tracer::Scope span(tracer_.get(), "replay");
  plexus::comm::World world(train_options().grid.size());
  const auto opt = train_options();
  pcore::Grid3D grid(world, opt.grid, *opt.machine);
  const auto r = perfbench::replay_rank0_kernels(*timed_view_, grid, trials_.back().r.padded_dims,
                                                 trials_.back().r.intra_rank_threads, 5);
  rep_.metric("sparse.spmm_gflop", r.spmm.gflop, "count");
  rep_.metric("sparse.spmm_ms", r.spmm.ms, "ms");
  rep_.metric("sparse.spmm_gflops", r.spmm.gflop / (r.spmm.ms * 1e-3), "GFLOP/s");
  rep_.metric("dense.gemm_gflop", r.gemm.gflop, "count");
  rep_.metric("dense.gemm_ms", r.gemm.ms, "ms");
  rep_.metric("dense.gemm_gflops", r.gemm.gflop / (r.gemm.ms * 1e-3), "GFLOP/s");
}

void Run::training_metrics() {
  const int E = w_.epochs;
  const auto& first = trials_.front().r;
  std::vector<double> losses;
  bool finite = true, decreasing = true, same = true, traced_same = true;
  std::int64_t bad_epochs = 0;
  for (const auto& s : first.epochs) losses.push_back(s.loss);
  for (std::size_t e = 0; e < losses.size(); ++e) {
    if (!std::isfinite(losses[e])) finite = false;
    if (e > 0 && !(losses[e] < losses[e - 1])) decreasing = false;
  }
  int target_epoch = -1;
  for (int e = 0; e < E && target_epoch < 0; ++e) {
    if (first.epochs[static_cast<std::size_t>(e)].train_accuracy >= w_.acc_target) target_epoch = e;
  }
  // Timings come from the untraced trials; traced ones only give the
  // overhead and the per-layer figures.
  std::vector<double> steady_ms, traced_ms, init_ms, first_epoch_ms, to_acc_s;
  perfbench::TimedTransport::Totals comm;
  int traced_trials = 0;
  for (const auto& [t, traced] : trials_) {
    for (int e = 0; e < E; ++e) {
      const auto& s = t.epochs[static_cast<std::size_t>(e)];
      const auto& s0 = first.epochs[static_cast<std::size_t>(e)];
      if (!std::isfinite(s.loss)) ++bad_epochs;
      const bool equal = std::memcmp(&s.loss, &s0.loss, sizeof s.loss) == 0 &&
                         std::memcmp(&s.epoch_seconds, &s0.epoch_seconds, sizeof s.epoch_seconds) == 0;
      (traced ? traced_same : same) = (traced ? traced_same : same) && equal;
      if (e >= kWarmupEpochs) {
        (traced ? traced_ms : steady_ms).push_back(t.epoch_wall_s[static_cast<std::size_t>(e)] * 1e3);
      }
    }
    if (traced) {
      ++traced_trials;
      for (std::size_t k = 0; k < perfbench::TimedTransport::kKinds; ++k) {
        comm.calls[k] += t.comm.calls[k];
        comm.ns[k] += t.comm.ns[k];
      }
      continue;
    }
    init_ms.push_back(t.model_init_s * 1e3);
    first_epoch_ms.push_back(t.epoch_wall_s.front() * 1e3);
    if (target_epoch >= 0) {
      double s = t.model_init_s;
      for (int e = 0; e <= target_epoch; ++e) s += t.epoch_wall_s[static_cast<std::size_t>(e)];
      to_acc_s.push_back(s);
    }
  }
  for (int e = 0; e < E; ++e) {
    const auto& s = first.epochs[static_cast<std::size_t>(e)];
    std::printf("epoch %2d  loss %.4f  acc %.3f  wall %.1f ms  model %.3f ms\n", e + 1, s.loss,
                s.train_accuracy, first.epoch_wall_s[static_cast<std::size_t>(e)] * 1e3,
                s.epoch_seconds * 1e3);
  }
  rep_.losses(losses);
  rep_.ops(static_cast<std::int64_t>(trials_.size()) * E, bad_epochs);
  rep_.check("losses_finite", finite);
  rep_.check("losses_decreasing", decreasing);
  rep_.check("trials_bitwise_identical", same);
  rep_.check("accuracy_target_reached", target_epoch >= 0);
  if (a_.trace) rep_.check("traced_losses_bitwise_equal_untraced", traced_same);

  // Steady-state epochs of trial 0: the modelled numbers are identical in
  // every trial (checked above).
  auto steady = [&](auto field) {
    std::vector<double> xs;
    for (int e = kWarmupEpochs; e < E; ++e) xs.push_back(field(first.epochs[static_cast<std::size_t>(e)]));
    return median(xs);
  };
  using ES = pcore::EpochStats;
  const std::int64_t guaranteed = static_cast<std::int64_t>(w_.min_trials) * (E - kWarmupEpochs);
  const int tail_p = perfbench::tail_percentile(guaranteed);
  const double pre = median(pre_train_s_);
  const double setup = w_.serve_focus ? median(setup_s_) : pre + median(init_ms) * 1e-3;

  rep_.metric("epoch_ms_p50", median(steady_ms), "ms");
  rep_.metric("epoch_ms_tail", percentile(steady_ms, tail_p), "ms");
  rep_.metric("time_to_acc_s", pre + (to_acc_s.empty() ? 0.0 : median(to_acc_s)), "s");
  rep_.metric("setup_s", setup, "s");
  rep_.metric("peak_rss_mb", peak_rss_mb_, "MB");
  rep_.metric("final_loss", losses.back(), "nats");
  rep_.metric("model_epoch_ms", steady([](const ES& s) { return s.epoch_seconds; }) * 1e3, "ms");
  rep_.env("epoch_samples", static_cast<double>(steady_ms.size()));
  rep_.env("epoch_tail_percentile", static_cast<double>(tail_p));
  rep_.env("trials", static_cast<double>(trials_.size()));
  rep_.env("accuracy_target", w_.acc_target);
  rep_.env("accuracy_target_epoch", static_cast<double>(target_epoch + 1));

  // Per-layer figures that need no decorator.
  rep_.metric("sim.spmm_ms", steady([](const ES& s) { return s.spmm_seconds; }) * 1e3, "ms");
  rep_.metric("sim.gemm_ms", steady([](const ES& s) { return s.gemm_seconds; }) * 1e3, "ms");
  rep_.metric("sim.elementwise_ms", steady([](const ES& s) { return s.elementwise_seconds; }) * 1e3,
              "ms");
  rep_.metric("comm.wire_mb", steady([](const ES& s) { return s.comm_wire_bytes; }) / 1e6, "MB");
  rep_.metric("comm.exposed_model_ms", steady([](const ES& s) { return s.comm_seconds; }) * 1e3,
              "ms");
  rep_.metric("comm.hidden_model_ms",
              steady([](const ES& s) { return s.hidden_comm_seconds; }) * 1e3, "ms");
  rep_.metric("loader.io_mb", steady([](const ES& s) { return s.io_bytes_streamed; }) / 1e6, "MB");
  const double lookups = static_cast<double>(cache_.hits + cache_.misses);
  const double all_epochs = static_cast<double>(trials_.size()) * E;
  rep_.metric("loader.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(cache_.hits) / lookups : 0.0, "ratio");
  rep_.metric("loader.evictions", static_cast<double>(cache_.evictions) / all_epochs, "count");
  rep_.metric("loader.peak_cache_mb", static_cast<double>(cache_.peak_resident_bytes) / 1e6, "MB");
  rep_.metric("graph.gen_s", median(gen_s_), "s");
  rep_.metric("graph.shard_mb", static_cast<double>(shard_bytes_) / 1e6, "MB");
  rep_.metric("core.preprocess_s", median(prep_s_), "s");
  rep_.metric("core.model_init_ms", median(init_ms), "ms");
  rep_.metric("core.first_epoch_ms", median(first_epoch_ms), "ms");
  rep_.metric("core.ckpt_save_ms", median(ckpt_save_s_) * 1e3, "ms");
  if (!a_.trace) return;

  rep_.metric("trace_overhead_pct", 100.0 * (median(traced_ms) / median(steady_ms) - 1.0), "%");
  // Per epoch and per rank: all ranks' transport calls over the traced epochs.
  const double per = static_cast<double>(traced_trials) * E * train_options().grid.size();
  using plexus::comm::Collective;
  rep_.metric("comm.move_ms", comm.total_ms() / per, "ms");
  rep_.metric("comm.move_calls", static_cast<double>(comm.total_calls()) / per, "count");
  rep_.metric("comm.allreduce_ms", comm.ms(Collective::AllReduce) / per, "ms");
  rep_.metric("comm.allgather_ms", comm.ms(Collective::AllGather) / per, "ms");
  rep_.metric("comm.reduce_scatter_ms", comm.ms(Collective::ReduceScatter) / per, "ms");
  // The kept view's decorator saw timed_view_trials_ trials.
  const auto block_ms = timed_view_->block_ms();
  const double view_trials = static_cast<double>(timed_view_trials_);
  rep_.metric("loader.block_ms_p50", percentile(block_ms, 50.0), "ms");
  rep_.metric("loader.block_ms_p99", percentile(block_ms, 99.0), "ms");
  rep_.metric("loader.block_calls", static_cast<double>(block_ms.size()) / (view_trials * E),
              "count");
  // Per trial: window loads a rank thread blocked on (model init on the
  // resident path) plus the streamed waits the epochs could not hide.
  double exposed = timed_view_->rank_wait_ms() / view_trials;
  for (const auto& s : trials_.back().r.epochs) exposed += s.io_exposed_seconds * 1e3;
  rep_.metric("loader.io_exposed_ms", exposed, "ms");
}

void Run::serve_phase() {
  // ---- read the checkpoint the train phase wrote, then load and serve it.
  {
    perfbench::Tracer::Scope span(tracer_.get(), "loader.checkpoint_load");
    plexus::util::WallTimer t;
    const auto state = pcore::load_model_state(a_.checkpoint);
    const auto ds = pcore::load_checkpoint_dataset(a_.checkpoint);
    rep_.metric("loader.ckpt_load_ms", t.milliseconds(), "ms");
    rep_.check("checkpoint_reads_back",
               state.epochs_completed == w_.epochs && ds.num_nodes > 0 &&
                   ds.num_classes == info_.num_classes);
  }
  std::unique_ptr<ps::ServedModel> served;
  {
    perfbench::Tracer::Scope span(tracer_.get(), "serve.model_load");
    plexus::util::WallTimer t;
    served = std::make_unique<ps::ServedModel>(a_.checkpoint);
    rep_.metric("serve.model_load_ms", t.milliseconds(), "ms");
  }
  const ps::ServedModel& model = *served;
  const auto expected = perfbench::expected_labels(model);
  std::vector<std::int64_t> nodes(kRequestMix);
  ps::ZipfSampler zipf(model.num_nodes(), kZipfExponent, request_seed());
  for (auto& v : nodes) v = zipf.next();
  ps::ServeOptions sopt;  // the server's defaults
  using LR = perfbench::LoadResult;
  // One load window, with the share of CPU time the hypervisor took from the
  // machine while it ran (the co-tenant pauses a tail latency cannot hide).
  int noisy_windows = 0;
  auto window = [&](const ps::ServeOptions& o, double rate, double seconds, double* steal_pct) {
    const auto [s0, t0] = cpu_ticks();
    LR p = perfbench::run_open_loop(model, o, nodes, expected, rate, seconds, tracer_.get());
    const auto [s1, t1] = cpu_ticks();
    *steal_pct = t1 > t0 ? 100.0 * (s1 - s0) / (t1 - t0) : 0.0;
    if (*steal_pct > kQuietStealPct) ++noisy_windows;
    std::printf("load %10.0f req/s: %s  p50 %8.1f us  p99 %9.1f us  late p99 %9.1f us  "
                "backlog %lld  rejected %lld  achieved %.0f req/s  steal %.2f%%\n",
                p.rate, p.met(kLatencyLimitUs, sopt.max_batch) ? "met " : "MISS",
                p.latency_p50_us, p.latency_p99_us, p.late_p99_us,
                static_cast<long long>(p.backlog_at_end), static_cast<long long>(p.rejected),
                p.achieved_qps, *steal_pct);
    return p;
  };

  // Fixed rate: one continuous window, measured again (kServeAttempts at
  // most) while the hypervisor was taking more than kQuietStealPct; the
  // quietest attempt is kept.
  LR fixed;
  {
    perfbench::Tracer::Scope span(tracer_.get(), "serve.fixed_rate");
    double least = 1e9;
    for (int attempt = 0; attempt < kServeAttempts && least > kQuietStealPct; ++attempt) {
      double steal = 0.0;
      LR p = window(sopt, kFixedRate, (w_.serve_focus ? 0.4 : 0.25) * a_.seconds, &steal);
      if (steal < least) {
        least = steal;
        fixed = std::move(p);
      }
    }
  }
  rep_.ops(fixed.sent, fixed.rejected + fixed.errors + fixed.wrong);
  rep_.check("serve_labels_match_logits_argmax", fixed.wrong == 0 && fixed.errors == 0);
  rep_.check("serve_zero_rejects_at_fixed_rate", fixed.rejected == 0);
  rep_.metric("serve_p50_us", fixed.latency_p50_us, "us");
  rep_.metric("serve_p99_us", fixed.latency_p99_us, "us");

  // Highest sustained rate: double from the fixed rate until a rate is not
  // met (or halve until one is), then bisect the bracket geometrically. A
  // rate whose generator ran later than the limit is not met (LoadResult::met
  // checks it), so the search never measures the generator. Probes admit
  // every request (overload shows as a growing backlog, not as rejects). A
  // missed rate is tried again, and a miss ends the search only once a
  // second one happens on a quiet machine, so a co-tenant's pauses do not
  // end it; a rate the server cannot sustain misses on a quiet machine too.
  perfbench::Tracer::Scope span(tracer_.get(), "serve.max_qps_search");
  ps::ServeOptions probe_opt = sopt;
  probe_opt.max_queue = 1 << 30;
  double best = 0.0;  // achieved rate of the highest met probe
  auto probe = [&](double rate) {
    for (int attempt = 0; attempt < kServeAttempts + 1; ++attempt) {
      double steal = 0.0;
      const LR p = window(probe_opt, rate, kProbeSeconds, &steal);
      if (p.met(kLatencyLimitUs, sopt.max_batch)) {
        best = p.achieved_qps;  // the search only moves up from a met rate
        return true;
      }
      if (attempt > 0 && steal <= kQuietStealPct) return false;
    }
    return false;
  };
  double lo = 0.0, hi = 0.0;
  if (fixed.met(kLatencyLimitUs, sopt.max_batch)) {
    lo = kFixedRate;
    best = fixed.achieved_qps;
    for (double r = 2 * kFixedRate; r <= kMaxProbeRate && hi == 0.0; r *= 2) {
      (probe(r) ? lo : hi) = r;
    }
  } else {
    hi = kFixedRate;
    for (double r = kFixedRate / 2; r >= kMinProbeRate && lo == 0.0; r /= 2) {
      (probe(r) ? lo : hi) = r;
    }
  }
  for (int k = 0; k < kBisections && lo > 0.0 && hi > 0.0; ++k) {
    const double mid = std::sqrt(lo * hi);
    (probe(mid) ? lo : hi) = mid;
  }
  // No rate met at all only on a host stalled throughout; the metric then
  // reads the lowest rate tried, and the env records it.
  rep_.metric("serve_max_qps", best > 0.0 ? best : kMinProbeRate, "req/s");
  rep_.env("serve_max_qps_found", best > 0.0 ? "yes" : "no");

  rep_.metric("serve.submit_us_p50", fixed.submit_p50_us, "us");
  rep_.metric("serve.server_p50_us", fixed.server.p50_latency_us, "us");
  rep_.metric("serve.server_p99_us", fixed.server.p99_latency_us, "us");
  rep_.metric("serve.mean_batch",
              fixed.server.batches > 0 ? static_cast<double>(fixed.server.served) /
                                             static_cast<double>(fixed.server.batches)
                                       : 0.0,
              "count");
  rep_.metric("serve.max_queue_depth", static_cast<double>(fixed.server.max_queue_depth),
              "count");
  rep_.metric("serve.gen_late_us_p99", fixed.late_p99_us, "us");
  rep_.env("serve_fixed_rate", kFixedRate);
  rep_.env("serve_noisy_windows", static_cast<double>(noisy_windows));
  rep_.env("serve_latency_limit_us", kLatencyLimitUs);
}

void Run::record_env() {
  const auto opt = train_options();
  rep_.env("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  rep_.env("cpu_model", cpu_model());
  rep_.env("simd", plexus::simd::target_name(plexus::simd::active_target()));
  rep_.env("intra_rank_threads", static_cast<double>(plexus::sim::resolve_intra_rank_threads(
                                      opt.intra_rank_threads, opt.grid.size())));
  rep_.env("comm_threads", static_cast<double>(plexus::comm::comm_thread_budget()));
  rep_.env("grid", std::to_string(opt.grid.x) + "x" + std::to_string(opt.grid.y) + "x" +
                       std::to_string(opt.grid.z));
  rep_.env("backend", plexus::comm::backend_name(opt.backend));
  rep_.env("wire", plexus::comm::wire_precision_name(opt.wire));
  rep_.env("aggregation", pcore::aggregation_name(*opt.aggregation));
  rep_.env("prefetch_depth", opt.prefetch_depth < 0 ? std::string("adaptive")
                                                      : std::to_string(opt.prefetch_depth));
  rep_.env("rss_budget_mb", w_.stream ? std::to_string(w_.budget_mb) : std::string("none"));
  rep_.env("revision", a_.revision);
  rep_.env("loadavg_before", loadavg_before_);
  rep_.env("loadavg_after", read_first_line("/proc/loadavg"));
  const auto [steal, total] = cpu_ticks();
  rep_.env("steal_pct", total > ticks_before_.second
                            ? 100.0 * (steal - ticks_before_.first) /
                                  (total - ticks_before_.second)
                            : 0.0);
}

}  // namespace

int main(int argc, char** argv) {
  using plexus::util::ArgParser;
  ArgParser args("perfbench_workload", "Run one benchmark workload end to end.");
  args.add_flag("workload", "name", "train-resident | train-stream | serve-zipf");
  args.add_flag("phase", "name",
                "train: set up, train and write --checkpoint; serve: load it and serve", "train");
  args.add_flag("checkpoint", "dir", "checkpoint directory the phases hand over");
  args.add_flag("seed", "n", "input seed", "1");
  args.add_flag("seconds", "s", "measured time", "10");
  args.add_flag("trace", "0|1", "wrap the seams in timing decorators and record spans", "0");
  args.add_flag("tmp", "dir", "scratch directory for shards and checkpoints");
  args.add_flag("spans", "file", "traced runs: write the spans here at exit");
  args.add_flag("revision", "id", "source revision to record", "unknown");
  if (args.parse(argc, argv) != ArgParser::Status::Ok) {
    std::fprintf(stderr, "perfbench_workload: %s\n%s", args.error().c_str(), args.usage().c_str());
    return 2;
  }
  Args a;
  for (const auto& w : kWorkloads) {
    if (args.value("workload") == w.name) a.w = &w;
  }
  std::int64_t seed = 0;
  int trace = 0;
  if (a.w == nullptr || !args.value_int64("seed", seed) || seed < 0 ||
      !args.value_int("trace", trace) || (trace != 0 && trace != 1) || !args.is_set("tmp") ||
      !args.is_set("checkpoint") ||
      (args.value("phase") != "train" && args.value("phase") != "serve")) {
    std::fprintf(stderr, "perfbench_workload: bad arguments\n%s", args.usage().c_str());
    return 2;
  }
  try {
    a.seconds = std::stod(args.value("seconds"));
  } catch (...) {
    a.seconds = -1.0;
  }
  if (!(a.seconds > 0.0)) {
    std::fprintf(stderr, "perfbench_workload: bad --seconds\n");
    return 2;
  }
  a.seed = static_cast<std::uint64_t>(seed);
  a.trace = trace == 1;
  a.tmp = args.value("tmp");
  a.serve = args.value("phase") == "serve";
  a.checkpoint = args.value("checkpoint");
  a.spans = args.value("spans");
  a.revision = args.value("revision");
  try {
    ScratchDirs scratch(a.tmp);
    Run run(a, scratch);
    run.run();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_workload: %s\n", e.what());
    return 1;
  }
  return 0;
}
