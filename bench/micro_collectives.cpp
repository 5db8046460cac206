// google-benchmark micro-suite for the shared-memory collectives: wall-time
// throughput of the communication layer itself, plus the simulated-clock
// pipelined-vs-blocking sweep that CI's perf-smoke job gates on (the
// `sim_*` counters are deterministic: they come from post-time clocks and
// the ring cost model, not from wall time).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdlib>
#include <deque>
#include <span>
#include <vector>

#include "bench_common.hpp"
#include "comm/communicator.hpp"
#include "comm/handle.hpp"
#include "comm/world.hpp"
#include "core/trainer.hpp"
#include "dense/matrix.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sim/cluster.hpp"
#include "sim/kernels.hpp"
#include "sim/machine.hpp"
#include "sparse/csr.hpp"
#include "sparse/partition2d.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"

namespace {

void BM_AllReduce(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    plexus::comm::World world(ranks);
    plexus::sim::run_cluster(
        world, plexus::sim::Machine::test_machine(),
        [&](plexus::sim::RankContext& ctx) {
          std::vector<float> buf(elems, 1.0f);
          for (int i = 0; i < 8; ++i) {
            ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
          }
          benchmark::DoNotOptimize(buf[0]);
        },
        /*enable_clock=*/false);
  }
  state.SetBytesProcessed(state.iterations() * 8 * static_cast<std::int64_t>(elems) * 4 * ranks);
}
BENCHMARK(BM_AllReduce)->Args({4, 1 << 14})->Args({8, 1 << 14})->Unit(benchmark::kMillisecond);

// Same op stream with the comm engine disabled: isolates the post/wait
// thread-handoff overhead of the nonblocking path.
void BM_AllReduceInlineMode(benchmark::State& state) {
  plexus::comm::ScopedCommThreads scoped(0);
  const int ranks = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    plexus::comm::World world(ranks);
    plexus::sim::run_cluster(
        world, plexus::sim::Machine::test_machine(),
        [&](plexus::sim::RankContext& ctx) {
          std::vector<float> buf(elems, 1.0f);
          for (int i = 0; i < 8; ++i) {
            ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
          }
          benchmark::DoNotOptimize(buf[0]);
        },
        /*enable_clock=*/false);
  }
  state.SetBytesProcessed(state.iterations() * 8 * static_cast<std::int64_t>(elems) * 4 * ranks);
}
BENCHMARK(BM_AllReduceInlineMode)->Args({4, 1 << 14})->Unit(benchmark::kMillisecond);

void BM_AllGather(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    plexus::comm::World world(ranks);
    plexus::sim::run_cluster(
        world, plexus::sim::Machine::test_machine(),
        [&](plexus::sim::RankContext& ctx) {
          std::vector<float> in(elems, 1.0f);
          std::vector<float> out(elems * static_cast<std::size_t>(ranks));
          for (int i = 0; i < 8; ++i) {
            ctx.comm.all_gather<float>(ctx.comm.world().world_group(), in, out);
          }
          benchmark::DoNotOptimize(out[0]);
        },
        /*enable_clock=*/false);
  }
  state.SetBytesProcessed(state.iterations() * 8 * static_cast<std::int64_t>(elems) * 4 * ranks);
}
BENCHMARK(BM_AllGather)->Args({4, 1 << 14})->Args({8, 1 << 14})->Unit(benchmark::kMillisecond);

int rmat_scale() { return plexus::bench::rmat_scale(/*default_scale=*/14); }

/// Blocked aggregation over a power-law RMAT shard on the simulated clock:
/// `kBlocks` row blocks, each a real SpMM (charged via the machine's SpMM
/// model) followed by a real per-block all-reduce, run at pipeline depth
/// `state.range(1)` (1 = fully blocking — the schedule the retired
/// overlap_credit heuristic used to approximate; 0 = adaptive: the depth the
/// perf model picks from per-block SpMM vs ring time, reported in the
/// `adaptive_depth` counter). The `sim_*` counters report the straggler
/// rank's exposed/hidden communication seconds; they are deterministic
/// (post-time clocks + ring cost model, zero machine noise), so CI's
/// perf-smoke job gates on exposed(depth 4) < exposed(depth 1) and on
/// exposed(adaptive) <= the best fixed depth.
void BM_BlockedAggregation(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  int depth = static_cast<int>(state.range(1));
  constexpr int kBlocks = 8;
  constexpr std::int64_t kCols = 64;

  const std::int64_t nodes = std::int64_t{1} << rmat_scale();
  static const plexus::sparse::Csr adj = plexus::sparse::Csr::from_coo(
      plexus::graph::rmat(rmat_scale(), nodes * 8, 0.57, 0.19, 0.19, 0.05, /*seed=*/42), false);
  static const plexus::dense::Matrix feats = [nodes] {
    plexus::dense::Matrix f(nodes, kCols);
    plexus::util::CounterRng rng(7);
    for (std::int64_t i = 0; i < f.size(); ++i) {
      f.flat()[static_cast<std::size_t>(i)] =
          rng.uniform_at(static_cast<std::uint64_t>(i), -1, 1);
    }
    return f;
  }();

  if (depth == 0) {
    // Adaptive: the same rule DistGcnLayer applies to its local shard —
    // fastest block's SpMM time vs the (uniform) per-block ring time.
    const auto bounds = plexus::sparse::block_bounds(adj.rows(), kBlocks);
    plexus::comm::World probe(ranks);
    double t_spmm_min = 0.0;
    for (int k = 0; k < kBlocks; ++k) {
      const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
      const plexus::sim::SpmmShape shape{adj.range_nnz(b0, b1), b1 - b0, adj.cols(), kCols};
      const double t = plexus::sim::spmm_time(plexus::sim::Machine::test_machine(), shape);
      t_spmm_min = k == 0 ? t : std::min(t_spmm_min, t);
    }
    const std::int64_t block_bytes = 4 * (bounds[1] - bounds[0]) * kCols;
    const double t_ring = plexus::comm::collective_time(
        plexus::comm::Collective::AllReduce, block_bytes, ranks, probe.group(0).link);
    depth = plexus::comm::choose_pipeline_depth(t_spmm_min, t_ring, kBlocks);
    state.counters["adaptive_depth"] =
        benchmark::Counter(static_cast<double>(depth), benchmark::Counter::kDefaults);
  }

  double exposed = 0.0, hidden = 0.0, total = 0.0;
  for (auto _ : state) {
    plexus::comm::World world(ranks);
    std::vector<double> rank_exposed(static_cast<std::size_t>(ranks), 0.0);
    std::vector<double> rank_hidden(static_cast<std::size_t>(ranks), 0.0);
    std::vector<double> rank_clock(static_cast<std::size_t>(ranks), 0.0);
    plexus::sim::run_cluster(
        world, plexus::sim::Machine::test_machine(),
        [&](plexus::sim::RankContext& ctx) {
          const auto gid = ctx.comm.world().world_group();
          const auto bounds = plexus::sparse::block_bounds(adj.rows(), kBlocks);
          plexus::dense::Matrix h(adj.rows(), kCols);
          std::deque<plexus::comm::CommHandle> inflight;
          for (int k = 0; k < kBlocks; ++k) {
            const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
            const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
            plexus::sparse::spmm_rows(adj, feats, h, b0, b1);
            const plexus::sim::SpmmShape shape{adj.range_nnz(b0, b1), b1 - b0, adj.cols(), kCols};
            ctx.comm.charge_compute(plexus::sim::spmm_time(*ctx.machine, shape));
            std::span<float> blk{h.row(b0), static_cast<std::size_t>((b1 - b0) * kCols)};
            inflight.push_back(ctx.comm.iall_reduce_sum<float>(gid, blk));
            while (static_cast<int>(inflight.size()) >= depth) {
              inflight.front().wait();
              inflight.pop_front();
            }
          }
          while (!inflight.empty()) {
            inflight.front().wait();
            inflight.pop_front();
          }
          benchmark::DoNotOptimize(h.data());
          rank_exposed[static_cast<std::size_t>(ctx.rank())] =
              ctx.comm.stats().total_seconds();
          rank_hidden[static_cast<std::size_t>(ctx.rank())] =
              ctx.comm.stats().total_hidden_seconds();
          rank_clock[static_cast<std::size_t>(ctx.rank())] = ctx.clock.time();
        },
        /*enable_clock=*/true);
    exposed = *std::max_element(rank_exposed.begin(), rank_exposed.end());
    hidden = *std::max_element(rank_hidden.begin(), rank_hidden.end());
    total = *std::max_element(rank_clock.begin(), rank_clock.end());
  }
  state.counters["sim_exposed_comm_s"] =
      benchmark::Counter(exposed, benchmark::Counter::kDefaults);
  state.counters["sim_hidden_comm_s"] = benchmark::Counter(hidden, benchmark::Counter::kDefaults);
  state.counters["sim_total_s"] = benchmark::Counter(total, benchmark::Counter::kDefaults);
}
BENCHMARK(BM_BlockedAggregation)
    ->Args({4, 1})
    ->Args({4, 2})
    ->Args({4, 4})
    ->Args({4, 0})  // adaptive
    ->Args({8, 1})
    ->Args({8, 2})
    ->Args({8, 4})
    ->Args({8, 0})  // adaptive
    ->Unit(benchmark::kMillisecond);

/// Float wire bytes of a short training run under the bf16 wire format vs
/// the fp32 default, through the full trainer (same graph, same grid, same
/// seeds — only TrainOptions::wire differs). Reports `wire_bytes_ratio` =
/// bf16 wire bytes / fp32 wire bytes, which CI's perf-smoke job gates at
/// <= 0.55 (the measured value is exactly 0.5: every payload this workload
/// ships is fp32 and packs 2 bytes/float on the wire). Deterministic
/// (post-time byte accounting), hence Iterations(1).
void BM_Bf16WireBytes(benchmark::State& state) {
  static const plexus::graph::Graph g = [] {
    constexpr int kScale = 12;
    const std::int64_t nodes = std::int64_t{1} << kScale;
    plexus::graph::Graph built;
    built.name = "rmat-bf16wire";
    built.num_nodes = nodes;
    built.num_classes = 8;
    built.edges = plexus::graph::rmat(kScale, nodes * 4, 0.57, 0.19, 0.19, 0.05, /*seed=*/42);
    built.features = plexus::dense::Matrix(nodes, 32);
    plexus::util::CounterRng rng(11);
    for (std::int64_t i = 0; i < built.features.size(); ++i) {
      built.features.flat()[static_cast<std::size_t>(i)] =
          rng.uniform_at(static_cast<std::uint64_t>(i), -1, 1);
    }
    built.labels.resize(static_cast<std::size_t>(nodes));
    for (std::int64_t v = 0; v < nodes; ++v) {
      built.labels[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(v % 8);
    }
    built.train_mask.assign(static_cast<std::size_t>(nodes), 1);
    built.val_mask.assign(static_cast<std::size_t>(nodes), 0);
    built.test_mask.assign(static_cast<std::size_t>(nodes), 0);
    return built;
  }();

  double fp32_bytes = 0.0, bf16_bytes = 0.0;
  for (auto _ : state) {
    plexus::core::TrainOptions opt;
    opt.grid = {2, 1, 2};
    opt.machine = &plexus::sim::Machine::test_machine();
    opt.model.hidden_dims = {32};
    opt.epochs = 2;
    opt.wire = plexus::comm::WirePrecision::Fp32;
    const auto fp32 = plexus::core::train_plexus(g, opt);
    opt.wire = plexus::comm::WirePrecision::Bf16;
    const auto bf16 = plexus::core::train_plexus(g, opt);
    fp32_bytes = fp32.epochs.back().comm_wire_bytes;
    bf16_bytes = bf16.epochs.back().comm_wire_bytes;
  }
  state.counters["fp32_wire_mb"] =
      benchmark::Counter(fp32_bytes / 1e6, benchmark::Counter::kDefaults);
  state.counters["bf16_wire_mb"] =
      benchmark::Counter(bf16_bytes / 1e6, benchmark::Counter::kDefaults);
  state.counters["wire_bytes_ratio"] =
      benchmark::Counter(fp32_bytes > 0.0 ? bf16_bytes / fp32_bytes : 1.0,
                         benchmark::Counter::kDefaults);
}
BENCHMARK(BM_Bf16WireBytes)->Unit(benchmark::kMillisecond)->Iterations(1);

/// Real wall-clock overlap: the comm engine reduces one buffer while the
/// posting thread sums another. Compares against the same work serialised.
void BM_IAllReduceComputeOverlap(benchmark::State& state) {
  const int ranks = static_cast<int>(state.range(0));
  const auto elems = static_cast<std::size_t>(state.range(1));
  for (auto _ : state) {
    plexus::comm::World world(ranks);
    plexus::sim::run_cluster(
        world, plexus::sim::Machine::test_machine(),
        [&](plexus::sim::RankContext& ctx) {
          std::vector<float> comm_buf(elems, 1.0f);
          std::vector<float> local(elems, 2.0f);
          for (int i = 0; i < 8; ++i) {
            auto h = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), comm_buf);
            float acc = 0.0f;  // independent compute while the engine reduces
            for (const float v : local) acc += v;
            benchmark::DoNotOptimize(acc);
            h.wait();
          }
          benchmark::DoNotOptimize(comm_buf[0]);
        },
        /*enable_clock=*/false);
  }
  state.SetBytesProcessed(state.iterations() * 8 * static_cast<std::int64_t>(elems) * 4 * ranks);
}
BENCHMARK(BM_IAllReduceComputeOverlap)->Args({4, 1 << 14})->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
