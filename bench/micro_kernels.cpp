// google-benchmark micro-suite for the host kernels backing the simulator:
// SpMM (square vs tall-skinny dense operand), GEMM transpose modes, CSR
// transforms, and the intra-rank thread-count sweeps. These measure *this
// machine's* kernels (wall time), not the simulated GPUs.
//
// The thread sweeps (BM_SpmmRmatThreads / BM_GemmThreads) run the threaded
// engine at 1/2/4/8 threads on an RMAT power-law graph and report
// `speedup_vs_serial`, the ratio against a one-shot measurement of the
// single-threaded reference worker on the same operands. Select just the
// sweep with --benchmark_filter=Threads; shrink the graph on small machines
// with PLEXUS_BENCH_RMAT_SCALE (default 18).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <limits>

#include "bench_common.hpp"
#include "dense/gemm.hpp"
#include "graph/generators.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace {

plexus::sparse::Csr make_adj(std::int64_t nodes, double degree) {
  const auto coo =
      plexus::graph::erdos_renyi(nodes, static_cast<std::int64_t>(nodes * degree / 2), 3);
  return plexus::sparse::Csr::from_coo(coo, false);
}

plexus::dense::Matrix make_dense(std::int64_t r, std::int64_t c) {
  plexus::util::CounterRng rng(5);
  plexus::dense::Matrix m(r, c);
  for (std::int64_t i = 0; i < m.size(); ++i) {
    m.flat()[static_cast<std::size_t>(i)] = rng.uniform_at(static_cast<std::uint64_t>(i), -1, 1);
  }
  return m;
}

void BM_Spmm(benchmark::State& state) {
  const auto nodes = state.range(0);
  const auto cols = state.range(1);
  const auto a = make_adj(nodes, 16.0);
  const auto b = make_dense(nodes, cols);
  plexus::dense::Matrix c(nodes, cols);
  for (auto _ : state) {
    plexus::sparse::spmm(a, b, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * cols * 2);
}
BENCHMARK(BM_Spmm)->Args({4096, 128})->Args({4096, 8})->Args({16384, 32});

void BM_GemmModes(benchmark::State& state) {
  const auto n = state.range(0);
  const auto ta = state.range(1) != 0 ? plexus::dense::Trans::T : plexus::dense::Trans::N;
  const auto a = make_dense(n, n);
  const auto b = make_dense(n, n);
  plexus::dense::Matrix c(n, n);
  for (auto _ : state) {
    plexus::dense::gemm(ta, plexus::dense::Trans::N, 1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_GemmModes)->Args({256, 0})->Args({256, 1});

int bench_rmat_scale() { return plexus::bench::rmat_scale(/*default_scale=*/18); }

/// The thread-sweep workload: an RMAT power-law graph (hub rows stress the
/// nnz-balanced partition) with a 64-wide dense operand. Built once.
const plexus::sparse::Csr& rmat_adj() {
  static const plexus::sparse::Csr a = [] {
    const int scale = bench_rmat_scale();
    const std::int64_t nodes = std::int64_t{1} << scale;
    const auto coo = plexus::graph::rmat(scale, nodes * 8, 0.57, 0.19, 0.19, 0.05, 7);
    return plexus::sparse::Csr::from_coo(coo, false);
  }();
  return a;
}

const plexus::dense::Matrix& rmat_dense() {
  static const plexus::dense::Matrix b = make_dense(rmat_adj().cols(), 64);
  return b;
}

/// Wall time of the single-threaded reference worker on the sweep operands —
/// the denominator of every speedup_vs_serial counter. One warm-up run
/// (first-touch of B/C, cache fill), then the min of three timed repetitions.
double serial_spmm_seconds() {
  static const double secs = [] {
    const auto& a = rmat_adj();
    const auto& b = rmat_dense();
    plexus::dense::Matrix c(a.rows(), b.cols());
    plexus::sparse::spmm_rows_serial(a, b, c, 0, a.rows());
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      plexus::sparse::spmm_rows_serial(a, b, c, 0, a.rows());
      benchmark::DoNotOptimize(c.data());
      best = std::min(
          best, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
    return best;
  }();
  return secs;
}

void BM_SpmmRmatThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const auto& a = rmat_adj();
  const auto& b = rmat_dense();
  plexus::dense::Matrix c(a.rows(), b.cols());
  const double serial = serial_spmm_seconds();
  plexus::util::ScopedIntraRankThreads scope(threads);
  // Best single iteration, so the ratio is min-vs-min with the serial side.
  double best_iter = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    plexus::sparse::spmm(a, b, c);
    benchmark::DoNotOptimize(c.data());
    best_iter = std::min(
        best_iter, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  state.SetItemsProcessed(state.iterations() * a.nnz() * b.cols() * 2);
  if (best_iter > 0.0 && std::isfinite(best_iter)) {
    state.counters["speedup_vs_serial"] = serial / best_iter;
  }
}
BENCHMARK(BM_SpmmRmatThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

constexpr std::int64_t kGemmSweepN = 384;

/// Serial GEMM baseline on the sweep operands, measured once (warm-up plus
/// min of three repetitions), like serial_spmm_seconds().
double serial_gemm_seconds() {
  static const double secs = [] {
    const auto a = make_dense(kGemmSweepN, kGemmSweepN);
    const auto b = make_dense(kGemmSweepN, kGemmSweepN);
    plexus::dense::Matrix c(kGemmSweepN, kGemmSweepN);
    plexus::util::ScopedIntraRankThreads scope(1);
    plexus::dense::gemm(plexus::dense::Trans::N, plexus::dense::Trans::N, 1.0f, a, b, 0.0f, c);
    double best = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = std::chrono::steady_clock::now();
      plexus::dense::gemm(plexus::dense::Trans::N, plexus::dense::Trans::N, 1.0f, a, b, 0.0f, c);
      best = std::min(
          best, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
    }
    return best;
  }();
  return secs;
}

void BM_GemmThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  const std::int64_t n = kGemmSweepN;
  const auto a = make_dense(n, n);
  const auto b = make_dense(n, n);
  plexus::dense::Matrix c(n, n);
  const double serial = serial_gemm_seconds();

  plexus::util::ScopedIntraRankThreads scope(threads);
  double best_iter = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    const auto t0 = std::chrono::steady_clock::now();
    plexus::dense::gemm(plexus::dense::Trans::N, plexus::dense::Trans::N, 1.0f, a, b, 0.0f, c);
    benchmark::DoNotOptimize(c.data());
    best_iter = std::min(
        best_iter, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
  if (best_iter > 0.0 && std::isfinite(best_iter)) {
    state.counters["speedup_vs_serial"] = serial / best_iter;
  }
}
BENCHMARK(BM_GemmThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8)->Unit(benchmark::kMillisecond);

// ---------------------------------------------------------------------------
// SIMD-vs-scalar kernel speedups, gated by CI's perf-smoke job. The
// denominator is the *pinned* scalar table — kernels(Target::Scalar), the
// same code PLEXUS_SIMD=scalar would dispatch to — measured in-process on
// the identical operands, so no re-exec under a different environment is
// needed and the ratio isolates vectorization (both sides single-threaded,
// both compiled with -ffp-contract=off, bitwise-identical outputs).

/// Min-of-three wall time of `run` (one warm-up call first).
template <class Run>
double min_of_three_seconds(const Run& run, plexus::dense::Matrix& c) {
  run();
  double best = std::numeric_limits<double>::infinity();
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    run();
    benchmark::DoNotOptimize(c.data());
    best = std::min(
        best, std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count());
  }
  return best;
}

/// Reports `speedup_vs_serial`: `run` on the pinned scalar table over `run`
/// on the active table, min of three timed calls each.
template <class Run>
void report_simd_speedup(benchmark::State& state, const Run& run, plexus::dense::Matrix& c,
                         std::int64_t flops) {
  const double scalar =
      min_of_three_seconds([&] { run(plexus::simd::kernels(plexus::simd::Target::Scalar)); }, c);
  double active = std::numeric_limits<double>::infinity();
  for (auto _ : state) {
    active = std::min(active,
                      min_of_three_seconds([&] { run(plexus::simd::active_kernels()); }, c));
  }
  state.SetLabel(plexus::simd::target_name(plexus::simd::active_target()));
  state.SetItemsProcessed(state.iterations() * flops);
  if (active > 0.0 && std::isfinite(active)) {
    state.counters["speedup_vs_serial"] = scalar / active;
  }
}

/// One full-matrix SpMM row-kernel call on the RMAT sweep operands.
void BM_SpmmSimdVsScalar(benchmark::State& state) {
  const auto& a = rmat_adj();
  const auto& b = rmat_dense();
  plexus::dense::Matrix c(a.rows(), b.cols());
  report_simd_speedup(
      state,
      [&](const plexus::simd::Kernels& k) {
        k.spmm_rows(a.row_ptr().data(), a.col_idx().data(), a.vals().data(), b.data(), b.cols(),
                    c.data(), c.cols(), 0, a.rows(), b.cols());
      },
      c, a.nnz() * b.cols() * 2);
}
BENCHMARK(BM_SpmmSimdVsScalar)->Unit(benchmark::kMillisecond)->Iterations(1);

/// One full-range gemm_tile call on the square kGemmSweepN operands, op(A) = A.
void BM_GemmSimdVsScalar(benchmark::State& state) {
  const std::int64_t n = kGemmSweepN;
  const auto a = make_dense(n, n);
  const auto b = make_dense(n, n);
  plexus::dense::Matrix c(n, n);
  report_simd_speedup(
      state,
      [&](const plexus::simd::Kernels& k) {
        k.gemm_tile(a.data(), n, 1, b.data(), n, c.data(), n, 0, n, 0, n, n, 1.0f);
      },
      c, 2 * n * n * n);
}
BENCHMARK(BM_GemmSimdVsScalar)->Unit(benchmark::kMillisecond)->Iterations(1);

/// The weight-gradient GEMM shape, dW = H^T dQ: op(A) = H^T read in place
/// from a tall 32768 x 64 H (row stride 1, k stride 64), times a 32768 x 64
/// dQ, in 256-deep k blocks as dense::gemm calls the tile.
void BM_GemmTransASimdVsScalar(benchmark::State& state) {
  constexpr std::int64_t m = 64, k = 32768, n = 64, kBlock = 256;
  const auto h = make_dense(k, m);
  const auto dq = make_dense(k, n);
  plexus::dense::Matrix c(m, n);
  report_simd_speedup(
      state,
      [&](const plexus::simd::Kernels& kern) {
        for (std::int64_t k0 = 0; k0 < k; k0 += kBlock) {
          kern.gemm_tile(h.data(), 1, m, dq.data(), n, c.data(), n, 0, m, k0, k0 + kBlock, n,
                         1.0f);
        }
      },
      c, 2 * m * k * n);
}
BENCHMARK(BM_GemmTransASimdVsScalar)->Unit(benchmark::kMillisecond)->Iterations(1);

void BM_CsrTranspose(benchmark::State& state) {
  const auto a = make_adj(state.range(0), 16.0);
  for (auto _ : state) {
    auto t = a.transposed();
    benchmark::DoNotOptimize(t.nnz());
  }
}
BENCHMARK(BM_CsrTranspose)->Arg(8192);

void BM_CsrPermute(benchmark::State& state) {
  const auto a = make_adj(state.range(0), 16.0);
  const auto p = plexus::util::random_permutation(a.rows(), 9);
  for (auto _ : state) {
    auto b = a.permuted(p, p);
    benchmark::DoNotOptimize(b.nnz());
  }
}
BENCHMARK(BM_CsrPermute)->Arg(8192);

}  // namespace

BENCHMARK_MAIN();
