// Randomized property tests for the SpMM kernels (sparse/spmm.hpp):
//   - spmm agrees with a dense triple-loop reference on random CSR inputs
//   - spmm_rows over a partition of the row space stitches to the full spmm
//     (the blocked-aggregation invariant of paper section 5.2)
//   - the threaded paths, spmm_into_rows' streamed windows included, match
//     the serial worker bitwise
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "dense/matrix.hpp"
#include "sparse/csr.hpp"
#include "sparse/spmm.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace ps = plexus::sparse;
namespace pd = plexus::dense;
namespace pu = plexus::util;

namespace {

ps::Csr random_csr(std::int64_t rows, std::int64_t cols, std::int64_t nnz, std::uint64_t seed) {
  pu::SplitMix64 rng(seed);
  ps::Coo coo;
  coo.num_rows = rows;
  coo.num_cols = cols;
  for (std::int64_t i = 0; i < nnz; ++i) {
    coo.push(static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(rows))),
             static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(cols))),
             rng.next_float() * 2.0f - 1.0f);
  }
  return ps::Csr::from_coo(coo);
}

pd::Matrix random_dense(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  pu::CounterRng rng(seed);
  pd::Matrix m(r, c);
  for (std::int64_t i = 0; i < r * c; ++i) {
    m.flat()[static_cast<std::size_t>(i)] = rng.uniform_at(static_cast<std::uint64_t>(i), -1, 1);
  }
  return m;
}

/// Dense reference: C = dense(A) * B computed in double precision.
pd::Matrix dense_reference(const ps::Csr& a, const pd::Matrix& b) {
  const std::vector<float> ad = a.to_dense();
  pd::Matrix c(a.rows(), b.cols());
  for (std::int64_t i = 0; i < a.rows(); ++i) {
    for (std::int64_t j = 0; j < b.cols(); ++j) {
      double acc = 0.0;
      for (std::int64_t k = 0; k < a.cols(); ++k) {
        acc += static_cast<double>(ad[static_cast<std::size_t>(i * a.cols() + k)]) *
               static_cast<double>(b.at(k, j));
      }
      c.at(i, j) = static_cast<float>(acc);
    }
  }
  return c;
}

}  // namespace

TEST(SpmmProperties, MatchesDenseReferenceRandomized) {
  for (std::uint64_t trial = 0; trial < 8; ++trial) {
    const std::int64_t m = 17 + static_cast<std::int64_t>(trial) * 13;
    const std::int64_t k = 23 + static_cast<std::int64_t>(trial) * 7;
    const std::int64_t n = 5 + static_cast<std::int64_t>(trial) * 3;
    const ps::Csr a = random_csr(m, k, m * 4, 1000 + trial);
    const pd::Matrix b = random_dense(k, n, 2000 + trial);
    const pd::Matrix c = ps::spmm(a, b);
    const pd::Matrix ref = dense_reference(a, b);
    EXPECT_LT(pd::Matrix::max_abs_diff(c, ref), 1e-4f) << "trial " << trial;
  }
}

TEST(SpmmProperties, EmptyAndDenseExtremes) {
  // All-zero pattern: result is exactly zero.
  ps::Coo empty;
  empty.num_rows = 9;
  empty.num_cols = 11;
  const ps::Csr a0 = ps::Csr::from_coo(empty);
  const pd::Matrix b = random_dense(11, 6, 42);
  const pd::Matrix c0 = ps::spmm(a0, b);
  for (float v : c0.flat()) EXPECT_EQ(v, 0.0f);

  // Fully dense pattern: still matches the reference.
  ps::Coo full;
  full.num_rows = 8;
  full.num_cols = 11;
  pu::CounterRng rng(7);
  for (std::int64_t r = 0; r < 8; ++r) {
    for (std::int64_t c = 0; c < 11; ++c) {
      full.push(r, c, rng.uniform_at(static_cast<std::uint64_t>(r * 11 + c), -1.0f, 1.0f));
    }
  }
  const ps::Csr a1 = ps::Csr::from_coo(full);
  EXPECT_LT(pd::Matrix::max_abs_diff(ps::spmm(a1, b), dense_reference(a1, b)), 1e-4f);
}

TEST(SpmmProperties, RowRangesStitchToFullProduct) {
  const ps::Csr a = random_csr(64, 40, 300, 3);
  const pd::Matrix b = random_dense(40, 9, 4);
  const pd::Matrix full = ps::spmm(a, b);

  // Partition the row space into uneven blocks (including an empty range) and
  // stitch the per-block results back together.
  const std::int64_t splits[] = {0, 5, 5, 21, 50, 64};
  pd::Matrix stitched(a.rows(), b.cols());
  for (std::size_t i = 0; i + 1 < std::size(splits); ++i) {
    ps::spmm_rows(a, b, stitched, splits[i], splits[i + 1]);
  }
  EXPECT_EQ(pd::Matrix::max_abs_diff(stitched, full), 0.0f)
      << "union of row ranges must equal the one-shot kernel bit-for-bit";
}

TEST(SpmmProperties, FlopCount) {
  const ps::Csr a = random_csr(20, 20, 55, 5);
  EXPECT_EQ(ps::spmm_flops(a, 16), 2 * a.nnz() * 16);
}

TEST(SpmmProperties, ThreadedMatchesSerialWorkerBitwise) {
  // The nnz-balanced parallel path must reproduce the single-threaded
  // reference worker exactly, for any thread budget: every output row is
  // computed by one chunk with the serial per-row summation order. Sized
  // above the small-work cutoff so the pool path actually runs.
  const ps::Csr a = random_csr(600, 300, 9000, 21);
  const pd::Matrix b = random_dense(300, 16, 22);
  pd::Matrix serial(a.rows(), b.cols());
  ps::spmm_rows_serial(a, b, serial, 0, a.rows());

  for (const int threads : {2, 4, 8}) {
    pu::ScopedIntraRankThreads scope(threads);
    const pd::Matrix c = ps::spmm(a, b);
    EXPECT_EQ(pd::Matrix::max_abs_diff(c, serial), 0.0f) << "threads=" << threads;
  }
}

TEST(SpmmProperties, IntoRowsMatchesAssembledRowsBitwise) {
  // A streamed window (rows [r0, r1) of A as its own CSR) lands on the same
  // output rows as spmm_rows over the assembled matrix, on the serial and
  // the threaded path alike, and leaves every other output row alone.
  const ps::Csr a = random_csr(600, 300, 9000, 29);
  const pd::Matrix b = random_dense(300, 16, 30);
  const std::int64_t r0 = 200, r1 = 500;
  pd::Matrix want(a.rows(), b.cols());
  ps::spmm_rows_serial(a, b, want, r0, r1);
  for (const int threads : {1, 4}) {
    pu::ScopedIntraRankThreads scope(threads);
    pd::Matrix got(a.rows(), b.cols());
    ps::spmm_into_rows(a.block(r0, r1, 0, a.cols()), b, got, r0);
    EXPECT_EQ(pd::Matrix::max_abs_diff(got, want), 0.0f) << "threads=" << threads;
  }
}

TEST(SpmmProperties, SerialWorkerOverwritesPriorOutput) {
  // The shared row-range worker zero-fills each output row: prior C
  // contents must not leak into the product.
  const ps::Csr a = random_csr(40, 30, 200, 26);
  const pd::Matrix b = random_dense(30, 6, 27);
  const pd::Matrix prior = random_dense(40, 6, 28);

  pd::Matrix overwrite = prior;
  ps::spmm_rows_serial(a, b, overwrite, 0, a.rows());
  EXPECT_EQ(pd::Matrix::max_abs_diff(overwrite, ps::spmm(a, b)), 0.0f);
}
