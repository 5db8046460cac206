// Randomized property tests for the dense GEMM (dense/gemm.hpp), mirroring
// test_spmm_properties.cpp:
//   - gemm agrees with a naive double-precision triple-loop reference in all
//     four transpose modes, for random shapes / alpha / beta
//   - transpose-mode algebra: op(A)*op(B) == materialised-transpose products
//   - the threaded kernel is bitwise-identical to the serial one (each output
//     row is owned by one chunk and keeps the serial k-order)
//   - every mode is bitwise-identical to the serial kernel's arithmetic (k
//     ascending, separate multiply and add, zero `alpha * a` terms skipped)
//     across row-tile, k-block and column-panel edges
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>

#include "dense/gemm.hpp"
#include "dense/matrix.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pd = plexus::dense;
namespace pu = plexus::util;

namespace {

pd::Matrix random_dense(std::int64_t r, std::int64_t c, std::uint64_t seed) {
  pu::CounterRng rng(seed);
  pd::Matrix m(r, c);
  for (std::int64_t i = 0; i < r * c; ++i) {
    m.flat()[static_cast<std::size_t>(i)] = rng.uniform_at(static_cast<std::uint64_t>(i), -1, 1);
  }
  return m;
}

/// The serial kernel's exact arithmetic for C = alpha * op(A) * op(B) +
/// beta * C with beta in {0, 1}: each element starts from 0 or C, then adds
/// (alpha * a) * b for k ascending, skipping terms whose alpha * a is zero.
pd::Matrix serial_order_gemm(pd::Trans ta, pd::Trans tb, float alpha, const pd::Matrix& a,
                             const pd::Matrix& b, float beta, const pd::Matrix& c_in) {
  const std::int64_t m = pd::op_rows(a, ta);
  const std::int64_t k = pd::op_cols(a, ta);
  const std::int64_t n = pd::op_cols(b, tb);
  pd::Matrix c = beta == 0.0f ? pd::Matrix(m, n) : c_in;
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      float acc = c.at(i, j);
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = alpha * (ta == pd::Trans::N ? a.at(i, kk) : a.at(kk, i));
        if (av == 0.0f) continue;
        acc += av * (tb == pd::Trans::N ? b.at(kk, j) : b.at(j, kk));
      }
      c.at(i, j) = acc;
    }
  }
  return c;
}

/// Naive triple-loop reference for C = alpha * op(A) * op(B) + beta * C,
/// accumulated in double precision.
pd::Matrix naive_gemm(pd::Trans ta, pd::Trans tb, float alpha, const pd::Matrix& a,
                      const pd::Matrix& b, float beta, const pd::Matrix& c_in) {
  const std::int64_t m = pd::op_rows(a, ta);
  const std::int64_t k = pd::op_cols(a, ta);
  const std::int64_t n = pd::op_cols(b, tb);
  pd::Matrix c(m, n);
  for (std::int64_t i = 0; i < m; ++i) {
    for (std::int64_t j = 0; j < n; ++j) {
      double acc = 0.0;
      for (std::int64_t kk = 0; kk < k; ++kk) {
        const float av = ta == pd::Trans::N ? a.at(i, kk) : a.at(kk, i);
        const float bv = tb == pd::Trans::N ? b.at(kk, j) : b.at(j, kk);
        acc += static_cast<double>(av) * static_cast<double>(bv);
      }
      c.at(i, j) = static_cast<float>(static_cast<double>(alpha) * acc +
                                      static_cast<double>(beta) * static_cast<double>(c_in.at(i, j)));
    }
  }
  return c;
}

}  // namespace

TEST(GemmProperties, MatchesNaiveReferenceAllModesRandomized) {
  const pd::Trans modes[] = {pd::Trans::N, pd::Trans::T};
  for (std::uint64_t trial = 0; trial < 6; ++trial) {
    const std::int64_t m = 9 + static_cast<std::int64_t>(trial) * 11;
    const std::int64_t k = 13 + static_cast<std::int64_t>(trial) * 5;
    const std::int64_t n = 4 + static_cast<std::int64_t>(trial) * 7;
    const float alpha = 0.5f + 0.25f * static_cast<float>(trial);
    const float beta = trial % 3 == 0 ? 0.0f : (trial % 3 == 1 ? 1.0f : -0.75f);
    for (const pd::Trans ta : modes) {
      for (const pd::Trans tb : modes) {
        const pd::Matrix a = ta == pd::Trans::N ? random_dense(m, k, 100 + trial)
                                                : random_dense(k, m, 100 + trial);
        const pd::Matrix b = tb == pd::Trans::N ? random_dense(k, n, 200 + trial)
                                                : random_dense(n, k, 200 + trial);
        pd::Matrix c = random_dense(m, n, 300 + trial);
        const pd::Matrix ref = naive_gemm(ta, tb, alpha, a, b, beta, c);
        pd::gemm(ta, tb, alpha, a, b, beta, c);
        EXPECT_LT(pd::Matrix::max_abs_diff(c, ref), 1e-4f)
            << "trial " << trial << " ta=" << (ta == pd::Trans::T) << " tb="
            << (tb == pd::Trans::T);
      }
    }
  }
}

TEST(GemmProperties, TransposeModesAgreeWithMaterialisedTransposes) {
  const pd::Matrix a = random_dense(21, 17, 1);
  const pd::Matrix b = random_dense(21, 12, 2);
  // A^T * B via mode flags (A^T read in place) vs an explicit transposed
  // copy: every element sees the same k-ascending sequence, so results must
  // match bitwise.
  const pd::Matrix via_modes = pd::matmul(a, b, pd::Trans::T, pd::Trans::N);
  const pd::Matrix via_copies = pd::matmul(a.transposed(), b);
  EXPECT_EQ(pd::Matrix::max_abs_diff(via_modes, via_copies), 0.0f);
}

TEST(GemmProperties, BitwiseEqualsSerialOrderAtTileAndBlockEdges) {
  // m: 4-row tile remainders (16: a power-of-two leading dimension for the
  // in-place A^T); k: the 256-deep k blocks; n: vector tails and register
  // panel edges. A is half zeros, as after a ReLU. Runs on the active SIMD
  // target; CI repeats the quick suite under PLEXUS_SIMD=scalar.
  const pd::Trans modes[] = {pd::Trans::N, pd::Trans::T};
  std::uint64_t seed = 400;
  for (const std::int64_t m : {1, 3, 5, 9, 16}) {
    for (const std::int64_t k : {1, 255, 256, 257, 600}) {
      for (const std::int64_t n : {0, 1, 15, 16, 17, 63, 64, 65, 100, 129}) {
        for (const pd::Trans ta : modes) {
          for (const pd::Trans tb : modes) {
            pd::Matrix a = ta == pd::Trans::N ? random_dense(m, k, ++seed)
                                              : random_dense(k, m, ++seed);
            for (float& v : a.flat()) v = v < 0.0f ? 0.0f : v;
            const pd::Matrix b = tb == pd::Trans::N ? random_dense(k, n, ++seed)
                                                    : random_dense(n, k, ++seed);
            const pd::Matrix c0 = random_dense(m, n, ++seed);
            for (const float beta : {0.0f, 1.0f}) {
              const float alpha = beta == 0.0f ? 1.0f : -0.75f;
              pd::Matrix c = c0;
              pd::gemm(ta, tb, alpha, a, b, beta, c);
              const pd::Matrix want = serial_order_gemm(ta, tb, alpha, a, b, beta, c0);
              // n = 0 leaves both buffers null, which memcmp must not see.
              ASSERT_TRUE(c.flat().empty() ||
                          std::memcmp(c.data(), want.data(), sizeof(float) * c.flat().size()) == 0)
                  << "m=" << m << " k=" << k << " n=" << n << " ta=" << (ta == pd::Trans::T)
                  << " tb=" << (tb == pd::Trans::T) << " beta=" << beta;
            }
          }
        }
      }
    }
  }
}

TEST(GemmProperties, BetaZeroOverwritesGarbage) {
  // beta == 0 must overwrite C even when it holds non-finite values.
  const pd::Matrix a = random_dense(8, 6, 3);
  const pd::Matrix b = random_dense(6, 5, 4);
  pd::Matrix c(8, 5, std::numeric_limits<float>::quiet_NaN());
  pd::gemm(pd::Trans::N, pd::Trans::N, 1.0f, a, b, 0.0f, c);
  for (float v : c.flat()) EXPECT_TRUE(std::isfinite(v));
  EXPECT_LT(pd::Matrix::max_abs_diff(c, naive_gemm(pd::Trans::N, pd::Trans::N, 1.0f, a, b, 0.0f,
                                                   pd::Matrix(8, 5))),
            1e-4f);
}

TEST(GemmProperties, ThreadedMatchesSerialBitwise) {
  const pd::Matrix a = random_dense(130, 70, 5);
  const pd::Matrix b = random_dense(70, 33, 6);
  const pd::Matrix c0 = random_dense(130, 33, 7);

  pd::Matrix serial = c0;
  {
    pu::ScopedIntraRankThreads scope(1);
    pd::gemm(pd::Trans::N, pd::Trans::N, 1.25f, a, b, 0.5f, serial);
  }
  for (const int threads : {2, 4, 8}) {
    pd::Matrix c = c0;
    pu::ScopedIntraRankThreads scope(threads);
    pd::gemm(pd::Trans::N, pd::Trans::N, 1.25f, a, b, 0.5f, c);
    EXPECT_EQ(pd::Matrix::max_abs_diff(c, serial), 0.0f) << "threads=" << threads;
  }
}

TEST(GemmProperties, ThreadedTransposeModesMatchSerialBitwise) {
  const pd::Matrix a = random_dense(96, 41, 8);
  const pd::Matrix b = random_dense(96, 27, 9);
  pd::Matrix serial;
  {
    pu::ScopedIntraRankThreads scope(1);
    serial = pd::matmul(a, b, pd::Trans::T, pd::Trans::N);
  }
  pu::ScopedIntraRankThreads scope(4);
  const pd::Matrix threaded = pd::matmul(a, b, pd::Trans::T, pd::Trans::N);
  EXPECT_EQ(pd::Matrix::max_abs_diff(threaded, serial), 0.0f);
}
