#include "dense/gemm.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace plexus::dense {

std::int64_t op_rows(const Matrix& a, Trans t) { return t == Trans::N ? a.rows() : a.cols(); }
std::int64_t op_cols(const Matrix& a, Trans t) { return t == Trans::N ? a.cols() : a.rows(); }

namespace {

/// C += alpha * op(A) * B, with op(A) (m x k) read in place at
/// a[i * a_rs + kk * a_ks] and B (k x n) row-major. The row space is split
/// across the intra-rank engine and blocked for cache residency; the
/// runtime-dispatched SIMD tile (util/simd.hpp) keeps each output element's
/// serial k-ascending order, so results are bitwise-identical for any thread
/// count and any SIMD target.
void gemm_accumulate(float alpha, const float* a, std::int64_t a_rs, std::int64_t a_ks,
                     std::int64_t m, std::int64_t k, const Matrix& b, Matrix& c) {
  const std::int64_t n = b.cols();
  constexpr std::int64_t kBlockI = 64;
  constexpr std::int64_t kBlockK = 256;
  const auto& kernels = simd::active_kernels();
  const auto row_range = [&](std::int64_t m0, std::int64_t m1) {
    for (std::int64_t i0 = m0; i0 < m1; i0 += kBlockI) {
      const std::int64_t i1 = std::min(m1, i0 + kBlockI);
      for (std::int64_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::int64_t k1 = std::min(k, k0 + kBlockK);
        kernels.gemm_tile(a, a_rs, a_ks, b.data(), b.cols(), c.data(), c.cols(), i0, i1, k0, k1,
                          n, alpha);
      }
    }
  };
  util::parallel_for(0, m, row_range, /*work_estimate=*/m * k * n);
}

}  // namespace

void gemm(Trans ta, Trans tb, float alpha, const Matrix& a, const Matrix& b, float beta,
          Matrix& c) {
  const std::int64_t m = op_rows(a, ta);
  const std::int64_t k = op_cols(a, ta);
  const std::int64_t n = op_cols(b, tb);
  PLEXUS_CHECK(op_rows(b, tb) == k, "gemm: inner dimension mismatch");
  PLEXUS_CHECK(c.rows() == m && c.cols() == n, "gemm: output shape mismatch");

  if (beta == 0.0f) {
    c.zero();
  } else if (beta != 1.0f) {
    for (float& v : c.flat()) v *= beta;
  }

  // op(A) is addressed in place through (row, k) strides; only op(B) = B^T,
  // which is weight-sized in training, is materialised.
  const std::int64_t a_rs = ta == Trans::N ? a.cols() : 1;
  const std::int64_t a_ks = ta == Trans::N ? 1 : a.cols();
  if (tb == Trans::T) {
    gemm_accumulate(alpha, a.data(), a_rs, a_ks, m, k, b.transposed(), c);
  } else {
    gemm_accumulate(alpha, a.data(), a_rs, a_ks, m, k, b, c);
  }
}

Matrix matmul(const Matrix& a, const Matrix& b, Trans ta, Trans tb) {
  // Matrix(m, n) is already zero-filled, so beta = 1 accumulates into it
  // without a second fill.
  Matrix c(op_rows(a, ta), op_cols(b, tb));
  gemm(ta, tb, 1.0f, a, b, /*beta=*/1.0f, c);
  return c;
}

}  // namespace plexus::dense
