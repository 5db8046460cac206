#include "sparse/spmm.hpp"

#include <algorithm>
#include <vector>

#include "util/error.hpp"
#include "util/simd.hpp"
#include "util/thread_pool.hpp"

namespace plexus::sparse {

namespace {

/// The one row-range worker every SpMM entry point funnels through: rows
/// [r0, r1) of A*B, each output row zero-filled first, into the same rows of
/// the row-major output at `c`, whose row stride is b.cols() (callers check
/// the output shape). Each output row is touched by exactly one call, so any
/// partition of the row space yields bitwise-identical results; the
/// runtime-dispatched SIMD kernel (util/simd.hpp) vectorizes over the feature
/// dimension only, so every target is bitwise-identical to the scalar loop.
void spmm_row_range(const Csr& a, const dense::Matrix& b, float* c, std::int64_t r0,
                    std::int64_t r1) {
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.vals();
  simd::active_kernels().spmm_rows(rp.data(), ci.data(), va.data(), b.data(), b.cols(), c,
                                   b.cols(), r0, r1, b.cols());
}

/// Splits [r0, r1) into `parts` ranges of roughly equal nnz (prefix search
/// over row_ptr), so power-law hub rows don't serialise on one thread.
/// Ranges may be empty. Returns parts + 1 boundaries.
std::vector<std::int64_t> nnz_balanced_bounds(const Csr& a, std::int64_t r0, std::int64_t r1,
                                              int parts) {
  const auto rp = a.row_ptr();
  const std::int64_t nnz0 = rp[static_cast<std::size_t>(r0)];
  const std::int64_t nnz1 = rp[static_cast<std::size_t>(r1)];
  std::vector<std::int64_t> bounds;
  bounds.reserve(static_cast<std::size_t>(parts) + 1);
  bounds.push_back(r0);
  for (int p = 1; p < parts; ++p) {
    const std::int64_t target =
        nnz0 + (nnz1 - nnz0) * static_cast<std::int64_t>(p) / static_cast<std::int64_t>(parts);
    const auto first = rp.begin() + r0;
    const auto last = rp.begin() + r1 + 1;
    std::int64_t r = std::lower_bound(first, last, target) - rp.begin();
    r = std::clamp(r, bounds.back(), r1);
    bounds.push_back(r);
  }
  bounds.push_back(r1);
  return bounds;
}

/// Parallel dispatch over an nnz-balanced partition of [r0, r1), writing
/// through the output base pointer `c` like spmm_row_range.
void spmm_range_dispatch(const Csr& a, const dense::Matrix& b, float* c, std::int64_t r0,
                         std::int64_t r1) {
  // The blocked-aggregation loop hits this path once per row block per
  // layer, so small blocks must not pay a pool dispatch.
  const auto rp = a.row_ptr();
  const int t = util::intra_rank_threads();
  if (t <= 1 || r1 - r0 <= 1 ||
      (rp[static_cast<std::size_t>(r1)] - rp[static_cast<std::size_t>(r0)]) * b.cols() <
          util::kSerialWorkCutoff) {
    spmm_row_range(a, b, c, r0, r1);
    return;
  }
  const auto bounds = nnz_balanced_bounds(a, r0, r1, t);
  util::parallel_for_grain(
      0, static_cast<std::int64_t>(bounds.size()) - 1, 1,
      [&](std::int64_t, std::int64_t p0, std::int64_t p1) {
        for (std::int64_t p = p0; p < p1; ++p) {
          spmm_row_range(a, b, c, bounds[static_cast<std::size_t>(p)],
                         bounds[static_cast<std::size_t>(p) + 1]);
        }
      });
}

void check_shapes(const Csr& a, const dense::Matrix& b, const dense::Matrix& c, const char* who) {
  PLEXUS_CHECK(a.cols() == b.rows(), std::string(who) + ": inner dimension mismatch");
  PLEXUS_CHECK(c.rows() == a.rows() && c.cols() == b.cols(),
               std::string(who) + ": output shape mismatch");
}

}  // namespace

void spmm_rows(const Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t r0,
               std::int64_t r1) {
  check_shapes(a, b, c, "spmm");
  PLEXUS_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows(), "spmm_rows: bad row range");
  spmm_range_dispatch(a, b, c.data(), r0, r1);
}

void spmm_rows_serial(const Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t r0,
                      std::int64_t r1) {
  check_shapes(a, b, c, "spmm_rows_serial");
  PLEXUS_CHECK(0 <= r0 && r0 <= r1 && r1 <= a.rows(), "spmm_rows_serial: bad row range");
  spmm_row_range(a, b, c.data(), r0, r1);
}

void spmm_into_rows(const Csr& a, const dense::Matrix& b, dense::Matrix& c, std::int64_t out_r0) {
  PLEXUS_CHECK(a.cols() == b.rows(), "spmm_into_rows: inner dimension mismatch");
  PLEXUS_CHECK(c.cols() == b.cols(), "spmm_into_rows: output shape mismatch");
  PLEXUS_CHECK(0 <= out_r0 && out_r0 + a.rows() <= c.rows(),
               "spmm_into_rows: output window out of range");
  spmm_range_dispatch(a, b, c.row(out_r0), 0, a.rows());
}

void spmm(const Csr& a, const dense::Matrix& b, dense::Matrix& c) {
  spmm_rows(a, b, c, 0, a.rows());
}

dense::Matrix spmm(const Csr& a, const dense::Matrix& b) {
  dense::Matrix c(a.rows(), b.cols());
  spmm(a, b, c);
  return c;
}

std::int64_t spmm_flops(const Csr& a, std::int64_t dense_cols) {
  return 2 * a.nnz() * dense_cols;
}

}  // namespace plexus::sparse
