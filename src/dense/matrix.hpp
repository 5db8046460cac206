#pragma once
/// \file matrix.hpp
/// Row-major single-precision dense matrix.
///
/// Training state in Plexus (features, activations, weights) is fp32, matching
/// the paper's SGEMM/SpMM kernels. The class is a thin owning container; all
/// heavy kernels live in gemm.hpp / ops.hpp / sparse/spmm.hpp.

#include <cstdint>
#include <span>
#include <vector>

#include "util/aligned.hpp"
#include "util/rng.hpp"

namespace plexus::dense {

class Matrix {
 public:
  /// Storage contract: the base allocation is `kAlignment`-byte aligned (one
  /// cache line / the AVX-512 vector width) so SIMD kernels get an aligned
  /// starting address, while rows stay **tightly packed** — `row(r) ==
  /// data() + r * cols()` with stride exactly `cols()` — because flat(),
  /// checkpoint IO and the collective row spans all treat the matrix as one
  /// contiguous rows*cols buffer. Alignment never pads the row stride.
  static constexpr std::size_t kAlignment = 64;
  static_assert(kAlignment % sizeof(float) == 0 && kAlignment % alignof(float) == 0,
                "row stride stays a whole number of elements; only the base is over-aligned");

  Matrix() = default;
  Matrix(std::int64_t rows, std::int64_t cols, float fill = 0.0f);

  std::int64_t rows() const { return rows_; }
  std::int64_t cols() const { return cols_; }
  std::int64_t size() const { return rows_ * cols_; }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  std::span<float> flat() { return {data_.data(), data_.size()}; }
  std::span<const float> flat() const { return {data_.data(), data_.size()}; }

  float& at(std::int64_t r, std::int64_t c) { return data_[static_cast<std::size_t>(r * cols_ + c)]; }
  float at(std::int64_t r, std::int64_t c) const {
    return data_[static_cast<std::size_t>(r * cols_ + c)];
  }

  float* row(std::int64_t r) { return data_.data() + r * cols_; }
  const float* row(std::int64_t r) const { return data_.data() + r * cols_; }

  void fill(float v);
  void zero() { fill(0.0f); }

  /// Workspace sizing: reallocate (zero-filled) only when the shape differs,
  /// so a buffer sized on first use keeps its storage, and its old contents,
  /// on every later call. Callers overwrite what they read back.
  void ensure_shape(std::int64_t rows, std::int64_t cols);

  /// Copy of rows [r0, r1) and columns [c0, c1).
  Matrix block(std::int64_t r0, std::int64_t r1, std::int64_t c0, std::int64_t c1) const;

  /// Out-of-place transpose.
  Matrix transposed() const;
  /// Transpose into `out`, which must already be (cols x rows).
  void transpose_into(Matrix& out) const;

  /// Write `src` into this matrix starting at (r0, c0).
  void set_block(std::int64_t r0, std::int64_t c0, const Matrix& src);

  /// Max absolute elementwise difference (for tests).
  static float max_abs_diff(const Matrix& a, const Matrix& b);

  bool same_shape(const Matrix& o) const { return rows_ == o.rows_ && cols_ == o.cols_; }

  /// Deterministic Glorot-uniform init: element (r, c) depends only on
  /// (seed, global_row_offset + r, global_col_offset + c, fan_in, fan_out).
  /// Any sharding of the same logical matrix therefore sees identical values —
  /// the key to validating distributed training against the serial reference.
  static Matrix glorot(std::int64_t rows, std::int64_t cols, std::uint64_t seed,
                       std::int64_t fan_in, std::int64_t fan_out,
                       std::int64_t global_row_offset = 0, std::int64_t global_col_offset = 0,
                       std::int64_t global_cols = -1);

 private:
  std::int64_t rows_ = 0;
  std::int64_t cols_ = 0;
  std::vector<float, util::AlignedAllocator<float, kAlignment>> data_;
};

}  // namespace plexus::dense
