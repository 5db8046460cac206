#include "dense/matrix.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace plexus::dense {

Matrix::Matrix(std::int64_t rows, std::int64_t cols, float fill)
    : rows_(rows), cols_(cols), data_(static_cast<std::size_t>(rows * cols), fill) {
  PLEXUS_CHECK(rows >= 0 && cols >= 0, "negative matrix dims");
}

void Matrix::fill(float v) { std::fill(data_.begin(), data_.end(), v); }

Matrix Matrix::block(std::int64_t r0, std::int64_t r1, std::int64_t c0, std::int64_t c1) const {
  PLEXUS_CHECK(0 <= r0 && r0 <= r1 && r1 <= rows_, "bad row range");
  PLEXUS_CHECK(0 <= c0 && c0 <= c1 && c1 <= cols_, "bad col range");
  Matrix out(r1 - r0, c1 - c0);
  for (std::int64_t r = r0; r < r1; ++r) {
    std::copy(row(r) + c0, row(r) + c1, out.row(r - r0));
  }
  return out;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::int64_t r = 0; r < rows_; ++r) {
    for (std::int64_t c = 0; c < cols_; ++c) out.at(c, r) = at(r, c);
  }
  return out;
}

void Matrix::set_block(std::int64_t r0, std::int64_t c0, const Matrix& src) {
  PLEXUS_CHECK(r0 + src.rows() <= rows_ && c0 + src.cols() <= cols_, "set_block out of range");
  for (std::int64_t r = 0; r < src.rows(); ++r) {
    std::copy(src.row(r), src.row(r) + src.cols(), row(r0 + r) + c0);
  }
}

float Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  PLEXUS_CHECK(a.same_shape(b), "max_abs_diff shape mismatch");
  float m = 0.0f;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

Matrix Matrix::glorot(std::int64_t rows, std::int64_t cols, std::uint64_t seed,
                      std::int64_t fan_in, std::int64_t fan_out,
                      std::int64_t global_row_offset, std::int64_t global_col_offset,
                      std::int64_t global_cols) {
  if (global_cols < 0) global_cols = cols;
  const float limit =
      std::sqrt(6.0f / static_cast<float>(std::max<std::int64_t>(1, fan_in + fan_out)));
  util::CounterRng rng(seed);
  Matrix out(rows, cols);
  for (std::int64_t r = 0; r < rows; ++r) {
    for (std::int64_t c = 0; c < cols; ++c) {
      const auto counter = static_cast<std::uint64_t>((global_row_offset + r) * global_cols +
                                                      (global_col_offset + c));
      out.at(r, c) = rng.uniform_at(counter, -limit, limit);
    }
  }
  return out;
}

}  // namespace plexus::dense
