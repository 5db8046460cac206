#include "sparse/csr.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"

namespace plexus::sparse {

Csr::Csr(std::int64_t rows, std::int64_t cols)
    : num_rows_(rows), num_cols_(cols), row_ptr_(static_cast<std::size_t>(rows) + 1, 0) {}

Csr Csr::from_parts(std::int64_t rows, std::int64_t cols, std::vector<std::int64_t> row_ptr,
                    std::vector<std::int32_t> col_idx, std::vector<float> vals) {
  PLEXUS_CHECK(row_ptr.size() == static_cast<std::size_t>(rows) + 1, "row_ptr size");
  PLEXUS_CHECK(col_idx.size() == vals.size(), "col/val size mismatch");
  PLEXUS_CHECK(row_ptr.back() == static_cast<std::int64_t>(col_idx.size()), "row_ptr/nnz");
  Csr out;
  out.num_rows_ = rows;
  out.num_cols_ = cols;
  out.row_ptr_ = std::move(row_ptr);
  out.col_idx_ = std::move(col_idx);
  out.vals_ = std::move(vals);
  return out;
}

Csr Csr::from_coo(const Coo& coo, bool sum_duplicates) {
  const std::int64_t n = coo.nnz();
  Csr out(coo.num_rows, coo.num_cols);

  // Counting pass.
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t r = coo.rows[static_cast<std::size_t>(i)];
    PLEXUS_CHECK(r >= 0 && r < coo.num_rows, "coo row out of range");
    out.row_ptr_[static_cast<std::size_t>(r) + 1]++;
  }
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(), out.row_ptr_.begin());
  out.col_idx_.resize(static_cast<std::size_t>(n));
  out.vals_.resize(static_cast<std::size_t>(n));

  // Scatter pass.
  std::vector<std::int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::int64_t i = 0; i < n; ++i) {
    const std::int64_t r = coo.rows[static_cast<std::size_t>(i)];
    const std::int64_t pos = cursor[static_cast<std::size_t>(r)]++;
    out.col_idx_[static_cast<std::size_t>(pos)] = coo.cols[static_cast<std::size_t>(i)];
    out.vals_[static_cast<std::size_t>(pos)] = coo.vals[static_cast<std::size_t>(i)];
  }

  // Sort each row by column; merge duplicates.
  std::vector<std::int64_t> order;
  std::vector<std::int32_t> tmp_cols;
  std::vector<float> tmp_vals;
  std::vector<std::int64_t> new_ptr(out.row_ptr_.size(), 0);
  tmp_cols.reserve(static_cast<std::size_t>(n));
  tmp_vals.reserve(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < out.num_rows_; ++r) {
    const std::int64_t b = out.row_ptr_[static_cast<std::size_t>(r)];
    const std::int64_t e = out.row_ptr_[static_cast<std::size_t>(r) + 1];
    order.resize(static_cast<std::size_t>(e - b));
    std::iota(order.begin(), order.end(), b);
    std::sort(order.begin(), order.end(), [&](std::int64_t x, std::int64_t y) {
      return out.col_idx_[static_cast<std::size_t>(x)] < out.col_idx_[static_cast<std::size_t>(y)];
    });
    for (const std::int64_t idx : order) {
      const std::int32_t c = out.col_idx_[static_cast<std::size_t>(idx)];
      PLEXUS_CHECK(c >= 0 && c < out.num_cols_, "coo col out of range");
      const float v = out.vals_[static_cast<std::size_t>(idx)];
      if (!tmp_cols.empty() &&
          static_cast<std::int64_t>(tmp_cols.size()) > new_ptr[static_cast<std::size_t>(r)] &&
          tmp_cols.back() == c) {
        if (sum_duplicates) {
          tmp_vals.back() += v;
        }
        // else: keep first occurrence (pattern dedup)
      } else {
        tmp_cols.push_back(c);
        tmp_vals.push_back(v);
      }
    }
    new_ptr[static_cast<std::size_t>(r) + 1] = static_cast<std::int64_t>(tmp_cols.size());
  }
  out.col_idx_ = std::move(tmp_cols);
  out.vals_ = std::move(tmp_vals);
  out.row_ptr_ = std::move(new_ptr);
  return out;
}

Csr Csr::permuted(std::span<const std::int64_t> row_map,
                  std::span<const std::int64_t> col_map) const {
  PLEXUS_CHECK(static_cast<std::int64_t>(row_map.size()) == num_rows_, "row_map size");
  PLEXUS_CHECK(static_cast<std::int64_t>(col_map.size()) == num_cols_, "col_map size");
  Csr out(num_rows_, num_cols_);
  // Count new row sizes.
  for (std::int64_t r = 0; r < num_rows_; ++r) {
    out.row_ptr_[static_cast<std::size_t>(row_map[static_cast<std::size_t>(r)]) + 1] +=
        row_nnz(r);
  }
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(), out.row_ptr_.begin());
  out.col_idx_.resize(static_cast<std::size_t>(nnz()));
  out.vals_.resize(static_cast<std::size_t>(nnz()));
  std::vector<std::int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::int64_t r = 0; r < num_rows_; ++r) {
    const std::int64_t nr = row_map[static_cast<std::size_t>(r)];
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int64_t pos = cursor[static_cast<std::size_t>(nr)]++;
      out.col_idx_[static_cast<std::size_t>(pos)] = static_cast<std::int32_t>(
          col_map[static_cast<std::size_t>(col_idx_[static_cast<std::size_t>(k)])]);
      out.vals_[static_cast<std::size_t>(pos)] = vals_[static_cast<std::size_t>(k)];
    }
  }
  // Restore sorted columns within each row.
  std::vector<std::pair<std::int32_t, float>> rowbuf;
  for (std::int64_t r = 0; r < num_rows_; ++r) {
    const std::int64_t b = out.row_ptr_[static_cast<std::size_t>(r)];
    const std::int64_t e = out.row_ptr_[static_cast<std::size_t>(r) + 1];
    rowbuf.clear();
    for (std::int64_t k = b; k < e; ++k) {
      rowbuf.emplace_back(out.col_idx_[static_cast<std::size_t>(k)],
                          out.vals_[static_cast<std::size_t>(k)]);
    }
    std::sort(rowbuf.begin(), rowbuf.end());
    for (std::int64_t k = b; k < e; ++k) {
      out.col_idx_[static_cast<std::size_t>(k)] = rowbuf[static_cast<std::size_t>(k - b)].first;
      out.vals_[static_cast<std::size_t>(k)] = rowbuf[static_cast<std::size_t>(k - b)].second;
    }
  }
  return out;
}

Csr Csr::transposed() const {
  Csr out(num_cols_, num_rows_);
  for (const std::int32_t c : col_idx_) out.row_ptr_[static_cast<std::size_t>(c) + 1]++;
  std::partial_sum(out.row_ptr_.begin(), out.row_ptr_.end(), out.row_ptr_.begin());
  out.col_idx_.resize(static_cast<std::size_t>(nnz()));
  out.vals_.resize(static_cast<std::size_t>(nnz()));
  std::vector<std::int64_t> cursor(out.row_ptr_.begin(), out.row_ptr_.end() - 1);
  for (std::int64_t r = 0; r < num_rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      const std::int32_t c = col_idx_[static_cast<std::size_t>(k)];
      const std::int64_t pos = cursor[static_cast<std::size_t>(c)]++;
      out.col_idx_[static_cast<std::size_t>(pos)] = static_cast<std::int32_t>(r);
      out.vals_[static_cast<std::size_t>(pos)] = vals_[static_cast<std::size_t>(k)];
    }
  }
  return out;  // columns are sorted because we scan rows in order
}

Csr Csr::block(std::int64_t r0, std::int64_t r1, std::int64_t c0, std::int64_t c1) const {
  PLEXUS_CHECK(0 <= r0 && r0 <= r1 && r1 <= num_rows_, "block row range");
  PLEXUS_CHECK(0 <= c0 && c0 <= c1 && c1 <= num_cols_, "block col range");
  Csr out(r1 - r0, c1 - c0);
  for (std::int64_t r = r0; r < r1; ++r) {
    const auto b = row_ptr_[static_cast<std::size_t>(r)];
    const auto e = row_ptr_[static_cast<std::size_t>(r) + 1];
    // Columns sorted: binary search the [c0, c1) window.
    const auto* cb = col_idx_.data() + b;
    const auto* ce = col_idx_.data() + e;
    const auto* lo = std::lower_bound(cb, ce, static_cast<std::int32_t>(c0));
    const auto* hi = std::lower_bound(cb, ce, static_cast<std::int32_t>(c1));
    for (const auto* p = lo; p != hi; ++p) {
      out.col_idx_.push_back(static_cast<std::int32_t>(*p - c0));
      out.vals_.push_back(vals_[static_cast<std::size_t>(b + (p - cb))]);
    }
    out.row_ptr_[static_cast<std::size_t>(r - r0) + 1] =
        static_cast<std::int64_t>(out.col_idx_.size());
  }
  return out;
}

Csr Csr::row_slice(std::int64_t r0, std::int64_t r1) const {
  return block(r0, r1, 0, num_cols_);
}

std::int64_t Csr::block_nnz(std::int64_t r0, std::int64_t r1, std::int64_t c0,
                            std::int64_t c1) const {
  std::int64_t total = 0;
  for (std::int64_t r = r0; r < r1; ++r) {
    const auto b = row_ptr_[static_cast<std::size_t>(r)];
    const auto e = row_ptr_[static_cast<std::size_t>(r) + 1];
    const auto* cb = col_idx_.data() + b;
    const auto* ce = col_idx_.data() + e;
    total += std::lower_bound(cb, ce, static_cast<std::int32_t>(c1)) -
             std::lower_bound(cb, ce, static_cast<std::int32_t>(c0));
  }
  return total;
}

std::vector<std::int32_t> Csr::referenced_cols(std::int64_t c0, std::int64_t c1) const {
  std::vector<bool> seen(static_cast<std::size_t>(c1 - c0), false);
  for (const std::int32_t c : col_idx_) {
    if (c >= c0 && c < c1) seen[static_cast<std::size_t>(c - c0)] = true;
  }
  std::vector<std::int32_t> out;
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i]) out.push_back(static_cast<std::int32_t>(c0 + static_cast<std::int64_t>(i)));
  }
  return out;
}

std::vector<float> Csr::to_dense() const {
  std::vector<float> dense(static_cast<std::size_t>(num_rows_ * num_cols_), 0.0f);
  for (std::int64_t r = 0; r < num_rows_; ++r) {
    for (std::int64_t k = row_ptr_[static_cast<std::size_t>(r)];
         k < row_ptr_[static_cast<std::size_t>(r) + 1]; ++k) {
      dense[static_cast<std::size_t>(r * num_cols_ + col_idx_[static_cast<std::size_t>(k)])] +=
          vals_[static_cast<std::size_t>(k)];
    }
  }
  return dense;
}

bool Csr::equal(const Csr& a, const Csr& b, float tol) {
  if (a.num_rows_ != b.num_rows_ || a.num_cols_ != b.num_cols_) return false;
  if (a.row_ptr_ != b.row_ptr_ || a.col_idx_ != b.col_idx_) return false;
  for (std::size_t i = 0; i < a.vals_.size(); ++i) {
    if (std::abs(a.vals_[i] - b.vals_[i]) > tol) return false;
  }
  return true;
}

Csr normalize_adjacency(const Csr& a, std::int64_t active_nodes) {
  PLEXUS_CHECK(a.rows() == a.cols(), "normalize_adjacency: square matrix required");
  PLEXUS_CHECK(active_nodes <= a.rows(), "active_nodes exceeds matrix size");

  // Degrees of (A + I) over active nodes.
  std::vector<double> degree(static_cast<std::size_t>(a.rows()), 0.0);
  for (std::int64_t r = 0; r < active_nodes; ++r) degree[static_cast<std::size_t>(r)] = 1.0;
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    for (std::int64_t k = rp[static_cast<std::size_t>(r)]; k < rp[static_cast<std::size_t>(r) + 1];
         ++k) {
      if (ci[static_cast<std::size_t>(k)] != r) degree[static_cast<std::size_t>(r)] += 1.0;
    }
  }

  std::vector<double> inv_sqrt(degree.size(), 0.0);
  for (std::size_t i = 0; i < degree.size(); ++i) {
    inv_sqrt[i] = degree[i] > 0.0 ? 1.0 / std::sqrt(degree[i]) : 0.0;
  }

  // Build (A + I) with normalised values.
  Coo coo;
  coo.num_rows = a.rows();
  coo.num_cols = a.cols();
  const auto va = a.vals();
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    bool has_self = false;
    for (std::int64_t k = rp[static_cast<std::size_t>(r)]; k < rp[static_cast<std::size_t>(r) + 1];
         ++k) {
      const std::int32_t c = ci[static_cast<std::size_t>(k)];
      if (c == r) has_self = true;
      // The degree product first: (r, c) and (c, r) scale by the same double.
      const double scale =
          inv_sqrt[static_cast<std::size_t>(r)] * inv_sqrt[static_cast<std::size_t>(c)];
      const double w = static_cast<double>(va[static_cast<std::size_t>(k)]) * scale;
      coo.push(r, c, static_cast<float>(w));
    }
    if (!has_self && r < active_nodes) {
      coo.push(r, r,
               static_cast<float>(inv_sqrt[static_cast<std::size_t>(r)] *
                                  inv_sqrt[static_cast<std::size_t>(r)]));
    }
  }
  return Csr::from_coo(coo);
}

void check_symmetric(const Csr& a, const std::string& what) {
  PLEXUS_CHECK(a.rows() == a.cols(), what + ": a symmetric matrix must be square");
  const Csr t = a.transposed();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  const auto va = a.vals();
  const auto trp = t.row_ptr();
  const auto tci = t.col_idx();
  const auto tva = t.vals();
  const auto edge = [](std::int64_t r, std::int64_t c, float v) {
    return "edge (" + std::to_string(r) + ", " + std::to_string(c) + ", " + std::to_string(v) +
           ")";
  };
  const auto twin = [](std::int64_t r, std::int64_t c) {
    return " has no twin (" + std::to_string(c) + ", " + std::to_string(r) + ")";
  };
  // Row r of `a` and row r of its transpose list the same (column, value)
  // pairs exactly when every entry has its twin. Where they first differ,
  // the smaller column is an entry without a twin; equal columns are twins
  // with unequal values.
  for (std::int64_t r = 0; r < a.rows(); ++r) {
    const auto end = rp[static_cast<std::size_t>(r) + 1];
    const auto end_t = trp[static_cast<std::size_t>(r) + 1];
    auto k = rp[static_cast<std::size_t>(r)];
    auto kt = trp[static_cast<std::size_t>(r)];
    for (; k < end || kt < end_t; ++k, ++kt) {
      const auto i = static_cast<std::size_t>(k);
      const auto it = static_cast<std::size_t>(kt);
      PLEXUS_CHECK(kt < end_t && (k == end || ci[i] >= tci[it]),
                   what + ": " + edge(r, ci[i], va[i]) + twin(r, ci[i]));
      PLEXUS_CHECK(k < end && tci[it] >= ci[i],
                   what + ": " + edge(tci[it], r, tva[it]) + twin(tci[it], r));
      PLEXUS_CHECK(va[i] == tva[it], what + ": " + edge(r, ci[i], va[i]) + " and its twin " +
                                         edge(ci[i], r, tva[it]) + " differ in value");
    }
  }
}

}  // namespace plexus::sparse
