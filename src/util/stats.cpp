#include "util/stats.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace plexus::util {

Summary summarize(const std::vector<double>& xs) {
  Summary s;
  s.count = xs.size();
  if (xs.empty()) return s;
  s.min = std::numeric_limits<double>::infinity();
  s.max = -std::numeric_limits<double>::infinity();
  double sum = 0.0;
  for (const double x : xs) {
    sum += x;
    s.min = std::min(s.min, x);
    s.max = std::max(s.max, x);
  }
  s.mean = sum / static_cast<double>(xs.size());
  double ss = 0.0;
  for (const double x : xs) ss += (x - s.mean) * (x - s.mean);
  s.stddev = xs.size() > 1 ? std::sqrt(ss / static_cast<double>(xs.size() - 1)) : 0.0;
  return s;
}

double max_over_mean(const std::vector<double>& xs) {
  const Summary s = summarize(xs);
  PLEXUS_CHECK(s.count > 0 && s.mean != 0.0, "max_over_mean of empty/zero data");
  return s.max / s.mean;
}

int LogHistogram::bucket_of(double x) {
  if (!(x >= std::ldexp(1.0, kMinExp))) return 0;  // also negatives and NaN
  if (x >= std::ldexp(1.0, kMaxExp)) return kBuckets - 1;
  int exp = 0;
  const double m = std::frexp(x, &exp);  // x = m * 2^exp, m in [0.5, 1)
  // x lies in octave exp - 1; (2m - 1) * kSubBuckets is exact in double.
  const int sub = static_cast<int>((2.0 * m - 1.0) * kSubBuckets);
  return (exp - 1 - kMinExp) * kSubBuckets + sub;
}

void LogHistogram::record(double x) {
  ++counts_[static_cast<std::size_t>(bucket_of(x))];
  min_ = count_ == 0 ? x : std::min(min_, x);
  max_ = count_ == 0 ? x : std::max(max_, x);
  ++count_;
  sum_ += x;
}

double LogHistogram::percentile(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(std::llround(q * static_cast<double>(count_ - 1)));
  std::int64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts_[static_cast<std::size_t>(i)];
    if (seen > rank) {
      const double mid = std::ldexp(1.0 + (i % kSubBuckets + 0.5) / kSubBuckets,
                                    i / kSubBuckets + kMinExp);
      return std::clamp(mid, min_, max_);
    }
  }
  return max_;
}

std::vector<double> solve_linear_system(std::vector<double> A, std::vector<double> b,
                                        std::size_t n) {
  PLEXUS_CHECK(A.size() == n * n && b.size() == n, "solve_linear_system: bad shapes");
  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivot.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::abs(A[r * n + col]) > std::abs(A[pivot * n + col])) pivot = r;
    }
    if (std::abs(A[pivot * n + col]) < 1e-12) {
      // Tiny ridge bump keeps near-singular fits usable instead of exploding.
      A[col * n + col] += 1e-8;
    }
    if (pivot != col) {
      for (std::size_t c = 0; c < n; ++c) std::swap(A[col * n + c], A[pivot * n + c]);
      std::swap(b[col], b[pivot]);
    }
    const double d = A[col * n + col];
    PLEXUS_CHECK(std::abs(d) > 0.0, "singular system");
    for (std::size_t r = col + 1; r < n; ++r) {
      const double f = A[r * n + col] / d;
      if (f == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) A[r * n + c] -= f * A[col * n + c];
      b[r] -= f * b[col];
    }
  }
  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double acc = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) acc -= A[ri * n + c] * x[c];
    x[ri] = acc / A[ri * n + ri];
  }
  return x;
}

std::vector<double> linear_regression(const std::vector<std::vector<double>>& X,
                                      const std::vector<double>& y, bool add_intercept) {
  PLEXUS_CHECK(!X.empty() && X.size() == y.size(), "linear_regression: bad shapes");
  const std::size_t k_raw = X[0].size();
  const std::size_t k = k_raw + (add_intercept ? 1 : 0);
  const std::size_t n = X.size();

  // Normal equations: (X^T X) beta = X^T y.
  std::vector<double> XtX(k * k, 0.0);
  std::vector<double> Xty(k, 0.0);
  std::vector<double> row(k, 1.0);
  for (std::size_t i = 0; i < n; ++i) {
    PLEXUS_CHECK(X[i].size() == k_raw, "linear_regression: ragged X");
    const std::size_t off = add_intercept ? 1 : 0;
    for (std::size_t j = 0; j < k_raw; ++j) row[j + off] = X[i][j];
    if (add_intercept) row[0] = 1.0;
    for (std::size_t a = 0; a < k; ++a) {
      Xty[a] += row[a] * y[i];
      for (std::size_t b2 = 0; b2 < k; ++b2) XtX[a * k + b2] += row[a] * row[b2];
    }
  }
  return solve_linear_system(std::move(XtX), std::move(Xty), k);
}

std::vector<double> linear_predict(const std::vector<std::vector<double>>& X,
                                   const std::vector<double>& beta, bool has_intercept) {
  std::vector<double> out;
  out.reserve(X.size());
  for (const auto& x : X) {
    double v = has_intercept ? beta[0] : 0.0;
    const std::size_t off = has_intercept ? 1 : 0;
    PLEXUS_CHECK(x.size() + off == beta.size(), "linear_predict: bad shapes");
    for (std::size_t j = 0; j < x.size(); ++j) v += x[j] * beta[j + off];
    out.push_back(v);
  }
  return out;
}

double r_squared(const std::vector<double>& y_true, const std::vector<double>& y_pred) {
  PLEXUS_CHECK(y_true.size() == y_pred.size() && !y_true.empty(), "r_squared shapes");
  const Summary s = summarize(y_true);
  double ss_res = 0.0;
  double ss_tot = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    ss_res += (y_true[i] - y_pred[i]) * (y_true[i] - y_pred[i]);
    ss_tot += (y_true[i] - s.mean) * (y_true[i] - s.mean);
  }
  if (ss_tot == 0.0) return ss_res == 0.0 ? 1.0 : 0.0;
  return 1.0 - ss_res / ss_tot;
}

double rmse(const std::vector<double>& y_true, const std::vector<double>& y_pred) {
  PLEXUS_CHECK(y_true.size() == y_pred.size() && !y_true.empty(), "rmse shapes");
  double ss = 0.0;
  for (std::size_t i = 0; i < y_true.size(); ++i) {
    ss += (y_true[i] - y_pred[i]) * (y_true[i] - y_pred[i]);
  }
  return std::sqrt(ss / static_cast<double>(y_true.size()));
}

std::pair<double, double> fit_power_law(const std::vector<double>& x,
                                        const std::vector<double>& y) {
  PLEXUS_CHECK(x.size() == y.size() && x.size() >= 2, "fit_power_law: need >= 2 points");
  std::vector<std::vector<double>> lx;
  std::vector<double> ly;
  for (std::size_t i = 0; i < x.size(); ++i) {
    PLEXUS_CHECK(x[i] > 0.0 && y[i] > 0.0, "fit_power_law: positive data required");
    lx.push_back({std::log(x[i])});
    ly.push_back(std::log(y[i]));
  }
  const auto beta = linear_regression(lx, ly, /*add_intercept=*/true);
  return {std::exp(beta[0]), beta[1]};
}

}  // namespace plexus::util
