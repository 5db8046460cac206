#pragma once
/// \file stats.hpp
/// Small statistics toolkit: summaries, ordinary least squares (normal
/// equations), and regression quality metrics (R^2, RMSE). Used by the
/// performance model (section 4.1 of the paper fits a 3-term linear model and
/// reports train/test R^2 and RMSE over random splits).

#include <array>
#include <cstdint>
#include <vector>

namespace plexus::util {

struct Summary {
  double mean = 0.0;
  double stddev = 0.0;
  double min = 0.0;
  double max = 0.0;
  std::size_t count = 0;
};

Summary summarize(const std::vector<double>& xs);

/// Ratio of max to mean; the paper's load-imbalance metric (Table 3).
double max_over_mean(const std::vector<double>& xs);

/// Fixed log-bucket histogram of non-negative samples, for counters that
/// must not grow with the number of samples (serve latencies). Each octave
/// [2^e, 2^(e+1)), kMinExp <= e < kMaxExp, is split into kSubBuckets equal
/// buckets held in a member array, so record() never allocates. Samples below
/// 2^kMinExp share the first bucket, samples at or above 2^kMaxExp the last.
/// count() and sum() are exact. percentile(q) finds the sample of rank
/// round(q * (count - 1)) in sorted order (what std::nth_element at that
/// index returns) and reports its bucket's midpoint, clamped to the observed
/// [min, max]: within kRelativeError of the sample when the sample lies in
/// [2^kMinExp, 2^kMaxExp).
class LogHistogram {
 public:
  static constexpr int kMinExp = -4;
  static constexpr int kMaxExp = 36;
  static constexpr int kSubBuckets = 64;
  static constexpr double kRelativeError = 0.5 / kSubBuckets;

  void record(double x);
  std::int64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ > 0 ? sum_ / static_cast<double>(count_) : 0.0; }
  /// q in [0, 1]; 0 when empty.
  double percentile(double q) const;

 private:
  static constexpr int kBuckets = (kMaxExp - kMinExp) * kSubBuckets;
  static int bucket_of(double x);

  std::array<std::int64_t, kBuckets> counts_{};
  std::int64_t count_ = 0;
  double sum_ = 0.0;
  double min_ = 0.0;
  double max_ = 0.0;
};

/// Ordinary least squares: fit y ~ X * beta (+ intercept if add_intercept).
/// X is row-major, n rows of k features. Returns beta of size k (+1 leading
/// intercept term when requested). Solves the normal equations with partial
/// pivoting; rank deficiency falls back to tiny ridge regularisation.
std::vector<double> linear_regression(const std::vector<std::vector<double>>& X,
                                      const std::vector<double>& y,
                                      bool add_intercept = false);

/// Predictions for a fitted model (same layout conventions as linear_regression).
std::vector<double> linear_predict(const std::vector<std::vector<double>>& X,
                                   const std::vector<double>& beta,
                                   bool has_intercept = false);

/// Coefficient of determination.
double r_squared(const std::vector<double>& y_true, const std::vector<double>& y_pred);

/// Root mean squared error.
double rmse(const std::vector<double>& y_true, const std::vector<double>& y_pred);

/// Solve a dense linear system A x = b (A row-major n*n) by Gaussian
/// elimination with partial pivoting. Throws on singular systems.
std::vector<double> solve_linear_system(std::vector<double> A, std::vector<double> b,
                                        std::size_t n);

/// Fit y = a * x^b by log-log least squares (x, y > 0 required).
/// Returns {a, b}. Used to extrapolate structural curves (e.g. boundary-node
/// growth with partition count) measured on scaled-down proxy graphs.
std::pair<double, double> fit_power_law(const std::vector<double>& x,
                                        const std::vector<double>& y);

}  // namespace plexus::util
