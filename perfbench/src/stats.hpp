#pragma once
/// \file stats.hpp
/// Order statistics the benchmark reports: median, nearest-rank percentile,
/// and the tail percentile rule (the highest whole percentile with at least
/// ten samples beyond it).

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile, q in [0, 100]. 0 for an empty sample.
template <typename T>
double percentile(std::vector<T> xs, double q) {
  if (xs.empty()) return 0.0;
  const auto n = static_cast<double>(xs.size());
  const auto rank = static_cast<std::size_t>(std::clamp(std::ceil(q / 100.0 * n), 1.0, n));
  std::nth_element(xs.begin(), xs.begin() + static_cast<std::ptrdiff_t>(rank - 1), xs.end());
  return static_cast<double>(xs[rank - 1]);
}

template <typename T>
double median(std::vector<T> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const std::size_t n = xs.size();
  return n % 2 == 1 ? static_cast<double>(xs[n / 2])
                    : 0.5 * (static_cast<double>(xs[n / 2 - 1]) + static_cast<double>(xs[n / 2]));
}

/// Highest whole percentile p (50..99) with at least ten of `n` samples
/// above it; 50 when there are fewer than twenty samples.
inline int tail_percentile(std::int64_t n) {
  int p = 50;
  for (int q = 99; q > 50; --q) {
    if (static_cast<double>(n) * (1.0 - q / 100.0) >= 10.0) {
      p = q;
      break;
    }
  }
  return p;
}

}  // namespace perfbench
