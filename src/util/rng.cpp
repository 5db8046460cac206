#include "util/rng.hpp"

#include <numeric>

#include "util/error.hpp"

namespace plexus::util {

std::vector<std::int64_t> random_permutation(std::int64_t n, std::uint64_t seed) {
  PLEXUS_CHECK(n >= 0, "permutation size must be non-negative");
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), std::int64_t{0});
  SplitMix64 rng(seed);
  for (std::int64_t i = n - 1; i > 0; --i) {
    const auto j = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(i) + 1));
    std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
  }
  return perm;
}

std::vector<std::int64_t> identity_permutation(std::int64_t n) {
  std::vector<std::int64_t> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), std::int64_t{0});
  return perm;
}

SchemePermutations scheme_permutations(int scheme, std::int64_t n, std::uint64_t seed) {
  PLEXUS_CHECK(scheme >= 0 && scheme <= 2, "unknown permutation scheme");
  SchemePermutations p;
  p.rows = scheme == 0 ? identity_permutation(n) : random_permutation(n, hash_combine(seed, 1));
  p.cols = scheme == 2 ? random_permutation(n, hash_combine(seed, 2)) : p.rows;
  return p;
}

std::vector<std::int64_t> invert_permutation(const std::vector<std::int64_t>& perm) {
  std::vector<std::int64_t> inv(perm.size());
  for (std::size_t i = 0; i < perm.size(); ++i) {
    inv[static_cast<std::size_t>(perm[i])] = static_cast<std::int64_t>(i);
  }
  return inv;
}

bool is_permutation(const std::vector<std::int64_t>& perm) {
  std::vector<bool> seen(perm.size(), false);
  for (const auto v : perm) {
    if (v < 0 || static_cast<std::size_t>(v) >= perm.size()) return false;
    if (seen[static_cast<std::size_t>(v)]) return false;
    seen[static_cast<std::size_t>(v)] = true;
  }
  return true;
}

}  // namespace plexus::util
