#pragma once
/// \file rng.hpp
/// Deterministic random number generation.
///
/// Two flavours are provided:
///  * `SplitMix64` — a tiny, fast sequential PRNG for workload generation.
///  * counter-based hashing (`hash_u64`, `CounterRng`) — a *stateless* generator
///    where the i-th value is a pure function of (seed, counter). This is the
///    backbone of reproducibility across parallel configurations: weight element
///    (layer, i, j) and feature element (node, k) are derived from coordinates,
///    so a serial run and every 3D-sharded run initialise the *same* model.

#include <cstdint>
#include <vector>

namespace plexus::util {

/// splitmix64 step; also used as a high-quality 64-bit finalizer/hash.
constexpr std::uint64_t hash_u64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Combine two 64-bit values into one hash (order-sensitive).
constexpr std::uint64_t hash_combine(std::uint64_t a, std::uint64_t b) {
  return hash_u64(a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2)));
}

/// Sequential PRNG (state-of-the-art quality for its size; Vigna 2015).
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed = 0x853c49e6748fea9bULL) : state_(seed) {}

  std::uint64_t next_u64() {
    state_ += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() { return static_cast<double>(next_u64() >> 11) * 0x1.0p-53; }

  /// Uniform float in [0, 1).
  float next_float() { return static_cast<float>(next_double()); }

  /// Uniform integer in [0, n) without modulo bias for the sizes we use.
  std::uint64_t next_below(std::uint64_t n) {
    return n == 0 ? 0 : next_u64() % n;
  }

 private:
  std::uint64_t state_;
};

/// Stateless counter-based generator: value(i) is a pure function of (seed, i).
class CounterRng {
 public:
  explicit CounterRng(std::uint64_t seed) : seed_(seed) {}

  std::uint64_t u64_at(std::uint64_t counter) const {
    return hash_u64(hash_combine(seed_, counter));
  }
  /// Uniform double in [0,1) at the given counter.
  double uniform_at(std::uint64_t counter) const {
    return static_cast<double>(u64_at(counter) >> 11) * 0x1.0p-53;
  }
  /// Uniform float in [lo, hi) at the given counter.
  float uniform_at(std::uint64_t counter, float lo, float hi) const {
    return lo + (hi - lo) * static_cast<float>(uniform_at(counter));
  }

 private:
  std::uint64_t seed_;
};

/// Deterministic Fisher–Yates permutation of {0, ..., n-1}.
std::vector<std::int64_t> random_permutation(std::int64_t n, std::uint64_t seed);

/// Identity permutation of {0, ..., n-1}.
std::vector<std::int64_t> identity_permutation(std::int64_t n);

/// The two preprocessing permutations of a permutation scheme (paper section
/// 5.1) over `n` padded node ids: rows P_r and columns P_c, drawn from
/// `seed`. The one derivation behind in-memory preprocessing, streamed shard
/// generation and the serving id map, so all three place node u on the same
/// rows. `scheme` is core::PermutationScheme as an int, keeping util/ below
/// graph/ and core/: 0 (none) = identity for both, 1 (single) = one random
/// permutation for both, 2 (double) = independent random P_r and P_c.
struct SchemePermutations {
  std::vector<std::int64_t> rows;  ///< P_r: node u -> row of the even-layer adjacency
  std::vector<std::int64_t> cols;  ///< P_c: node u -> column (feature row) of it

  /// Row order of an L-layer GCN's output, and so of its labels and masks:
  /// P_r when (L-1) is even, else P_c.
  const std::vector<std::int64_t>& output(int num_layers) const {
    return (num_layers - 1) % 2 == 0 ? rows : cols;
  }
};

SchemePermutations scheme_permutations(int scheme, std::int64_t n, std::uint64_t seed);

/// Inverse of a permutation: out[perm[i]] = i.
std::vector<std::int64_t> invert_permutation(const std::vector<std::int64_t>& perm);

/// True iff `perm` is a permutation of {0, ..., n-1}.
bool is_permutation(const std::vector<std::int64_t>& perm);

}  // namespace plexus::util
