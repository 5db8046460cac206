#pragma once
/// \file generators.hpp
/// Deterministic synthetic graph generators, one per structural class of the
/// paper's six evaluation datasets (Table 4):
///
///  * `rmat`            — power-law Kronecker graphs: social networks (Reddit),
///                        co-purchasing (ogbn-products, products-14M) and
///                        citation graphs (ogbn-papers100M).
///  * `community_graph` — dense overlapping clusters: protein-similarity
///                        networks (Isolate-3-8M from HipMCL).
///  * `road_network`    — partial 2D lattice with shortcuts: OpenStreetMap road
///                        graphs (europe_osm). Row-major node numbering gives
///                        the near-diagonal adjacency whose block imbalance
///                        Table 3 measures.
///  * `erdos_renyi`     — uniform random graphs for unit tests.
///
/// All generators return symmetrised, deduplicated edge lists without self
/// loops, with node ids in their *natural* (community/locality-correlated)
/// order — permutation experiments rely on that.

#include <cstdint>
#include <utility>

#include "sparse/coo.hpp"
#include "util/rng.hpp"

namespace plexus::graph {

/// Dedup key of an undirected edge: min endpoint in the high 32 bits.
inline std::uint64_t edge_key(std::int64_t u, std::int64_t v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | static_cast<std::uint64_t>(v);
}

/// The R-MAT attempt stream: attempt i is the i-th call of `next`. `rmat`
/// accepts the first `target_edges` distinct non-loop keys of this stream
/// within kCapPerEdge * target_edges attempts, and `rmat_to_shards` replays
/// a prefix of the same stream, so both see the same attempts in the same
/// order. Every attempt consumes exactly 2 * scale draws, self-loops
/// included.
class RmatAttempts {
 public:
  static constexpr std::int64_t kCapPerEdge = 8;

  RmatAttempts(int scale, double a, double b, double c, std::uint64_t seed)
      : scale_(scale), a_(a), b_(b), c_(c), rng_(util::hash_combine(seed, 0x27a7)) {}

  /// The next attempt's endpoints; u == v is a self-loop the callers skip.
  std::pair<std::int64_t, std::int64_t> next() {
    std::uint64_t u = 0;
    std::uint64_t v = 0;
    for (int level = 0; level < scale_; ++level) {
      const double r = rng_.next_double();
      // Quadrant choice with light noise so the recursion doesn't self-repeat.
      const double aa = a_ + 0.05 * (rng_.next_double() - 0.5);
      // Top-left if r < aa, else top-right if r < aa + b, else bottom-left if
      // r < aa + b + c, else bottom-right: the three compares folded into the
      // two bits without a branch, because a branch on r is unpredictable.
      const std::uint64_t in_a = r < aa;
      const std::uint64_t in_ab = r < aa + b_;
      const std::uint64_t in_abc = r < aa + b_ + c_;
      u = (u << 1) | ((in_a | in_ab) ^ 1);
      v = (v << 1) | ((in_a ^ 1) & (in_ab | (in_abc ^ 1)));
    }
    return {static_cast<std::int64_t>(u), static_cast<std::int64_t>(v)};
  }

 private:
  int scale_;
  double a_;
  double b_;
  double c_;
  util::SplitMix64 rng_;
};

/// R-MAT / stochastic-Kronecker generator. `scale` = log2(#nodes); emits
/// ~`target_edges` unique undirected edges with partition probabilities
/// (a, b, c, d), a + b + c + d = 1: the first `target_edges` distinct keys
/// of `RmatAttempts`, or every distinct key within its attempt cap if fewer.
/// Natural ordering concentrates hubs at low indices (power-law head).
sparse::Coo rmat(int scale, std::int64_t target_edges, double a, double b, double c, double d,
                 std::uint64_t seed);

/// Overlapping dense-community graph: `num_nodes` nodes in contiguous
/// communities of mean size `community_size`; each node draws ~`avg_degree`
/// neighbours, a fraction `p_in` inside its community, the rest global with
/// mild preferential attachment.
sparse::Coo community_graph(std::int64_t num_nodes, std::int64_t community_size,
                            double avg_degree, double p_in, std::uint64_t seed);

/// Road-network surrogate: `width * height` lattice in row-major order; each
/// lattice edge kept with probability `keep_prob` (road graphs average degree
/// ~2.1, a full lattice is 4); `shortcut_frac * num_nodes` long-range highway
/// edges.
sparse::Coo road_network(std::int64_t width, std::int64_t height, double keep_prob,
                         double shortcut_frac, std::uint64_t seed);

/// Uniform random graph with ~`target_edges` unique undirected edges.
sparse::Coo erdos_renyi(std::int64_t num_nodes, std::int64_t target_edges, std::uint64_t seed);

}  // namespace plexus::graph
