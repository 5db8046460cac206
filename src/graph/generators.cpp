#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace plexus::graph {

namespace {

/// Convert a set of undirected edges into a symmetric COO (both directions).
sparse::Coo to_symmetric_coo(std::int64_t num_nodes,
                             const std::vector<std::pair<std::int64_t, std::int64_t>>& edges) {
  sparse::Coo coo;
  coo.num_rows = num_nodes;
  coo.num_cols = num_nodes;
  coo.rows.reserve(edges.size() * 2);
  coo.cols.reserve(edges.size() * 2);
  coo.vals.reserve(edges.size() * 2);
  for (const auto& [u, v] : edges) {
    coo.push(u, v, 1.0f);
    coo.push(v, u, 1.0f);
  }
  return coo;
}

}  // namespace

sparse::Coo rmat(int scale, std::int64_t target_edges, double a, double b, double c, double d,
                 std::uint64_t seed) {
  PLEXUS_CHECK(scale >= 1 && scale < 31, "rmat scale out of range");
  PLEXUS_CHECK(std::abs(a + b + c + d - 1.0) < 1e-9, "rmat probabilities must sum to 1");
  const std::int64_t n = std::int64_t{1} << scale;
  RmatAttempts stream(scale, a, b, c, seed);

  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(target_edges) * 2);
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(target_edges));

  const std::int64_t max_attempts = target_edges * RmatAttempts::kCapPerEdge;
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(edges.size()) < target_edges && attempts < max_attempts) {
    ++attempts;
    const auto [u, v] = stream.next();
    if (u == v) continue;
    if (seen.insert(edge_key(u, v)).second) edges.emplace_back(u, v);
  }
  return to_symmetric_coo(n, edges);
}

sparse::Coo community_graph(std::int64_t num_nodes, std::int64_t community_size,
                            double avg_degree, double p_in, std::uint64_t seed) {
  PLEXUS_CHECK(num_nodes > 1 && community_size > 1, "community_graph sizes");
  util::SplitMix64 rng(util::hash_combine(seed, 0xc0330));

  // Contiguous community boundaries with +-50% size jitter.
  std::vector<std::int64_t> starts{0};
  while (starts.back() < num_nodes) {
    const auto sz = static_cast<std::int64_t>(
        static_cast<double>(community_size) * (0.5 + rng.next_double()));
    starts.push_back(std::min(num_nodes, starts.back() + std::max<std::int64_t>(2, sz)));
  }
  const std::int64_t num_comms = static_cast<std::int64_t>(starts.size()) - 1;

  auto community_of = [&](std::int64_t node) {
    const auto it = std::upper_bound(starts.begin(), starts.end(), node);
    return static_cast<std::int64_t>(it - starts.begin()) - 1;
  };

  const auto target_edges =
      static_cast<std::int64_t>(static_cast<double>(num_nodes) * avg_degree / 2.0);
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(static_cast<std::size_t>(target_edges) * 2);
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(target_edges));

  const std::int64_t max_attempts = target_edges * 8;
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(edges.size()) < target_edges && attempts < max_attempts) {
    ++attempts;
    const auto u = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    std::int64_t v;
    if (rng.next_double() < p_in) {
      const std::int64_t comm = community_of(u);
      const std::int64_t lo = starts[static_cast<std::size_t>(comm)];
      const std::int64_t hi = starts[static_cast<std::size_t>(comm) + 1];
      v = lo + static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(hi - lo)));
    } else if (rng.next_double() < 0.3) {
      // Mild preferential attachment: reuse an endpoint of an existing edge.
      if (edges.empty()) continue;
      const auto& e = edges[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(edges.size())))];
      v = rng.next_double() < 0.5 ? e.first : e.second;
    } else {
      v = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    }
    if (u == v) continue;
    if (seen.insert(edge_key(u, v)).second) edges.emplace_back(u, v);
  }
  (void)num_comms;
  return to_symmetric_coo(num_nodes, edges);
}

sparse::Coo road_network(std::int64_t width, std::int64_t height, double keep_prob,
                         double shortcut_frac, std::uint64_t seed) {
  PLEXUS_CHECK(width > 1 && height > 1, "road_network dims");
  const std::int64_t n = width * height;
  util::SplitMix64 rng(util::hash_combine(seed, 0x20ad));

  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  edges.reserve(static_cast<std::size_t>(static_cast<double>(2 * n) * keep_prob));
  for (std::int64_t y = 0; y < height; ++y) {
    for (std::int64_t x = 0; x < width; ++x) {
      const std::int64_t node = y * width + x;
      if (x + 1 < width && rng.next_double() < keep_prob) edges.emplace_back(node, node + 1);
      if (y + 1 < height && rng.next_double() < keep_prob) edges.emplace_back(node, node + width);
    }
  }
  const auto num_shortcuts = static_cast<std::int64_t>(static_cast<double>(n) * shortcut_frac);
  std::unordered_set<std::uint64_t> seen;
  for (const auto& [u, v] : edges) seen.insert(edge_key(u, v));
  for (std::int64_t i = 0; i < num_shortcuts; ++i) {
    const auto u = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    const auto v = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(n)));
    if (u == v) continue;
    if (seen.insert(edge_key(u, v)).second) edges.emplace_back(u, v);
  }
  return to_symmetric_coo(n, edges);
}

sparse::Coo erdos_renyi(std::int64_t num_nodes, std::int64_t target_edges, std::uint64_t seed) {
  PLEXUS_CHECK(num_nodes > 1, "erdos_renyi size");
  util::SplitMix64 rng(util::hash_combine(seed, 0xe12d05));
  std::unordered_set<std::uint64_t> seen;
  std::vector<std::pair<std::int64_t, std::int64_t>> edges;
  const std::int64_t max_attempts = target_edges * 10;
  std::int64_t attempts = 0;
  while (static_cast<std::int64_t>(edges.size()) < target_edges && attempts < max_attempts) {
    ++attempts;
    const auto u = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    const auto v = static_cast<std::int64_t>(rng.next_below(static_cast<std::uint64_t>(num_nodes)));
    if (u == v) continue;
    if (seen.insert(edge_key(u, v)).second) edges.emplace_back(u, v);
  }
  return to_symmetric_coo(num_nodes, edges);
}

}  // namespace plexus::graph
