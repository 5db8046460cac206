#include "partition/partitioner.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace plexus::part {

std::vector<std::int64_t> Partitioning::part_sizes() const {
  std::vector<std::int64_t> sizes(static_cast<std::size_t>(num_parts), 0);
  for (const auto a : assignment) sizes[static_cast<std::size_t>(a)]++;
  return sizes;
}

Partitioning random_partition(std::int64_t num_nodes, int parts, std::uint64_t seed) {
  PLEXUS_CHECK(parts >= 1, "parts must be positive");
  Partitioning p;
  p.num_parts = parts;
  p.assignment.resize(static_cast<std::size_t>(num_nodes));
  util::CounterRng rng(util::hash_combine(seed, 0x9a27));
  for (std::int64_t v = 0; v < num_nodes; ++v) {
    p.assignment[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(
        rng.u64_at(static_cast<std::uint64_t>(v)) % static_cast<std::uint64_t>(parts));
  }
  return p;
}

Partitioning fennel_partition(const sparse::Csr& adj, int parts, std::uint64_t seed, int passes,
                              double gamma, double slack) {
  PLEXUS_CHECK(adj.rows() == adj.cols(), "fennel: square adjacency required");
  PLEXUS_CHECK(parts >= 1 && passes >= 1, "fennel: bad params");
  const std::int64_t n = adj.rows();
  const std::int64_t m = adj.nnz();

  Partitioning p;
  p.num_parts = parts;
  p.assignment.assign(static_cast<std::size_t>(n), -1);
  if (parts == 1) {
    std::fill(p.assignment.begin(), p.assignment.end(), 0);
    return p;
  }

  // Fennel's alpha balances the cut term against the size penalty.
  const double alpha = std::sqrt(static_cast<double>(parts)) * static_cast<double>(m) /
                       std::pow(static_cast<double>(n), gamma);
  const auto cap = static_cast<std::int64_t>(
      slack * static_cast<double>(n) / static_cast<double>(parts)) + 1;

  std::vector<std::int64_t> sizes(static_cast<std::size_t>(parts), 0);
  std::vector<double> neighbour_count(static_cast<std::size_t>(parts), 0.0);
  const auto rp = adj.row_ptr();
  const auto ci = adj.col_idx();

  // Stream in a deterministic shuffled order (natural order would seed all
  // early communities into part 0).
  const auto order = util::random_permutation(n, util::hash_combine(seed, 0xfe77e1));

  for (int pass = 0; pass < passes; ++pass) {
    for (const auto v : order) {
      // Remove v's current assignment (refinement passes).
      const auto cur = p.assignment[static_cast<std::size_t>(v)];
      if (cur >= 0) sizes[static_cast<std::size_t>(cur)]--;

      std::fill(neighbour_count.begin(), neighbour_count.end(), 0.0);
      for (std::int64_t k = rp[static_cast<std::size_t>(v)];
           k < rp[static_cast<std::size_t>(v) + 1]; ++k) {
        const auto u = ci[static_cast<std::size_t>(k)];
        const auto pu = p.assignment[static_cast<std::size_t>(u)];
        if (pu >= 0) neighbour_count[static_cast<std::size_t>(pu)] += 1.0;
      }
      int best = 0;
      double best_score = -1e300;
      for (int i = 0; i < parts; ++i) {
        if (sizes[static_cast<std::size_t>(i)] >= cap) continue;
        const double score =
            neighbour_count[static_cast<std::size_t>(i)] -
            alpha * gamma * std::pow(static_cast<double>(sizes[static_cast<std::size_t>(i)]),
                                     gamma - 1.0);
        if (score > best_score) {
          best_score = score;
          best = i;
        }
      }
      p.assignment[static_cast<std::size_t>(v)] = static_cast<std::int32_t>(best);
      sizes[static_cast<std::size_t>(best)]++;
    }
  }
  return p;
}

std::int64_t edge_cut(const sparse::Csr& adj, const Partitioning& p) {
  std::int64_t cut = 0;
  const auto rp = adj.row_ptr();
  const auto ci = adj.col_idx();
  for (std::int64_t v = 0; v < adj.rows(); ++v) {
    for (std::int64_t k = rp[static_cast<std::size_t>(v)];
         k < rp[static_cast<std::size_t>(v) + 1]; ++k) {
      const auto u = ci[static_cast<std::size_t>(k)];
      if (p.assignment[static_cast<std::size_t>(v)] != p.assignment[static_cast<std::size_t>(u)]) {
        ++cut;
      }
    }
  }
  return cut / 2;  // symmetric adjacency counts each edge twice
}

BoundaryStats boundary_stats(const sparse::Csr& adj, const Partitioning& p) {
  BoundaryStats s;
  s.owned.assign(static_cast<std::size_t>(p.num_parts), 0);
  s.boundary.assign(static_cast<std::size_t>(p.num_parts), 0);
  for (const auto a : p.assignment) s.owned[static_cast<std::size_t>(a)]++;

  // A node u is a halo node of part i iff part(u) != i and u has a neighbour
  // in part i (symmetric adjacency). Count each (u, part) pair once with a
  // per-part stamp keyed by the current node: O(nnz).
  const auto rp = adj.row_ptr();
  const auto ci = adj.col_idx();
  std::vector<std::int64_t> stamp(static_cast<std::size_t>(p.num_parts), -1);
  for (std::int64_t u = 0; u < adj.rows(); ++u) {
    const auto pu = p.assignment[static_cast<std::size_t>(u)];
    for (std::int64_t k = rp[static_cast<std::size_t>(u)];
         k < rp[static_cast<std::size_t>(u) + 1]; ++k) {
      const auto v = ci[static_cast<std::size_t>(k)];
      const auto pv = p.assignment[static_cast<std::size_t>(v)];
      if (pv != pu && stamp[static_cast<std::size_t>(pv)] != u) {
        stamp[static_cast<std::size_t>(pv)] = u;
        s.boundary[static_cast<std::size_t>(pv)]++;
      }
    }
  }
  s.total_with_boundary = 0;
  for (int i = 0; i < p.num_parts; ++i) {
    s.total_with_boundary += s.owned[static_cast<std::size_t>(i)] +
                             s.boundary[static_cast<std::size_t>(i)];
  }
  return s;
}

}  // namespace plexus::part
