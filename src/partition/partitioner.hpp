#pragma once
/// \file partitioner.hpp
/// Graph partitioners for the baseline frameworks' cost models
/// (baselines/costmodels.hpp measures their structural curves with these).
///
/// Substitutions: BNS-GCN uses METIS and SA+GVB uses the GVB
/// partitioner; neither is redistributable here. We implement
///  * a streaming Fennel partitioner with refinement passes — the standard
///    METIS surrogate: minimises edge cut under a balance constraint, and
///    reproduces the boundary-node growth with partition count that drives
///    BNS-GCN's scaling cliff (section 7.1);
///  * a nonzero-balanced contiguous row partitioner — GVB's goal (balance
///    nonzeros per block row for SpMM);
///  * a random partitioner (worst-case baseline for tests).

#include <cstdint>
#include <vector>

#include "sparse/csr.hpp"

namespace plexus::part {

struct Partitioning {
  int num_parts = 0;
  std::vector<std::int32_t> assignment;  ///< node -> part

  std::vector<std::int64_t> part_sizes() const;
};

Partitioning random_partition(std::int64_t num_nodes, int parts, std::uint64_t seed);

/// Streaming Fennel (Tsourakakis et al.) with `passes` refinement streams:
/// assign v to argmax_i |N(v) ∩ P_i| - alpha * gamma * |P_i|^(gamma-1), with a
/// hard balance cap of `slack` * n/parts per part.
Partitioning fennel_partition(const sparse::Csr& adj, int parts, std::uint64_t seed,
                              int passes = 3, double gamma = 1.5, double slack = 1.1);

/// Contiguous block-row partition balancing nonzeros per part (GVB-like).
Partitioning nnz_balanced_partition(const sparse::Csr& adj, int parts);

/// Number of edges whose endpoints land in different parts.
std::int64_t edge_cut(const sparse::Csr& adj, const Partitioning& p);

struct BoundaryStats {
  std::vector<std::int64_t> owned;     ///< per part
  std::vector<std::int64_t> boundary;  ///< per part: remote neighbours needed
  std::int64_t total_with_boundary = 0;  ///< sum of owned + boundary over parts

  double expansion_factor(std::int64_t num_nodes) const {
    return static_cast<double>(total_with_boundary) / static_cast<double>(num_nodes);
  }
};

/// Boundary ("halo") statistics: for each part, the set of remote nodes its
/// local aggregation needs. The paper observed 18M -> 22M total nodes for
/// products-14M going from 32 to 256 partitions (section 7.1).
BoundaryStats boundary_stats(const sparse::Csr& adj, const Partitioning& p);

}  // namespace plexus::part
