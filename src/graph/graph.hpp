#pragma once
/// \file graph.hpp
/// In-memory graph dataset: structure + node features + labels + split masks.
///
/// Node-level classification setting of the paper (section 2.1): features are
/// an N x D matrix, labels are per-node classes, and train/val/test masks select
/// rows for the loss. `adjacency()` yields the raw 0/1 matrix; GCN preprocessing
/// (self-loops + symmetric normalisation) is applied by
/// sparse::normalize_adjacency at model-construction time.

#include <cstdint>
#include <string>
#include <vector>

#include "dense/matrix.hpp"
#include "sparse/coo.hpp"
#include "sparse/csr.hpp"

namespace plexus::graph {

struct Graph {
  std::string name;
  std::int64_t num_nodes = 0;
  std::int64_t num_classes = 0;
  sparse::Coo edges;  ///< symmetrised, deduplicated, no self loops
  dense::Matrix features;
  std::vector<std::int32_t> labels;
  std::vector<std::uint8_t> train_mask;
  std::vector<std::uint8_t> val_mask;
  std::vector<std::uint8_t> test_mask;

  std::int64_t num_edges() const { return edges.nnz(); }
  std::int64_t feature_dim() const { return features.cols(); }

  /// Raw 0/1 adjacency in CSR form (N x N).
  sparse::Csr adjacency() const;

  /// Out-degree (== in-degree for our symmetric graphs) of each node.
  std::vector<std::int64_t> degrees() const;

  std::int64_t train_count() const;

  /// Internal-consistency checks: sizes, label ranges, edges in range and
  /// off the diagonal, and every edge (r, c, v) matched by its twin (c, r, v).
  void validate() const;
};

/// Deterministic synthetic features: element (node, k) = U(-1, 1) from a
/// counter RNG, plus `label_signal` added to coordinate (label % D) so the
/// classification task is learnable from features when desired.
dense::Matrix synthetic_features(std::int64_t num_nodes, std::int64_t dim,
                                 const std::vector<std::int32_t>& labels, float label_signal,
                                 std::uint64_t seed);

/// Labels "based on the distribution of node degrees" (section 6.2): nodes are
/// bucketed by log-degree with deterministic jitter into `num_classes` classes.
std::vector<std::int32_t> degree_based_labels(const std::vector<std::int64_t>& degrees,
                                              std::int64_t num_classes, std::uint64_t seed);

/// Deterministic split masks with the given train/val fractions (rest = test).
void make_split_masks(std::int64_t num_nodes, double train_frac, double val_frac,
                      std::uint64_t seed, std::vector<std::uint8_t>& train,
                      std::vector<std::uint8_t>& val, std::vector<std::uint8_t>& test);

}  // namespace plexus::graph
