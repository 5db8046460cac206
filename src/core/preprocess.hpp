#pragma once
/// \file preprocess.hpp
/// One-time dataset preprocessing (paper sections 2.1 and 5.1):
///   1. pad the node count to a multiple of the grid volume (padded nodes have
///      no edges and are masked out of the loss — provably inert, see tests);
///   2. add self loops and symmetrically normalise the adjacency;
///   3. apply the permutation scheme: None, Single (P A P^T), or Double
///      (P_r A P_c^T alternating with P_c A P_r^T across layers) — the paper's
///      load-balancing scheme that replaces a graph partitioner;
///   4. permute features/labels/masks into the matching orders.
///
/// Unlike graph partitioning, this is grid-size independent (one preprocessing
/// per dataset, reusable for any GPU count) — the property section 5.1 calls
/// out as the advantage over METIS.

#include <cstdint>
#include <vector>

#include "dense/matrix.hpp"
#include "graph/graph.hpp"
#include "sparse/csr.hpp"
#include "util/enum_names.hpp"

namespace plexus::core {

enum class PermutationScheme {
  None,    ///< natural ordering (baseline for Table 3)
  Single,  ///< one permutation applied to rows and columns
  Double,  ///< distinct row/column permutations, alternating across layers
};

/// Long display name for tables/logs ("original", "single-permutation",
/// "double-permutation"). CLI flags and checkpoints use the registry names
/// ("none" | "single" | "double") below instead.
const char* scheme_name(PermutationScheme s);

struct PlexusDataset {
  std::int64_t num_nodes = 0;         ///< active nodes
  std::int64_t padded_nodes = 0;      ///< multiple of pad_multiple
  std::int64_t feature_dim = 0;       ///< active feature dim
  std::int64_t padded_feature_dim = 0;
  std::int64_t num_classes = 0;
  std::int64_t train_total = 0;       ///< global masked-row count for loss norm

  PermutationScheme scheme = PermutationScheme::Double;

  /// The normalised adjacency P_r A~ P_c^T, read by even layers. A~ is
  /// symmetric, so the odd layers' P_c A~ P_r^T under Double is exactly its
  /// transpose; DatasetView serves it from this one matrix.
  sparse::Csr adj;

  /// Features in the input permutation (rows ordered by P_c), padded.
  dense::Matrix features;

  /// Labels/masks in the *output* permutation of the final layer.
  std::vector<std::int32_t> labels;
  std::vector<std::uint8_t> train_mask;
  std::vector<std::uint8_t> val_mask;
  std::vector<std::uint8_t> test_mask;
};

/// Preprocess `g` for an L-layer GCN on grids whose volume divides
/// `pad_multiple`. `seed` fixes the permutations. Throws, naming one edge
/// without its twin, when `g`'s edge set is not symmetric.
PlexusDataset preprocess_graph(const graph::Graph& g, PermutationScheme scheme, int num_layers,
                               std::int64_t pad_multiple, std::uint64_t seed);

/// Table 3 helper: max/mean nonzeros over a grid_rows x grid_cols decomposition
/// of the layer-0 adjacency under the given scheme.
double scheme_imbalance(const graph::Graph& g, PermutationScheme scheme, std::int64_t grid_rows,
                        std::int64_t grid_cols, std::uint64_t seed);

}  // namespace plexus::core

/// Registry entry (util/enum_names.hpp): CLI/checkpoint names of the scheme.
template <>
struct plexus::util::EnumNames<plexus::core::PermutationScheme> {
  static constexpr const char* kind = "permutation scheme";
  static constexpr EnumEntry<plexus::core::PermutationScheme> table[] = {
      {plexus::core::PermutationScheme::None, "none"},
      {plexus::core::PermutationScheme::Single, "single"},
      {plexus::core::PermutationScheme::Double, "double"},
  };
};
