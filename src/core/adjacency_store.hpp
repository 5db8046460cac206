#pragma once
/// \file adjacency_store.hpp
/// Per-rank adjacency shards for every layer (paper section 3.2 + 5.1).
///
/// Layer l needs the adjacency *version* (l mod 2: P_r-rows vs P_c-rows under
/// double permutation) sharded on the *plane* given by its roles (rows along
/// axis R_l, cols along axis P_l; the plane cycles with period 3). Distinct
/// (version, plane) combinations are built once and shared between layers —
/// min(3, L) shards without double permutation, min(6, 2L) with it. Each shard
/// is stored together with its transpose (the backward pass computes
/// SpMM(A^T, dH), eq. 2.7).

#include <map>
#include <memory>

#include "core/dataset_view.hpp"
#include "core/grid.hpp"
#include "core/roles.hpp"
#include "core/shard.hpp"
#include "sparse/csr.hpp"

namespace plexus::core {

struct AdjacencyShard {
  sparse::Csr a;    ///< (N/R x N/P) block of the layer's adjacency version
  sparse::Csr a_t;  ///< its transpose, for the backward SpMM
};

/// Streaming-mode stand-in for AdjacencyShard: the window coordinates of the
/// shard layer l *would* materialise, plus a planner nnz estimate. The
/// streaming layer posts block loads against these coordinates instead of
/// holding the CSR resident.
struct LayerStreamPlan {
  int version = 0;          ///< adjacency version (l % 2 under Double)
  Slice rows;               ///< shard rows in padded global coordinates
  Slice cols;               ///< shard cols in padded global coordinates
  std::int64_t est_nnz = 0; ///< uniform-density estimate of the shard's nnz
};

class AdjacencyStore {
 public:
  /// Extracts this rank's shards for layers [0, num_layers). Pure reads of
  /// the view: safe to run concurrently on all ranks when the view is (the
  /// shared in-memory dataset is; per-rank sharded views trivially are).
  /// With `streaming` set no shard is materialised — only the per-layer
  /// LayerStreamPlan coordinates are computed, and layer() must not be used.
  AdjacencyStore(const DatasetView& view, const Grid3D& grid, int rank, int num_layers,
                 bool streaming = false);

  const AdjacencyShard& layer(int l) const;

  bool streaming() const { return streaming_; }
  const LayerStreamPlan& layer_stream(int l) const;

  /// Number of distinct shards stored (tested against min(3,L)/min(6,2L)).
  std::size_t unique_shards() const { return shards_.size(); }

 private:
  bool streaming_ = false;
  std::map<std::pair<int, int>, std::shared_ptr<AdjacencyShard>> shards_;  // (version, plane)
  std::vector<std::shared_ptr<AdjacencyShard>> by_layer_;
  std::vector<LayerStreamPlan> plans_;
};

}  // namespace plexus::core
