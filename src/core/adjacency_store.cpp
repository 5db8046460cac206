#include "core/adjacency_store.hpp"

#include "core/shard.hpp"
#include "util/error.hpp"

namespace plexus::core {

AdjacencyStore::AdjacencyStore(const DatasetView& view, const Grid3D& grid, int rank,
                               int num_layers, bool streaming)
    : streaming_(streaming) {
  const Coords c = grid.coords_of(rank);
  if (streaming_) {
    // Out-of-core mode: record which window each layer would shard, but
    // leave the bytes on disk — the streaming epoch loads them block by
    // block through the ShardStream.
    const auto padded = static_cast<double>(view.padded_nodes());
    plans_.resize(static_cast<std::size_t>(num_layers));
    for (int l = 0; l < num_layers; ++l) {
      const LayerRoles roles = roles_for_layer(l);
      const auto blk = matrix_shard(view.padded_nodes(), view.padded_nodes(), grid, c,
                                    /*row_axis=*/roles.r, /*col_axis=*/roles.p);
      LayerStreamPlan plan;
      plan.version = view.scheme() == PermutationScheme::Double ? l % 2 : 0;
      plan.rows = blk.rows;
      plan.cols = blk.cols;
      plan.est_nnz = static_cast<std::int64_t>(
                         static_cast<double>(view.adjacency_nnz()) *
                         (static_cast<double>(blk.rows.size()) / padded) *
                         (static_cast<double>(blk.cols.size()) / padded)) +
                     1;
      plans_[static_cast<std::size_t>(l)] = plan;
    }
    return;
  }
  by_layer_.resize(static_cast<std::size_t>(num_layers));
  for (int l = 0; l < num_layers; ++l) {
    const int version = view.scheme() == PermutationScheme::Double ? l % 2 : 0;
    const int plane = l % 3;
    const auto key = std::make_pair(version, plane);
    auto it = shards_.find(key);
    if (it == shards_.end()) {
      const LayerRoles roles = roles_for_layer(l);
      const auto blk = matrix_shard(view.padded_nodes(), view.padded_nodes(), grid, c,
                                    /*row_axis=*/roles.r, /*col_axis=*/roles.p);
      auto shard = std::make_shared<AdjacencyShard>();
      shard->a = view.adjacency_block(version, blk.rows.begin, blk.rows.end, blk.cols.begin,
                                      blk.cols.end);
      shard->a_t = shard->a.transposed();
      it = shards_.emplace(key, std::move(shard)).first;
    }
    by_layer_[static_cast<std::size_t>(l)] = it->second;
  }
}

const AdjacencyShard& AdjacencyStore::layer(int l) const {
  PLEXUS_CHECK(!streaming_, "AdjacencyStore::layer: no shards in streaming mode");
  PLEXUS_CHECK(l >= 0 && static_cast<std::size_t>(l) < by_layer_.size(), "bad layer");
  return *by_layer_[static_cast<std::size_t>(l)];
}

const LayerStreamPlan& AdjacencyStore::layer_stream(int l) const {
  PLEXUS_CHECK(streaming_, "AdjacencyStore::layer_stream: not in streaming mode");
  PLEXUS_CHECK(l >= 0 && static_cast<std::size_t>(l) < plans_.size(), "bad layer");
  return plans_[static_cast<std::size_t>(l)];
}

}  // namespace plexus::core
