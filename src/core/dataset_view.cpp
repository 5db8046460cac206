#include "core/dataset_view.hpp"

#include <utility>

#include "core/shard.hpp"
#include "util/error.hpp"

namespace plexus::core {

InMemoryDatasetView::InMemoryDatasetView(const PlexusDataset& ds) : ds_(&ds) {
  num_nodes_ = ds.num_nodes;
  padded_nodes_ = ds.padded_nodes;
  feature_dim_ = ds.feature_dim;
  padded_feature_dim_ = ds.padded_feature_dim;
  num_classes_ = ds.num_classes;
  train_total_ = ds.train_total;
  scheme_ = ds.scheme;
}

sparse::Csr InMemoryDatasetView::adjacency_block(int version, std::int64_t r0, std::int64_t r1,
                                                std::int64_t c0, std::int64_t c1) const {
  const sparse::Csr& a = version % 2 == 0 ? ds_->adj_even : ds_->adj_odd;
  return a.block(r0, r1, c0, c1);
}

dense::Matrix InMemoryDatasetView::feature_block(std::int64_t r0, std::int64_t r1,
                                                std::int64_t c0, std::int64_t c1) const {
  return extract_block(ds_->features, Slice{r0, r1}, Slice{c0, c1});
}

const std::vector<std::int32_t>& InMemoryDatasetView::labels() const { return ds_->labels; }

std::int64_t InMemoryDatasetView::adjacency_nnz() const { return ds_->adj_even.nnz(); }

const std::vector<std::uint8_t>& InMemoryDatasetView::mask(Split split) const {
  switch (split) {
    case Split::Train: return ds_->train_mask;
    case Split::Val: return ds_->val_mask;
    case Split::Test: return ds_->test_mask;
  }
  return ds_->train_mask;
}

ShardedDatasetView::ShardedDatasetView(std::string dir)
    : ShardedDatasetView(std::move(dir), 0, /*streaming=*/false) {}

ShardedDatasetView::ShardedDatasetView(std::string dir, std::int64_t rss_budget_bytes)
    : ShardedDatasetView(std::move(dir), rss_budget_bytes, /*streaming=*/true) {}

ShardedDatasetView::ShardedDatasetView(std::string dir, std::int64_t rss_budget_bytes,
                                       bool streaming)
    : dir_(std::move(dir)),
      meta_(io::read_meta(dir_)),
      streaming_(streaming),
      cache_(std::make_unique<io::BlockCache>(rss_budget_bytes)) {
  const io::PlexusShardMeta pm = io::read_plexus_meta(dir_);
  padded_nodes_ = meta_.num_nodes;
  padded_feature_dim_ = meta_.feature_dim;
  num_classes_ = meta_.num_classes;
  num_nodes_ = pm.valid_nodes;
  feature_dim_ = pm.valid_feature_dim;
  train_total_ = pm.train_total;
  scheme_ = static_cast<PermutationScheme>(pm.scheme);
  adjacency_versions_ = pm.adjacency_versions;
  PLEXUS_CHECK(num_nodes_ <= padded_nodes_ && feature_dim_ <= padded_feature_dim_,
               "sharded dataset: inconsistent metadata in " + dir_);
  labels_ = io::load_labels(dir_);
  masks_ = io::load_masks(dir_);
  PLEXUS_CHECK(static_cast<std::int64_t>(labels_.size()) == padded_nodes_ &&
                   static_cast<std::int64_t>(masks_.train.size()) == padded_nodes_,
               "sharded dataset: labels/masks do not cover the padded nodes");
}

const char* ShardedDatasetView::prefix(int version) const {
  return version % 2 != 0 && adjacency_versions_ > 1 ? "adjo" : "adj";
}

sparse::Csr ShardedDatasetView::adjacency_block(int version, std::int64_t r0, std::int64_t r1,
                                               std::int64_t c0, std::int64_t c1) const {
  return counted_window(version, r0, r1, c0, c1, io::Orientation::Rows, nullptr);
}

sparse::Csr ShardedDatasetView::adjacency_block_counted(int version, std::int64_t r0,
                                                        std::int64_t r1, std::int64_t c0,
                                                        std::int64_t c1,
                                                        std::int64_t* io_bytes) const {
  return counted_window(version, r0, r1, c0, c1, io::Orientation::Rows, io_bytes);
}

sparse::Csr ShardedDatasetView::transposed_block_counted(int version, std::int64_t r0,
                                                         std::int64_t r1, std::int64_t c0,
                                                         std::int64_t c1,
                                                         std::int64_t* io_bytes) const {
  return counted_window(version, r0, r1, c0, c1, io::Orientation::Transposed, io_bytes);
}

sparse::Csr ShardedDatasetView::counted_window(int version, std::int64_t r0, std::int64_t r1,
                                               std::int64_t c0, std::int64_t c1,
                                               io::Orientation orientation,
                                               std::int64_t* io_bytes) const {
  if (io_bytes != nullptr) *io_bytes = 0;
  auto window = io::load_adjacency_window(
      dir_, prefix(version), meta_, r0, r1, c0, c1, orientation,
      [&](const std::string& path, io::Orientation o) { return cache_->get(path, o, io_bytes); });
  // The walk has dropped its pins: reclaim what the budget no longer covers
  // now rather than at the next admission.
  cache_->trim();
  return window;
}

dense::Matrix ShardedDatasetView::feature_block(std::int64_t r0, std::int64_t r1,
                                               std::int64_t c0, std::int64_t c1) const {
  return io::load_feature_block(dir_, r0, r1, c0, c1);
}

io::BlockCache::Stats ShardedDatasetView::cache_stats() const { return cache_->stats(); }

const std::vector<std::int32_t>& ShardedDatasetView::labels() const { return labels_; }

const std::vector<std::uint8_t>& ShardedDatasetView::mask(Split split) const {
  switch (split) {
    case Split::Train: return masks_.train;
    case Split::Val: return masks_.val;
    case Split::Test: return masks_.test;
  }
  return masks_.train;
}

void write_sharded_plexus_dataset(const std::string& dir, const PlexusDataset& ds, int parts) {
  PLEXUS_CHECK(parts > 0 && ds.padded_nodes % parts == 0,
               "write_sharded_plexus_dataset: parts must divide padded_nodes (pass the grid "
               "volume the dataset was padded for)");
  io::write_sharded_dataset(dir, ds.adj_even, ds.features, ds.labels, ds.num_classes,
                            parts, parts);
  const bool two_versions = ds.scheme == PermutationScheme::Double;
  if (two_versions) io::write_adjacency_blocks(dir, "adjo", ds.adj_odd, parts, parts);
  io::write_masks(dir, io::ShardedMasks{ds.train_mask, ds.val_mask, ds.test_mask});
  io::PlexusShardMeta pm;
  pm.valid_nodes = ds.num_nodes;
  pm.valid_feature_dim = ds.feature_dim;
  pm.train_total = ds.train_total;
  pm.scheme = static_cast<std::int32_t>(ds.scheme);
  pm.adjacency_versions = two_versions ? 2 : 1;
  io::write_plexus_meta(dir, pm);
}

}  // namespace plexus::core
