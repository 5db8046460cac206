#include "core/checkpoint.hpp"

#include <utility>

#include "util/error.hpp"

namespace plexus::core {

namespace {

/// `view` as an in-memory dataset, carrying `features` in place of the
/// view's own feature blocks.
PlexusDataset dataset_from_view(const DatasetView& view, dense::Matrix features) {
  PlexusDataset ds;
  ds.num_nodes = view.num_nodes();
  ds.padded_nodes = view.padded_nodes();
  ds.feature_dim = view.feature_dim();
  ds.padded_feature_dim = view.padded_feature_dim();
  ds.num_classes = view.num_classes();
  ds.train_total = view.train_total();
  ds.scheme = view.scheme();
  ds.adj = view.adjacency_block(0, 0, ds.padded_nodes, 0, ds.padded_nodes);
  ds.features = std::move(features);
  ds.labels = view.labels();
  ds.train_mask = view.mask(Split::Train);
  ds.val_mask = view.mask(Split::Val);
  ds.test_mask = view.mask(Split::Test);
  return ds;
}

}  // namespace

void save_checkpoint(const std::string& dir, const DatasetView& view,
                     const CheckpointData& data) {
  PLEXUS_CHECK(data.features.rows() == view.padded_nodes() &&
                   data.features.cols() == view.padded_feature_dim(),
               "save_checkpoint: gathered features do not match the dataset shape");
  PLEXUS_CHECK(data.model.pad_multiple >= 1 &&
                   view.padded_nodes() % data.model.pad_multiple == 0,
               "save_checkpoint: pad_multiple must divide padded_nodes");

  // Reassemble an in-memory dataset (trained features, everything else
  // streamed from the source view) and reuse the dataset writer so the
  // checkpoint is readable by every existing loader.
  write_sharded_plexus_dataset(dir, dataset_from_view(view, data.features),
                               static_cast<int>(data.model.pad_multiple));
  io::write_model_state(dir, data.model);
}

io::ModelState load_model_state(const std::string& dir) { return io::read_model_state(dir); }

PlexusDataset load_checkpoint_dataset(const std::string& dir) {
  const ShardedDatasetView view(dir);
  return dataset_from_view(
      view, view.feature_block(0, view.padded_nodes(), 0, view.padded_feature_dim()));
}

}  // namespace plexus::core
