#pragma once
/// \file checkpoint.hpp
/// Checkpoint save/restore on top of the sharded-dataset IO (loader/).
///
/// A checkpoint directory is a regular `write_sharded_plexus_dataset`
/// directory whose feature row blocks hold the *current trained* input
/// features, plus `model.plx` (loader/checkpoint.hpp) carrying the model
/// spec, per-layer weights/optimizer moments, feature optimizer moments and
/// the epoch counter. That layout buys three consumers with one format:
///
///  * **resume** — ShardedDatasetView(dir) reads the directory in place as a
///    valid dataset whose features are the trained embeddings;
///    DistGcn::restore_state re-slices weights + optimizer state and
///    training continues bitwise (the epoch seed keys on the absolute epoch
///    index, which model.plx preserves);
///  * **serve** — serve::ServedModel reads the same directory serially;
///  * **tooling** — every existing loader (and its robustness tests) applies
///    unchanged.
///
/// save_checkpoint is rank-0-writes: call DistGcn::gather_state on every
/// rank (it runs world-group collectives), then write from rank 0, the only
/// rank it assembles the global state on.

#include <string>

#include "core/dataset_view.hpp"
#include "core/preprocess.hpp"
#include "dense/matrix.hpp"
#include "loader/checkpoint.hpp"

namespace plexus::core {

/// Everything DistGcn::gather_state assembles on rank 0: the global model
/// state plus the global (padded_nodes x padded_feature_dim) trained feature
/// matrix (written back as the checkpoint's feature blocks, not into
/// model.plx). Other ranks get the spec fields only.
struct CheckpointData {
  io::ModelState model;
  dense::Matrix features;
};

/// Write the full checkpoint directory: the sharded dataset layout (block
/// grid = model.pad_multiple, adjacency/labels/masks streamed from `view`,
/// features from `data.features`) plus model.plx. Overwrites existing files.
void save_checkpoint(const std::string& dir, const DatasetView& view,
                     const CheckpointData& data);

/// Read `dir`/model.plx (resume / serve entry point).
io::ModelState load_model_state(const std::string& dir);

/// Materialise the checkpoint's dataset in memory (features are the trained
/// embeddings), for the serial server and tools that want it whole. Resume
/// does not: it reads the directory in place through ShardedDatasetView(dir).
PlexusDataset load_checkpoint_dataset(const std::string& dir);

}  // namespace plexus::core
