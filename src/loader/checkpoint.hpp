#pragma once
/// \file checkpoint.hpp
/// On-disk model state for checkpoint save/restore (`model.plx`).
///
/// A checkpoint directory is a sharded dataset directory (shard_io.hpp:
/// adjacency block files, feature row blocks holding the *current trained*
/// input features, labels, masks, meta) plus this one extra file carrying
/// everything the dataset files cannot: the model spec, the per-layer weight
/// matrices and optimizer moments, the feature optimizer moments, the
/// preprocess seed/scheme (from which the permutations regenerate
/// deterministically) and the epoch counter. Everything is stored at the
/// *global padded* shape in canonical row-major layout, so any grid — or a
/// serial server — can re-slice it; restoring on the same grid reproduces
/// training bitwise (tests/test_checkpoint.cpp).
///
/// Same conventions as the dataset files: kPlxMagic header, fixed-width
/// little-endian PODs, checked short-read/short-write paths.

#include <cstdint>
#include <string>
#include <vector>

#include "dense/optim.hpp"

namespace plexus::io {

/// One layer's persisted state: the full logical (in_dim_padded x
/// out_dim_padded) weight matrix plus same-shape Adam moments.
struct LayerState {
  std::int64_t rows = 0;  ///< in_dim_padded
  std::int64_t cols = 0;  ///< out_dim_padded
  std::vector<float> w;   ///< rows * cols, row-major
  std::vector<float> m;   ///< Adam first moment
  std::vector<float> v;   ///< Adam second moment
  std::int64_t adam_t = 0;
};

/// Contents of `model.plx`. The trained input features themselves live in
/// the checkpoint's feature block files (they *are* the dataset features of
/// a resumed run); only their optimizer moments ride here.
struct ModelState {
  // --- model spec (core::GcnSpec, flattened to POD scalars) ---
  std::vector<std::int64_t> hidden_dims;
  std::uint64_t model_seed = 42;
  /// Always 1: input features are trained. Kept so the byte layout, and
  /// every checkpoint written before, stays readable.
  std::uint8_t train_input_features = 1;
  // Resolved core::PlexusOptions the model was trained with. (The file also
  // keeps a retired int32 aggregation-strategy slot after pipeline_depth:
  // written as 0, ignored on read.)
  std::int32_t agg_row_blocks = 1;
  std::uint8_t gemm_dw_tuning = 0;
  std::int32_t pipeline_depth = 0;
  dense::AdamConfig adam;
  // --- preprocessing identity (permutations regenerate from these) ---
  std::int32_t scheme = 2;  ///< core::PermutationScheme as int
  std::uint64_t preprocess_seed = 7;
  std::int64_t pad_multiple = 1;
  // --- progress ---
  std::int64_t epochs_completed = 0;
  // --- trainable-feature optimizer state, global padded shape ---
  std::int64_t feat_rows = 0;  ///< padded_nodes
  std::int64_t feat_cols = 0;  ///< padded_feature_dim
  std::vector<float> feat_m;
  std::vector<float> feat_v;
  std::int64_t feat_t = 0;
  // --- per-layer state ---
  std::vector<LayerState> layers;

  int num_layers() const { return static_cast<int>(layers.size()); }
};

/// Write `dir`/model.plx (directory is created if needed). Throws on any
/// short write, including the deferred full-disk flush at close.
void write_model_state(const std::string& dir, const ModelState& s);

/// Read `dir`/model.plx. Throws on missing file, bad magic, truncation,
/// trailing bytes, or inconsistent internal sizes.
ModelState read_model_state(const std::string& dir);

}  // namespace plexus::io
