#pragma once
/// \file shard.hpp
/// Shard geometry helpers: uniform 1D slices, 2D block shards addressed by
/// grid axes, the slice map of the extra 1/R sharding of weights and input
/// features, and the deterministic weight initialisation shared by the serial
/// reference and every distributed configuration.

#include <cstdint>
#include <vector>

#include "core/grid.hpp"
#include "dense/matrix.hpp"

namespace plexus::core {

struct Slice {
  std::int64_t begin = 0;
  std::int64_t end = 0;
  std::int64_t size() const { return end - begin; }
};

/// The idx-th of `parts` equal slices of [0, extent). Requires divisibility —
/// the preprocessing pads all extents to multiples of the grid volume.
Slice uniform_slice(std::int64_t extent, int parts, int idx);

/// Shard of a logical (rows x cols) matrix for the rank at `c`: rows split
/// along `row_axis`, cols along `col_axis`.
struct BlockShard {
  Slice rows;
  Slice cols;
};
BlockShard matrix_shard(std::int64_t rows, std::int64_t cols, const Grid3D& grid,
                        const Coords& c, Axis row_axis, Axis col_axis);

/// Dense copy of a global matrix's (rows x cols) sub-block.
dense::Matrix extract_block(const dense::Matrix& global, const Slice& rows, const Slice& cols);

/// One contiguous piece of a rank's flat slice inside the row-major global
/// buffer: `length` elements from global flat offset `offset`.
struct SliceRun {
  std::int64_t offset = 0;
  std::int64_t length = 0;
};

/// The slice map: which elements of a row-major global buffer a rank's flat
/// slice holds, as runs in slice order, one per row piece. It is the one
/// place that layout is computed; model init, checkpoint assembly and restore
/// all go through it. Dims must be padded to the grid volume.
///
/// Weights of a layer with `roles`, (rows x cols): the (rows/Q x cols/P)
/// block at the rank's (Q, P) coordinates, whose row-major flat buffer is cut
/// into R equal contiguous slices (the "further shard across the Z-parallel
/// group": the R group's slices all-gather back into the block).
std::vector<SliceRun> weight_slice_runs(std::int64_t rows, std::int64_t cols, const Grid3D& grid,
                                        const LayerRoles& roles, const Coords& c);

/// Trainable input features (rows x cols): the layer-0 (P0 x Q0) block, cut
/// into `agg_row_blocks` R0-aligned aggregation row blocks; the rank holds the
/// R0-th sub-range of rows of each, so the per-block input gathers and
/// feature-gradient reduce-scatters reassemble the block in place.
std::vector<SliceRun> feature_slice_runs(std::int64_t rows, std::int64_t cols,
                                         const Grid3D& grid, const Coords& c,
                                         int agg_row_blocks);

/// Total elements the runs cover: the length of the slice they map.
std::int64_t runs_length(const std::vector<SliceRun>& runs);

/// Deterministic Glorot value of element (r, c) of layer `layer`'s weight
/// matrix with *active* shape (valid_rows x valid_cols). Elements in the
/// padded margin are zero — which keeps padded dimensions exactly inert:
/// padded rows and columns add exact zeros to every product, so the padded
/// math equals the unpadded math. The value depends only on
/// (seed, layer, r, c, valid shape), never on padding or sharding.
float weight_init_value(std::uint64_t seed, int layer, std::int64_t r, std::int64_t c,
                        std::int64_t valid_rows, std::int64_t valid_cols);

/// Materialise the weight block [row_off, row_off+rows) x [col_off, col_off+cols)
/// of layer `layer` with active shape (valid_rows x valid_cols).
dense::Matrix init_weight_block(std::uint64_t seed, int layer, std::int64_t row_off,
                                std::int64_t col_off, std::int64_t rows, std::int64_t cols,
                                std::int64_t valid_rows, std::int64_t valid_cols);

}  // namespace plexus::core
