#pragma once
/// \file shard.hpp
/// Shard geometry helpers: uniform 1D slices, 2D block shards addressed by
/// grid axes, flat (1/R) slices for the extra sharding of weights and input
/// features, and the deterministic weight initialisation shared by the serial
/// reference and every distributed configuration.

#include <cstdint>
#include <span>
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

/// The idx-th of `parts` equal slices of a row-major block's flat buffer (the
/// "further shard across the Z-parallel group" of weights / input features:
/// contiguous flat slices all-gather back into the row-major block).
std::vector<float> flat_slice(const dense::Matrix& block, int parts, int idx);
Slice flat_slice_range(std::int64_t total_elems, int parts, int idx);

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
