#include "core/shard.hpp"

#include <algorithm>
#include <cmath>

#include "sparse/partition2d.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plexus::core {

Slice uniform_slice(std::int64_t extent, int parts, int idx) {
  PLEXUS_CHECK(parts > 0 && idx >= 0 && idx < parts, "bad slice index");
  PLEXUS_CHECK(extent % parts == 0,
               "extent not divisible by parts; preprocessing must pad to the grid volume");
  const std::int64_t w = extent / parts;
  return {idx * w, (idx + 1) * w};
}

BlockShard matrix_shard(std::int64_t rows, std::int64_t cols, const Grid3D& grid,
                        const Coords& c, Axis row_axis, Axis col_axis) {
  BlockShard s;
  s.rows = uniform_slice(rows, grid.extent(row_axis), Grid3D::coord(c, row_axis));
  s.cols = uniform_slice(cols, grid.extent(col_axis), Grid3D::coord(c, col_axis));
  return s;
}

dense::Matrix extract_block(const dense::Matrix& global, const Slice& rows, const Slice& cols) {
  return global.block(rows.begin, rows.end, cols.begin, cols.end);
}

std::vector<SliceRun> weight_slice_runs(std::int64_t rows, std::int64_t cols, const Grid3D& grid,
                                        const LayerRoles& roles, const Coords& c) {
  const BlockShard blk = matrix_shard(rows, cols, grid, c, roles.q, roles.p);
  const std::int64_t width = blk.cols.size();
  const Slice flat = uniform_slice(blk.rows.size() * width, grid.extent(roles.r),
                                   Grid3D::coord(c, roles.r));
  std::vector<SliceRun> runs;
  for (std::int64_t k = flat.begin; k < flat.end;) {
    const std::int64_t len = std::min(width - k % width, flat.end - k);
    runs.push_back({(blk.rows.begin + k / width) * cols + blk.cols.begin + k % width, len});
    k += len;
  }
  return runs;
}

std::vector<SliceRun> feature_slice_runs(std::int64_t rows, std::int64_t cols,
                                         const Grid3D& grid, const Coords& c,
                                         int agg_row_blocks) {
  const LayerRoles r0 = roles_for_layer(0);
  const BlockShard blk = matrix_shard(rows, cols, grid, c, r0.p, r0.q);
  const int ext_r = grid.extent(r0.r);
  const int coord_r = Grid3D::coord(c, r0.r);
  const auto bounds =
      sparse::block_bounds_aligned(blk.rows.size(), std::max(1, agg_row_blocks), ext_r);
  std::vector<SliceRun> runs;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    const std::int64_t sub = (bounds[k + 1] - bounds[k]) / ext_r;
    for (std::int64_t i = 0; i < sub; ++i) {
      const std::int64_t row = blk.rows.begin + bounds[k] + coord_r * sub + i;
      runs.push_back({row * cols + blk.cols.begin, blk.cols.size()});
    }
  }
  return runs;
}

std::int64_t runs_length(const std::vector<SliceRun>& runs) {
  std::int64_t n = 0;
  for (const SliceRun& run : runs) n += run.length;
  return n;
}

float weight_init_value(std::uint64_t seed, int layer, std::int64_t r, std::int64_t c,
                        std::int64_t valid_rows, std::int64_t valid_cols) {
  if (r >= valid_rows || c >= valid_cols) return 0.0f;
  const float limit =
      std::sqrt(6.0f / static_cast<float>(std::max<std::int64_t>(1, valid_rows + valid_cols)));
  const util::CounterRng rng(util::hash_combine(seed, 0xabcd0000ULL + static_cast<std::uint64_t>(layer)));
  return rng.uniform_at(static_cast<std::uint64_t>(r * valid_cols + c), -limit, limit);
}

dense::Matrix init_weight_block(std::uint64_t seed, int layer, std::int64_t row_off,
                                std::int64_t col_off, std::int64_t rows, std::int64_t cols,
                                std::int64_t valid_rows, std::int64_t valid_cols) {
  dense::Matrix out(rows, cols);
  for (std::int64_t i = 0; i < rows; ++i) {
    for (std::int64_t j = 0; j < cols; ++j) {
      out.at(i, j) = weight_init_value(seed, layer, row_off + i, col_off + j, valid_rows,
                                       valid_cols);
    }
  }
  return out;
}

}  // namespace plexus::core
