#include "core/loss.hpp"

#include "core/roles.hpp"
#include "core/shard.hpp"
#include "dense/ops.hpp"
#include "sim/kernels.hpp"
#include "util/error.hpp"

namespace plexus::core {

LossResult distributed_softmax_ce(sim::RankContext& ctx, const Grid3D& grid, int last_layer,
                                  const DatasetView& view, const dense::Matrix& logits_block,
                                  const std::vector<std::uint8_t>& mask, double norm,
                                  bool want_grad) {
  const LayerRoles roles = roles_for_layer(last_layer);
  const Coords c = grid.coords_of(ctx.rank());
  const int ext_p = grid.extent(roles.p);
  const int ext_r = grid.extent(roles.r);
  const int coord_p = Grid3D::coord(c, roles.p);
  const int coord_r = Grid3D::coord(c, roles.r);
  const auto p_group = grid.group_along(roles.p, ctx.rank());
  const auto r_group = grid.group_along(roles.r, ctx.rank());

  const std::int64_t rows = logits_block.rows();
  const std::int64_t cols_block = logits_block.cols();
  const std::int64_t padded_classes = cols_block * ext_p;
  const Slice row_slice = uniform_slice(view.padded_nodes(), ext_r, coord_r);
  PLEXUS_CHECK(rows == row_slice.size(), "logits block rows mismatch");

  // Gather the class dimension across the P-group and reassemble column blocks.
  std::vector<float> gathered(static_cast<std::size_t>(rows * padded_classes));
  ctx.comm.all_gather<float>(p_group, logits_block.flat(), gathered);
  dense::Matrix full(rows, view.num_classes());
  for (int p = 0; p < ext_p; ++p) {
    const float* src = gathered.data() + static_cast<std::size_t>(p) * rows * cols_block;
    const std::int64_t col0 = p * cols_block;
    if (col0 >= view.num_classes()) break;
    const std::int64_t ncols = std::min(cols_block, view.num_classes() - col0);
    for (std::int64_t i = 0; i < rows; ++i) {
      std::copy(src + i * cols_block, src + i * cols_block + ncols, full.row(i) + col0);
    }
  }

  // Row-local labels/mask.
  std::vector<std::int32_t> labels(static_cast<std::size_t>(rows));
  std::vector<std::uint8_t> row_mask(static_cast<std::size_t>(rows));
  for (std::int64_t i = 0; i < rows; ++i) {
    labels[static_cast<std::size_t>(i)] = view.labels()[static_cast<std::size_t>(row_slice.begin + i)];
    row_mask[static_cast<std::size_t>(i)] = mask[static_cast<std::size_t>(row_slice.begin + i)];
  }

  dense::Matrix grad_full(rows, view.num_classes());
  const auto ce = dense::softmax_cross_entropy(full, labels, row_mask, norm,
                                               want_grad ? &grad_full : nullptr);
  const double t = sim::elementwise_time(*ctx.machine, rows * padded_classes, 4.0);
  ctx.comm.charge_compute(t);

  LossResult out;
  // Every rank in an R-line holds a distinct row block; ranks along P/Q hold
  // replicas. Summing across R gives the global masked totals on all ranks.
  const double total_loss = ctx.comm.all_reduce_sum_scalar(r_group, ce.loss_sum);
  const double total_correct =
      ctx.comm.all_reduce_sum_scalar(r_group, static_cast<double>(ce.correct));
  const double total_count =
      ctx.comm.all_reduce_sum_scalar(r_group, static_cast<double>(ce.count));
  out.loss = total_count > 0 ? total_loss / total_count : 0.0;
  out.accuracy = total_count > 0 ? total_correct / total_count : 0.0;

  if (want_grad) {
    // Slice this rank's class-column block; padded columns get zero gradient.
    out.dlogits = dense::Matrix(rows, cols_block);
    const std::int64_t col0 = static_cast<std::int64_t>(coord_p) * cols_block;
    const std::int64_t ncols = std::max<std::int64_t>(
        0, std::min(cols_block, view.num_classes() - col0));
    for (std::int64_t i = 0; i < rows; ++i) {
      if (ncols > 0) {
        std::copy(grad_full.row(i) + col0, grad_full.row(i) + col0 + ncols, out.dlogits.row(i));
      }
    }
  }
  return out;
}

}  // namespace plexus::core
