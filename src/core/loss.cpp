#include "core/loss.hpp"

#include <span>

#include "core/roles.hpp"
#include "core/shard.hpp"
#include "dense/ops.hpp"
#include "sim/kernels.hpp"
#include "util/error.hpp"

namespace plexus::core {

LossResult distributed_softmax_ce(sim::RankContext& ctx, const Grid3D& grid, int last_layer,
                                  const DatasetView& view, const dense::Matrix& logits_block,
                                  const std::vector<std::uint8_t>& mask, double norm,
                                  std::vector<float>& gathered, dense::Matrix* dlogits) {
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

  // Gather the class dimension across the P-group: member p's block lands as
  // the p-th (rows x C'/P) column block, which the kernel reads in place. A
  // one-member P-group already holds every class: the kernel reads the
  // logits block itself, and the gather (0 sim time, 0 wire bytes) is skipped.
  std::span<const float> logits = logits_block.flat();
  if (ext_p > 1) {
    gathered.resize(static_cast<std::size_t>(rows * padded_classes));
    ctx.comm.all_gather<float>(p_group, logits_block.flat(), gathered);
    logits = gathered;
  }

  // Labels and mask of this rank's rows, read in place.
  const auto row_span = [&](const auto& v) {
    return std::span(v).subspan(static_cast<std::size_t>(row_slice.begin),
                                static_cast<std::size_t>(rows));
  };
  if (dlogits != nullptr) dlogits->ensure_shape(rows, cols_block);
  const auto ce = dense::softmax_cross_entropy_blocks(
      logits, rows, cols_block, view.num_classes(), row_span(view.labels()), row_span(mask),
      norm, dlogits, static_cast<std::int64_t>(coord_p) * cols_block);
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
  return out;
}

}  // namespace plexus::core
