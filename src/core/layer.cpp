#include "core/layer.hpp"

#include <algorithm>
#include <deque>
#include <future>
#include <span>

#include "core/shard_stream.hpp"
#include "dense/gemm.hpp"
#include "dense/ops.hpp"
#include "sim/kernels.hpp"
#include "sparse/partition2d.hpp"
#include "sparse/spmm.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace plexus::core {

namespace {

/// Retire the oldest in-flight per-block collectives until at most
/// `depth - 1` remain (depth 1 = fully blocking). Exposed comm time is
/// charged inside wait() from the handle's completion ordering.
void trim_pipeline(std::deque<comm::CommHandle>& inflight, int depth) {
  while (static_cast<int>(inflight.size()) >= depth) {
    inflight.front().wait();
    inflight.pop_front();
  }
}

void drain_pipeline(std::deque<comm::CommHandle>& inflight) {
  while (!inflight.empty()) {
    inflight.front().wait();
    inflight.pop_front();
  }
}

}  // namespace

DistGcnLayer::DistGcnLayer(std::int64_t padded_nodes, const Grid3D& grid, int rank,
                           int layer_index, int num_layers, std::int64_t in_dim_padded,
                           std::int64_t out_dim_padded, std::int64_t in_dim_valid,
                           std::int64_t out_dim_valid, const AdjacencyShard* adj,
                           const PlexusOptions& opts, std::uint64_t seed, ShardStream* stream,
                           const LayerStreamPlan* stream_plan)
    : grid_(&grid),
      adj_(adj),
      stream_(stream),
      splan_(stream_plan),
      opts_(opts),
      layer_(layer_index),
      roles_(roles_for_layer(layer_index)) {
  PLEXUS_CHECK(layer_index >= 0 && layer_index < num_layers, "bad layer index");
  const Coords c = grid.coords_of(rank);
  ext_p_ = grid.extent(roles_.p);
  ext_q_ = grid.extent(roles_.q);
  ext_r_ = grid.extent(roles_.r);
  coord_p_ = Grid3D::coord(c, roles_.p);
  coord_q_ = Grid3D::coord(c, roles_.q);
  coord_r_ = Grid3D::coord(c, roles_.r);
  p_group_ = grid.group_along(roles_.p, rank);
  q_group_ = grid.group_along(roles_.q, rank);
  r_group_ = grid.group_along(roles_.r, rank);

  rows_r_ = padded_nodes / ext_r_;
  rows_p_ = padded_nodes / ext_p_;
  din_q_ = in_dim_padded / ext_q_;
  dout_p_ = out_dim_padded / ext_p_;
  PLEXUS_CHECK(in_dim_padded % ext_q_ == 0 && out_dim_padded % ext_p_ == 0,
               "layer dims must be padded to the grid volume");
  if (adj_ != nullptr) {
    PLEXUS_CHECK(adj_->a.rows() == rows_r_ && adj_->a.cols() == rows_p_,
                 "adjacency shard does not match layer roles");
  } else {
    PLEXUS_CHECK(stream_ != nullptr && splan_ != nullptr,
                 "layer needs an adjacency shard or a stream plan");
    PLEXUS_CHECK(splan_->rows.size() == rows_r_ && splan_->cols.size() == rows_p_,
                 "stream plan does not match layer roles");
  }

  // This rank's flat 1/R slice of its W block (rows = Q slice of Din, cols =
  // P slice of Dout), each element initialised at its global coordinates.
  w_slice_.reserve(static_cast<std::size_t>(din_q_ * dout_p_ / ext_r_));
  for (const SliceRun& run : weight_slice_runs(in_dim_padded, out_dim_padded, grid, roles_, c)) {
    for (std::int64_t k = run.offset; k < run.offset + run.length; ++k) {
      w_slice_.push_back(weight_init_value(seed, layer_index, k / out_dim_padded,
                                           k % out_dim_padded, in_dim_valid, out_dim_valid));
    }
  }
  dw_slice_.assign(w_slice_.size(), 0.0f);
  adam_ = dense::Adam(w_slice_.size(), opts.adam);
}

void DistGcnLayer::restore_state(std::span<const float> w, std::span<const float> m,
                                 std::span<const float> v, std::int64_t adam_t) {
  PLEXUS_CHECK(w.size() == w_slice_.size(), "restored weight slice size mismatch");
  std::copy(w.begin(), w.end(), w_slice_.begin());
  adam_.set_state(m, v, adam_t);
}

comm::CommHandle DistGcnLayer::igather_weights(sim::RankContext& ctx) {
  w_block_.ensure_shape(din_q_, dout_p_);
  return ctx.comm.iall_gather<float>(r_group_, w_slice_, w_block_.flat());
}

std::int64_t DistGcnLayer::workspace_bytes() const {
  const std::int64_t floats =
      h_.size() + q_.size() + w_block_.size() + w_t_.size() + dw_rev_.size() + df_in_.size() +
      dw_block_.size();
  return floats * static_cast<std::int64_t>(sizeof(float));
}

namespace {

/// Largest block length and nonempty block count of a bounds vector.
void bounds_shape(const std::vector<std::int64_t>& bounds, std::int64_t* max_rows,
                  int* nonempty) {
  *max_rows = 0;
  *nonempty = 0;
  for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
    const std::int64_t len = bounds[k + 1] - bounds[k];
    if (len == 0) continue;
    ++*nonempty;
    *max_rows = std::max(*max_rows, len);
  }
}

}  // namespace

int DistGcnLayer::resolve_depth(sim::RankContext& ctx, const AggPass& pass) {
  if (opts_.pipeline_depth > 0) return opts_.pipeline_depth;
  if (*pass.depth > 0) return *pass.depth;
  // Adaptive (pipeline_depth == 0): the per-block SpMM time against the
  // largest block's ring time on this group's links.
  const int nb = static_cast<int>(pass.bounds.size()) - 1;
  const std::int64_t dense_rows = pass.in.rows();
  std::int64_t max_rows = 0;
  int nonempty = 0;
  bounds_shape(pass.bounds, &max_rows, &nonempty);
  double t_spmm = 0.0;
  if (pass.a != nullptr) {
    // Resident: the fastest block's exact noise-free SpMM time (noise only
    // slows blocks down, so this lower-bounds the hiding window).
    bool any = false;
    for (int k = 0; k < nb; ++k) {
      const std::int64_t b0 = pass.bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = pass.bounds[static_cast<std::size_t>(k) + 1];
      if (b0 == b1) continue;
      const sim::SpmmShape shape{pass.a->range_nnz(b0, b1), b1 - b0, dense_rows, din_q_};
      const double t = sim::spmm_time(*ctx.machine, shape);
      t_spmm = any ? std::min(t_spmm, t) : t;
      any = true;
    }
  } else {
    // Streamed: the shard is not resident, so price the stream plan's
    // uniform nnz estimate.
    const std::int64_t est_nnz =
        std::max<std::int64_t>(1, splan_->est_nnz / std::max(1, nonempty));
    const sim::SpmmShape shape{est_nnz, std::max<std::int64_t>(1, max_rows), dense_rows, din_q_};
    t_spmm = sim::spmm_time(*ctx.machine, shape);
  }
  const auto& g = ctx.comm.world().group(pass.gid);
  // Price what the links actually carry: bf16 wire halves the per-element
  // volume, shrinking the hiding window and therefore the adaptive depth.
  const auto eb = static_cast<std::int64_t>(ctx.comm.wire_float_bytes());
  const auto op =
      pass.scatter.empty() ? comm::Collective::AllReduce : comm::Collective::ReduceScatter;
  const double t_ring = comm::collective_time(op, eb * max_rows * din_q_, g.size(), g.link);
  *pass.depth = comm::choose_pipeline_depth(t_spmm, t_ring, nb);
  return *pass.depth;
}

int DistGcnLayer::resolve_prefetch_depth(sim::RankContext& ctx, const AggPass& pass) {
  const int nb = static_cast<int>(pass.bounds.size()) - 1;
  if (opts_.prefetch_depth > 0) return std::clamp(opts_.prefetch_depth, 1, std::max(1, nb));
  if (*pass.io_depth > 0) return *pass.io_depth;
  std::int64_t max_rows = 0;
  int nonempty = 0;
  bounds_shape(pass.bounds, &max_rows, &nonempty);
  const std::int64_t est_nnz =
      std::max<std::int64_t>(1, splan_->est_nnz / std::max(1, nonempty));
  // On-disk bytes of one block window: col idx (i32) + value (f32) per
  // nonzero, plus the row-pointer run.
  const std::int64_t block_bytes = est_nnz * 8 + (max_rows + 1) * 8;
  const double t_disk = static_cast<double>(block_bytes) / ctx.machine->disk_bw;
  const sim::SpmmShape shape{est_nnz, std::max<std::int64_t>(1, max_rows), pass.in.rows(),
                             din_q_};
  const double t_spmm = sim::spmm_time(*ctx.machine, shape);
  std::int64_t depth = comm::choose_pipeline_depth(t_spmm, t_disk, nb);
  if (opts_.rss_budget_bytes >= 0) {
    // In-flight windows are pinned (they dodge the cache's trim), so the
    // prefetch window itself must fit the budget.
    depth = std::min(depth, std::max<std::int64_t>(1, opts_.rss_budget_bytes / block_bytes));
  }
  *pass.io_depth = std::clamp(static_cast<int>(depth), 1, std::max(1, nb));
  return *pass.io_depth;
}

void DistGcnLayer::aggregate(sim::RankContext& ctx, const AggPass& pass, KernelTimers& timers) {
  const auto& bounds = pass.bounds;
  const int nb = static_cast<int>(bounds.size()) - 1;
  const int depth = resolve_depth(ctx, pass);

  // Streamed source: block loads are posted as IO handles into their own
  // pipeline deque, so disk reads (and any cache misses behind them) overlap
  // earlier blocks' SpMMs exactly like the per-block collectives do. Only the
  // wait that compute could not cover lands in timers.io_exposed.
  std::deque<std::future<BlockLoad>> loads;
  int next = 0;
  const int pf = pass.a == nullptr ? resolve_prefetch_depth(ctx, pass) : 0;
  const auto fill = [&] {
    while (static_cast<int>(loads.size()) < pf && next < nb) {
      const int k = next++;
      const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
      const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
      if (b0 == b1) continue;
      // Rows [b0, b1) of A^T are the column window [b0, b1) of A; the IO
      // worker assembles them from transposed blocks, in the same ascending
      // source-row order as the resident transpose.
      loads.push_back(pass.transpose
                          ? stream_->post(splan_->version, splan_->rows.begin, splan_->rows.end,
                                          splan_->cols.begin + b0, splan_->cols.begin + b1,
                                          /*transpose=*/true)
                          : stream_->post(splan_->version, splan_->rows.begin + b0,
                                          splan_->rows.begin + b1, splan_->cols.begin,
                                          splan_->cols.end, /*transpose=*/false));
    }
  };
  fill();

  std::deque<comm::CommHandle> inflight;
  for (int k = 0; k < nb; ++k) {
    const std::int64_t b0 = bounds[static_cast<std::size_t>(k)];
    const std::int64_t b1 = bounds[static_cast<std::size_t>(k) + 1];
    if (b0 == b1) continue;  // bounds are grid-derived, identical on all members
    std::int64_t nnz = 0;
    if (pass.a != nullptr) {
      sparse::spmm_rows(*pass.a, pass.in, pass.out, b0, b1);
      nnz = pass.a->range_nnz(b0, b1);
    } else {
      util::WallTimer io_timer;
      BlockLoad bl = loads.front().get();
      timers.io_exposed += io_timer.seconds();
      timers.io_bytes += bl.bytes_read;
      loads.pop_front();
      fill();  // repost before computing, so the IO worker never idles
      sparse::spmm_into_rows(bl.csr, pass.in, pass.out, b0);
      nnz = bl.csr.nnz();  // == range_nnz of the assembled shard
    }
    // Both sources charge the block's own nnz, so the sim cost — noise seed
    // included — is identical whether the shard is resident or streamed.
    const sim::SpmmShape shape{nnz, b1 - b0, pass.in.rows(), din_q_};
    double t = sim::spmm_time(*ctx.machine, shape);
    if (pass.noise_seed.has_value()) {
      const std::uint64_t seed = util::hash_combine(
          *pass.noise_seed,
          util::hash_combine(static_cast<std::uint64_t>(layer_),
                             util::hash_combine(static_cast<std::uint64_t>(ctx.rank()),
                                                static_cast<std::uint64_t>(k))));
      t *= sim::spmm_noise_factor(*ctx.machine, shape, seed);
    }
    ctx.comm.charge_compute(t);
    timers.spmm += t;
    std::span<float> rows{pass.out.row(b0), static_cast<std::size_t>((b1 - b0) * din_q_)};
    if (!pass.scatter.empty()) {
      std::span<float> out =
          pass.scatter.subspan(static_cast<std::size_t>(b0 / ext_r_ * din_q_),
                               rows.size() / static_cast<std::size_t>(ext_r_));
      inflight.push_back(
          ctx.comm.ireduce_scatter_sum<float>(pass.gid, std::span<const float>(rows), out));
    } else {
      inflight.push_back(ctx.comm.iall_reduce_sum<float>(pass.gid, rows));
    }
    trim_pipeline(inflight, depth);
  }
  drain_pipeline(inflight);
}

const dense::Matrix& DistGcnLayer::forward(sim::RankContext& ctx, const dense::Matrix& f_in,
                                           bool last, std::uint64_t epoch_seed,
                                           KernelTimers& timers) {
  PLEXUS_CHECK(f_in.rows() == rows_p_ && f_in.cols() == din_q_, "forward input block shape");
  const sim::Machine& m = *ctx.machine;

  // ---- Step 1: aggregation H = SpMM(A, F), all-reduced over the P group.
  // Blocked aggregation (section 5.2) as a true software pipeline: block k's
  // all-reduce executes on the comm thread while later blocks' SpMMs run
  // here, with up to pipeline_depth - 1 collectives in flight. The exposed
  // communication charge falls out of each handle's completion ordering
  // against this rank's clock — there is no hand-fed overlap credit.
  //
  // The weight gather over R depends only on w_slice_, so it is posted before
  // the aggregation and retired just before the combination GEMM: on the sim
  // timeline it hides behind the SpMM blocks instead of charging full latency.
  h_.ensure_shape(rows_r_, din_q_);
  comm::CommHandle w_gather = igather_weights(ctx);
  aggregate(ctx,
            {.a = adj_ != nullptr ? &adj_->a : nullptr,
             .transpose = false,
             .in = f_in,
             .out = h_,
             .bounds = sparse::block_bounds(rows_r_, std::max(1, opts_.agg_row_blocks)),
             .gid = p_group_,
             .scatter = {},
             .noise_seed = epoch_seed,
             .depth = &fwd_depth_,
             .io_depth = &fwd_io_depth_},
            timers);

  // ---- Step 2: combination Q = SGEMM(H, W), all-reduced over the Q group.
  w_gather.wait();
  q_.ensure_shape(rows_r_, dout_p_);
  dense::gemm(dense::Trans::N, dense::Trans::N, 1.0f, h_, w_block_, /*beta=*/0.0f, q_);
  const double t_gemm = sim::gemm_time(m, rows_r_, dout_p_, din_q_, dense::Trans::N,
                                       dense::Trans::N);
  ctx.comm.charge_compute(t_gemm);
  timers.gemm += t_gemm;
  ctx.comm.all_reduce_sum<float>(q_group_, q_.flat());

  // ---- Step 3: activation, in place. relu(q) > 0 exactly where q > 0, so
  // the saved output gives relu_backward the pre-activation's mask.
  if (last) return q_;
  dense::relu(q_, q_);
  const double t_act = sim::elementwise_time(m, q_.size());
  ctx.comm.charge_compute(t_act);
  timers.elementwise += t_act;
  return q_;
}

dense::Matrix& DistGcnLayer::backward(sim::RankContext& ctx, dense::Matrix& df_out, bool last,
                                      KernelTimers& timers, std::span<float> grad_slice) {
  PLEXUS_CHECK(df_out.rows() == rows_r_ && df_out.cols() == dout_p_, "backward input shape");
  const sim::Machine& m = *ctx.machine;

  // W is needed only for the dH GEMM: post the R-group gather now so it
  // overlaps relu' and the dW GEMM (a blocking gather here used to charge its
  // full latency every backward pass).
  comm::CommHandle w_gather = igather_weights(ctx);

  // dQ = dF_out (last layer: the loss gradient, used as is) or
  // dF_out ⊙ relu'(Q) (eq. 2.4), formed in place over dF_out.
  dense::Matrix& dq = df_out;
  if (!last) {
    dense::relu_backward(q_, df_out, dq);
    const double t = sim::elementwise_time(m, dq.size(), 3.0);
    ctx.comm.charge_compute(t);
    timers.elementwise += t;
  }

  // dW = H^T dQ (eq. 2.5), reduce-scattered over the R group (Alg. 2 line 3).
  // Section 5.3 tuning replaces the slow transpose-first GEMM by the reversed
  // order (SGEMM(dQ^T, H))^T, which dispatches in the fast mode. The
  // reduce-scatter result is not needed until apply_grad, so it is posted
  // asynchronously and hides behind the rest of the backward pass. Dropping
  // the previous handle completes a reduce-scatter that apply_grad never
  // retired before dw_block_ is overwritten.
  dw_handle_ = {};
  dw_block_.ensure_shape(din_q_, dout_p_);
  if (opts_.gemm_dw_tuning) {
    dw_rev_.ensure_shape(dout_p_, din_q_);
    dense::gemm(dense::Trans::T, dense::Trans::N, 1.0f, dq, h_, /*beta=*/0.0f, dw_rev_);
    dw_rev_.transpose_into(dw_block_);
    const double t = sim::gemm_time(m, din_q_, dout_p_, rows_r_, dense::Trans::N, dense::Trans::T) +
                     sim::elementwise_time(m, dw_block_.size());
    ctx.comm.charge_compute(t);
    timers.gemm += t;
  } else {
    dense::gemm(dense::Trans::T, dense::Trans::N, 1.0f, h_, dq, /*beta=*/0.0f, dw_block_);
    const double t = sim::gemm_time(m, din_q_, dout_p_, rows_r_, dense::Trans::T, dense::Trans::N);
    ctx.comm.charge_compute(t);
    timers.gemm += t;
  }
  dw_handle_ = ctx.comm.ireduce_scatter_sum<float>(r_group_, dw_block_.flat(), dw_slice_);

  // dH = dQ W^T (eq. 2.6), all-reduced over the P group (Alg. 2 lines 4-6).
  // It goes into H's buffer: same shape, and H is dead once dW is formed.
  // W^T is copied into its own workspace so the GEMM reads B in place, row
  // by row; the charge stays that of the (N, T) GEMM it computes.
  w_gather.wait();
  w_t_.ensure_shape(dout_p_, din_q_);
  w_block_.transpose_into(w_t_);
  dense::Matrix& dh = h_;
  dense::gemm(dense::Trans::N, dense::Trans::N, 1.0f, dq, w_t_, /*beta=*/0.0f, dh);
  {
    const double t = sim::gemm_time(m, rows_r_, din_q_, dout_p_, dense::Trans::N, dense::Trans::T);
    ctx.comm.charge_compute(t);
    timers.gemm += t;
  }
  ctx.comm.all_reduce_sum<float>(p_group_, dh.flat());

  // dF = SpMM(A^T, dH) (eq. 2.7), blocked over output rows — the backward
  // mirror of section 5.2. The final R-group collective pipelines behind the
  // next block's SpMM: per-block all-reduces for the hidden layers, or (layer
  // 0) per-block reduce-scatters whose R-aligned row blocks land directly on
  // the caller's resharded flat gradient slice.
  df_in_.ensure_shape(rows_p_, din_q_);
  const int nb = std::max(1, opts_.agg_row_blocks);
  const bool scatter = layer_ == 0;
  if (scatter) {
    PLEXUS_CHECK(grad_slice.size() == static_cast<std::size_t>(rows_p_ / ext_r_ * din_q_),
                 "backward: grad_slice does not match the resharded feature slice");
  }
  aggregate(ctx,
            {.a = adj_ != nullptr ? &adj_->a_t : nullptr,
             .transpose = true,
             .in = dh,
             .out = df_in_,
             .bounds = scatter ? sparse::block_bounds_aligned(rows_p_, nb, ext_r_)
                               : sparse::block_bounds(rows_p_, nb),
             .gid = r_group_,
             .scatter = scatter ? grad_slice : std::span<float>{},
             .noise_seed = std::nullopt,
             .depth = &bwd_depth_,
             .io_depth = &bwd_io_depth_},
            timers);
  return df_in_;
}

void DistGcnLayer::apply_grad(sim::RankContext& ctx, KernelTimers& timers) {
  // Retire the dW reduce-scatter posted in backward(); by now it has usually
  // been fully hidden behind the remaining backward compute.
  if (dw_handle_.valid()) dw_handle_.wait();
  adam_.step(w_slice_, dw_slice_);
  const double t = sim::elementwise_time(*ctx.machine, static_cast<std::int64_t>(w_slice_.size()),
                                         6.0);
  ctx.comm.charge_compute(t);
  timers.elementwise += t;
}

}  // namespace plexus::core
