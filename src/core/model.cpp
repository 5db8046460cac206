#include "core/model.hpp"

#include <algorithm>
#include <span>

#include "core/shard.hpp"
#include "sim/kernels.hpp"
#include "sparse/partition2d.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plexus::core {

namespace {

std::int64_t round_up(std::int64_t v, std::int64_t multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

}  // namespace

DistGcn::DistGcn(sim::RankContext& ctx, const DatasetView& view, const Grid3D& grid, GcnSpec spec)
    : view_(&view), grid_(&grid), rank_(ctx.rank()), spec_(std::move(spec)) {
  const int L = spec_.num_layers();
  const std::int64_t volume = grid.size();

  // Valid layer dims: [D, hidden..., C]; padded to the grid volume.
  std::vector<std::int64_t> valid_dims;
  valid_dims.push_back(view.feature_dim());
  for (const auto h : spec_.hidden_dims) valid_dims.push_back(h);
  valid_dims.push_back(view.num_classes());
  padded_dims_.clear();
  for (const auto d : valid_dims) padded_dims_.push_back(round_up(d, volume));
  PLEXUS_CHECK(padded_dims_[0] == view.padded_feature_dim(),
               "dataset must be preprocessed with the same pad multiple as the grid volume");

  // Out-of-core mode: a budgeted sharded view streams adjacency blocks from
  // disk instead of materialising shards. Streaming is a pure scheduling /
  // memory knob — every arithmetic result is bitwise-identical to resident
  // mode.
  const bool streaming = view.streaming();
  if (streaming) stream_ = std::make_unique<ShardStream>(view);

  adj_store_ = std::make_unique<AdjacencyStore>(view, grid, ctx.rank(), L, streaming);
  for (int l = 0; l < L; ++l) {
    layers_.push_back(std::make_unique<DistGcnLayer>(
        view.padded_nodes(), grid, ctx.rank(), l, L, padded_dims_[static_cast<std::size_t>(l)],
        padded_dims_[static_cast<std::size_t>(l) + 1], valid_dims[static_cast<std::size_t>(l)],
        valid_dims[static_cast<std::size_t>(l) + 1],
        streaming ? nullptr : &adj_store_->layer(l), spec_.options, spec_.seed, stream_.get(),
        streaming ? &adj_store_->layer_stream(l) : nullptr));
  }

  // Input feature shard: block (rows along P0, cols along Q0), sharded 1/R0
  // across R0 because the trainable embeddings carry Adam state (section
  // 3.1). The slice is resharded row-major against the R0-aligned aggregation
  // row blocks (see model.hpp) so the layer-0 gradient reduce-scatter and the
  // input gather both run per block and join the software pipeline.
  const LayerRoles r0 = roles_for_layer(0);
  const Coords c = grid.coords_of(ctx.rank());
  const auto blk = matrix_shard(view.padded_nodes(), padded_dims_[0], grid, c, r0.p, r0.q);
  f_block_rows_ = blk.rows.size();
  f_block_cols_ = blk.cols.size();
  const dense::Matrix f_block =
      view.feature_block(blk.rows.begin, blk.rows.end, blk.cols.begin, blk.cols.end);
  f_r_ext_ = grid.extent(r0.r);
  f_r_coord_ = Grid3D::coord(c, r0.r);
  const int nb = std::max(1, spec_.options.agg_row_blocks);
  f_bounds_ = sparse::block_bounds_aligned(f_block_rows_, nb, f_r_ext_);
  f_slice_.reserve(static_cast<std::size_t>(f_block_rows_ / f_r_ext_ * f_block_cols_));
  for (std::size_t k = 0; k + 1 < f_bounds_.size(); ++k) {
    const std::int64_t len = f_bounds_[k + 1] - f_bounds_[k];
    const std::int64_t sub = len / f_r_ext_;
    const std::int64_t r0_row = f_bounds_[k] + f_r_coord_ * sub;
    const float* src = f_block.row(r0_row);
    f_slice_.insert(f_slice_.end(), src, src + sub * f_block_cols_);
  }
  df_slice_.assign(f_slice_.size(), 0.0f);
  f_adam_ = dense::Adam(f_slice_.size(), spec_.options.adam);
}

void DistGcn::gather_input_features(sim::RankContext& ctx) {
  // One all-gather per aggregation row block: member m's sub-slice of block k
  // lands exactly on rows [b0 + m*len/R0, b0 + (m+1)*len/R0) — the reshard
  // layout — so the gathers reassemble the row-major block in place. Posting
  // all blocks before waiting pipelines them on the R0 ring.
  f_in_.ensure_shape(f_block_rows_, f_block_cols_);
  const auto gid = layers_[0]->r_group();
  std::vector<comm::CommHandle> inflight;
  inflight.reserve(f_bounds_.size());
  std::size_t off = 0;
  for (std::size_t k = 0; k + 1 < f_bounds_.size(); ++k) {
    const std::int64_t b0 = f_bounds_[k];
    const std::int64_t len = f_bounds_[k + 1] - b0;
    if (len == 0) continue;  // bounds are grid-derived, identical on all members
    const std::size_t n = static_cast<std::size_t>(len / f_r_ext_ * f_block_cols_);
    std::span<const float> in{f_slice_.data() + off, n};
    std::span<float> out{f_in_.row(b0), static_cast<std::size_t>(len * f_block_cols_)};
    inflight.push_back(ctx.comm.iall_gather<float>(gid, in, out));
    off += n;
  }
  for (auto& h : inflight) h.wait();
}

const dense::Matrix& DistGcn::forward_all(sim::RankContext& ctx, std::uint64_t epoch_seed,
                                          KernelTimers& timers) {
  // Alg. 1 line 3: layer 0 all-gathers the flat-sharded features across Z (R0);
  // later layers receive full blocks from the previous layer (section 3.2).
  gather_input_features(ctx);
  const dense::Matrix* f = &f_in_;
  const int L = spec_.num_layers();
  for (int l = 0; l < L; ++l) {
    f = &layers_[static_cast<std::size_t>(l)]->forward(ctx, *f, /*last=*/l == L - 1, epoch_seed,
                                                       timers);
  }
  return *f;
}

std::int64_t DistGcn::workspace_bytes() const {
  std::int64_t bytes = (f_in_.size() + dlogits_.size()) * static_cast<std::int64_t>(sizeof(float)) +
                       static_cast<std::int64_t>(logits_gathered_.size() * sizeof(float));
  for (const auto& layer : layers_) bytes += layer->workspace_bytes();
  return bytes;
}

EpochStats DistGcn::train_epoch(sim::RankContext& ctx, int epoch) {
  const double t0 = ctx.clock.time();
  const double comm0 = ctx.comm.stats().total_seconds();
  const double hidden0 = ctx.comm.stats().total_hidden_seconds();
  const std::int64_t wire0 = ctx.comm.stats().total_wire_bytes();
  KernelTimers timers;
  const std::uint64_t epoch_seed = util::hash_combine(spec_.seed, 0xe90c000 + epoch);
  const int L = spec_.num_layers();

  const dense::Matrix& logits = forward_all(ctx, epoch_seed, timers);

  const LossResult loss = distributed_softmax_ce(
      ctx, *grid_, L - 1, *view_, logits, view_->mask(Split::Train),
      static_cast<double>(view_->train_total()), logits_gathered_, &dlogits_);

  // Backward sweep (Alg. 2 per layer). Between layers the partial dF_in is
  // all-reduced over that layer's R group — fused into the layer's blocked
  // dF SpMM so the per-block collective pipelines behind compute; at layer 0
  // it is reduce-scattered per block onto the resharded trainable feature
  // slices instead (section 3.2), riding the same pipeline.
  // Each layer forms dQ in place over the dF it is handed and returns its own
  // dF_in buffer; layer 0's dF lands on df_slice_.
  dense::Matrix* df = &dlogits_;
  for (int l = L - 1; l >= 0; --l) {
    df = &layers_[static_cast<std::size_t>(l)]->backward(ctx, *df, /*last=*/l == L - 1, timers,
                                                         df_slice_);
  }

  // Optimizer step.
  for (auto& layer : layers_) layer->apply_grad(ctx, timers);
  f_adam_.step(f_slice_, df_slice_);
  const double t = sim::elementwise_time(*ctx.machine,
                                         static_cast<std::int64_t>(f_slice_.size()), 6.0);
  ctx.comm.charge_compute(t);
  timers.elementwise += t;

  EpochStats s;
  s.loss = loss.loss;
  s.train_accuracy = loss.accuracy;
  s.epoch_seconds = ctx.clock.time() - t0;
  s.spmm_seconds = timers.spmm;
  s.gemm_seconds = timers.gemm;
  s.elementwise_seconds = timers.elementwise;
  s.comm_seconds = ctx.comm.stats().total_seconds() - comm0;
  s.hidden_comm_seconds = ctx.comm.stats().total_hidden_seconds() - hidden0;
  s.comm_wire_bytes = static_cast<double>(ctx.comm.stats().total_wire_bytes() - wire0);
  s.io_exposed_seconds = timers.io_exposed;
  s.io_bytes_streamed = static_cast<double>(timers.io_bytes);
  return s;
}

CheckpointData DistGcn::gather_state(sim::RankContext& ctx) {
  const Grid3D& grid = *grid_;
  const comm::GroupId wg = grid.world_group();
  const int world = grid.size();
  const int L = spec_.num_layers();
  const bool root = ctx.rank() == 0;

  CheckpointData out;
  io::ModelState& s = out.model;
  s.hidden_dims = spec_.hidden_dims;
  s.model_seed = spec_.seed;
  s.agg_row_blocks = spec_.options.agg_row_blocks;
  s.gemm_dw_tuning = spec_.options.gemm_dw_tuning ? 1 : 0;
  s.pipeline_depth = spec_.options.pipeline_depth;
  s.adam = spec_.options.adam;

  // Every rank holds an equal-size flat slice of each sharded buffer (dims
  // are padded to the grid volume), so one world-group all-gather per buffer
  // suffices. The buffers go one at a time through one receive buffer, and
  // only rank 0 re-scatters every member's slice into the global copy.
  std::vector<float> gathered;
  const auto gather = [&](std::span<const float> slice) {
    gathered.resize(slice.size() * static_cast<std::size_t>(world));
    ctx.comm.all_gather<float>(wg, slice, gathered);
  };

  // Per-layer weights + Adam moments, each member's slice re-scattered with
  // that member's (deterministic) layout — the (q, p, r) coordinates tile the
  // matrix exactly once.
  for (int l = 0; l < L; ++l) {
    auto& layer = *layers_[static_cast<std::size_t>(l)];
    const std::int64_t rows = padded_dims_[static_cast<std::size_t>(l)];
    const std::int64_t cols = padded_dims_[static_cast<std::size_t>(l) + 1];
    const std::size_t slice = layer.weight_slice().size();
    const LayerRoles& roles = layer.roles();
    const auto rescatter = [&](std::vector<float>& dst) {
      dst.assign(static_cast<std::size_t>(rows * cols), 0.0f);
      for (int r = 0; r < world; ++r) {
        const Coords c = grid.coords_of(r);
        const Slice wr = uniform_slice(rows, grid.extent(roles.q), Grid3D::coord(c, roles.q));
        const Slice wc = uniform_slice(cols, grid.extent(roles.p), Grid3D::coord(c, roles.p));
        const Slice fs = flat_slice_range(wr.size() * wc.size(), grid.extent(roles.r),
                                          Grid3D::coord(c, roles.r));
        PLEXUS_CHECK(static_cast<std::size_t>(fs.size()) == slice,
                     "gather_state: weight slice size mismatch");
        const std::size_t base = static_cast<std::size_t>(r) * slice;
        for (std::int64_t i = 0; i < fs.size(); ++i) {
          const std::int64_t flat = fs.begin + i;
          dst[static_cast<std::size_t>((wr.begin + flat / wc.size()) * cols + wc.begin +
                                       flat % wc.size())] =
              gathered[base + static_cast<std::size_t>(i)];
        }
      }
    };
    io::LayerState ls;
    ls.rows = rows;
    ls.cols = cols;
    ls.adam_t = layer.optimizer().t();  // identical on all ranks
    gather(layer.weight_slice());
    if (root) rescatter(ls.w);
    gather(layer.optimizer().m());
    if (root) rescatter(ls.m);
    gather(layer.optimizer().v());
    if (root) rescatter(ls.v);
    if (root) s.layers.push_back(std::move(ls));
  }

  // Trainable features + their Adam moments: same gather-then-re-scatter,
  // but through the layer-0 reshard layout (matrix_shard block, R0-aligned
  // aggregation row blocks, r-th sub-range of each block — mirrors the ctor).
  const std::int64_t feat_rows = view_->padded_nodes();
  const std::int64_t feat_cols = padded_dims_[0];
  const std::size_t fslice = f_slice_.size();
  const LayerRoles r0 = roles_for_layer(0);
  const int nb = std::max(1, spec_.options.agg_row_blocks);
  const auto rescatter_features = [&](float* dst) {
    for (int r = 0; r < world; ++r) {
      const Coords c = grid.coords_of(r);
      const auto blk = matrix_shard(feat_rows, feat_cols, grid, c, r0.p, r0.q);
      const int ext_r = grid.extent(r0.r);
      const int rc = Grid3D::coord(c, r0.r);
      const auto bounds = sparse::block_bounds_aligned(blk.rows.size(), nb, ext_r);
      const std::int64_t bcols = blk.cols.size();
      std::size_t off = static_cast<std::size_t>(r) * fslice;
      for (std::size_t k = 0; k + 1 < bounds.size(); ++k) {
        const std::int64_t sub = (bounds[k + 1] - bounds[k]) / ext_r;
        for (std::int64_t i = 0; i < sub; ++i) {
          const std::int64_t grow = blk.rows.begin + bounds[k] + rc * sub + i;
          std::copy_n(gathered.data() + off, bcols, dst + grow * feat_cols + blk.cols.begin);
          off += static_cast<std::size_t>(bcols);
        }
      }
      PLEXUS_CHECK(off == static_cast<std::size_t>(r + 1) * fslice,
                   "gather_state: feature slice size mismatch");
    }
  };
  const std::size_t ftotal = static_cast<std::size_t>(feat_rows * feat_cols);
  gather(f_slice_);
  if (root) {
    s.feat_rows = feat_rows;
    s.feat_cols = feat_cols;
    s.feat_t = f_adam_.t();
    out.features = dense::Matrix(feat_rows, feat_cols);
    rescatter_features(out.features.data());
  }
  gather(f_adam_.m());
  if (root) {
    s.feat_m.assign(ftotal, 0.0f);
    rescatter_features(s.feat_m.data());
  }
  gather(f_adam_.v());
  if (root) {
    s.feat_v.assign(ftotal, 0.0f);
    rescatter_features(s.feat_v.data());
  }
  return out;
}

void DistGcn::restore_state(const io::ModelState& s) {
  const Grid3D& grid = *grid_;
  const int L = spec_.num_layers();
  PLEXUS_CHECK(s.num_layers() == L && s.hidden_dims == spec_.hidden_dims,
               "restore_state: checkpoint model shape does not match this model");
  PLEXUS_CHECK(s.feat_rows == view_->padded_nodes() && s.feat_cols == padded_dims_[0],
               "restore_state: checkpoint feature shape does not match the dataset");
  const Coords c = grid.coords_of(rank_);

  for (int l = 0; l < L; ++l) {
    auto& layer = *layers_[static_cast<std::size_t>(l)];
    const io::LayerState& ls = s.layers[static_cast<std::size_t>(l)];
    PLEXUS_CHECK(ls.rows == padded_dims_[static_cast<std::size_t>(l)] &&
                     ls.cols == padded_dims_[static_cast<std::size_t>(l) + 1],
                 "restore_state: layer dims do not match");
    const LayerRoles& roles = layer.roles();
    const Slice wr = uniform_slice(ls.rows, grid.extent(roles.q), Grid3D::coord(c, roles.q));
    const Slice wc = uniform_slice(ls.cols, grid.extent(roles.p), Grid3D::coord(c, roles.p));
    const Slice fs =
        flat_slice_range(wr.size() * wc.size(), grid.extent(roles.r), Grid3D::coord(c, roles.r));
    std::vector<float> w(static_cast<std::size_t>(fs.size()));
    std::vector<float> m(w.size());
    std::vector<float> v(w.size());
    for (std::int64_t i = 0; i < fs.size(); ++i) {
      const std::int64_t flat = fs.begin + i;
      const std::size_t src = static_cast<std::size_t>(
          (wr.begin + flat / wc.size()) * ls.cols + wc.begin + flat % wc.size());
      w[static_cast<std::size_t>(i)] = ls.w[src];
      m[static_cast<std::size_t>(i)] = ls.m[src];
      v[static_cast<std::size_t>(i)] = ls.v[src];
    }
    layer.restore_state(w, m, v, ls.adam_t);
  }

  // Feature Adam moments, re-sliced through the ctor's reshard layout. The
  // features themselves were already loaded from the view (the checkpoint's
  // feature blocks are the trained embeddings).
  std::vector<float> fm(f_slice_.size());
  std::vector<float> fv(f_slice_.size());
  const LayerRoles r0 = roles_for_layer(0);
  const auto blk = matrix_shard(s.feat_rows, s.feat_cols, grid, c, r0.p, r0.q);
  std::size_t off = 0;
  for (std::size_t k = 0; k + 1 < f_bounds_.size(); ++k) {
    const std::int64_t sub = (f_bounds_[k + 1] - f_bounds_[k]) / f_r_ext_;
    for (std::int64_t i = 0; i < sub; ++i) {
      const std::int64_t grow = blk.rows.begin + f_bounds_[k] + f_r_coord_ * sub + i;
      const std::size_t src = static_cast<std::size_t>(grow * s.feat_cols + blk.cols.begin);
      std::copy_n(s.feat_m.data() + src, f_block_cols_, fm.data() + off);
      std::copy_n(s.feat_v.data() + src, f_block_cols_, fv.data() + off);
      off += static_cast<std::size_t>(f_block_cols_);
    }
  }
  PLEXUS_CHECK(off == f_slice_.size(), "restore_state: feature slice size mismatch");
  f_adam_.set_state(fm, fv, s.feat_t);
}

dense::Matrix DistGcn::forward_logits(sim::RankContext& ctx) {
  KernelTimers timers;
  return forward_all(ctx, /*epoch_seed=*/0, timers);
}

double DistGcn::evaluate(sim::RankContext& ctx, const std::vector<std::uint8_t>& mask) {
  KernelTimers timers;
  const dense::Matrix& logits = forward_all(ctx, /*epoch_seed=*/0, timers);
  const LossResult r = distributed_softmax_ce(ctx, *grid_, spec_.num_layers() - 1, *view_, logits,
                                              mask, static_cast<double>(view_->train_total()),
                                              logits_gathered_, /*dlogits=*/nullptr);
  return r.accuracy;
}

}  // namespace plexus::core
