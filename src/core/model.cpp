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
  // input gather both run per block and join the software pipeline. The
  // slice map names the slice's global elements; they are read out of this
  // rank's feature block.
  const LayerRoles r0 = roles_for_layer(0);
  const Coords c = grid.coords_of(ctx.rank());
  const std::int64_t feat_cols = padded_dims_[0];
  const auto blk = matrix_shard(view.padded_nodes(), feat_cols, grid, c, r0.p, r0.q);
  f_block_rows_ = blk.rows.size();
  f_block_cols_ = blk.cols.size();
  const dense::Matrix f_block =
      view.feature_block(blk.rows.begin, blk.rows.end, blk.cols.begin, blk.cols.end);
  f_r_ext_ = grid.extent(r0.r);
  f_bounds_ = sparse::block_bounds_aligned(f_block_rows_, std::max(1, spec_.options.agg_row_blocks),
                                           f_r_ext_);
  f_slice_.reserve(static_cast<std::size_t>(f_block_rows_ / f_r_ext_ * f_block_cols_));
  for (const SliceRun& run : feature_slice_runs(view.padded_nodes(), feat_cols, grid, c,
                                                spec_.options.agg_row_blocks)) {
    const float* src = f_block.row(run.offset / feat_cols - blk.rows.begin) +
                       (run.offset % feat_cols - blk.cols.begin);
    f_slice_.insert(f_slice_.end(), src, src + run.length);
  }
  df_slice_.assign(f_slice_.size(), 0.0f);
  f_adam_ = dense::Adam(f_slice_.size(), spec_.options.adam);
  layer_in_.assign(static_cast<std::size_t>(L), nullptr);
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

dense::Matrix& DistGcn::forward_all(sim::RankContext& ctx, std::uint64_t epoch_seed,
                                    KernelTimers& timers) {
  // Alg. 1 line 3: layer 0 all-gathers the flat-sharded features across Z (R0);
  // later layers receive full blocks from the previous layer (section 3.2).
  gather_input_features(ctx);
  dense::Matrix* f = &f_in_;
  const int L = spec_.num_layers();
  for (int l = 0; l < L; ++l) {
    layer_in_[static_cast<std::size_t>(l)] = f;
    f = &layers_[static_cast<std::size_t>(l)]->forward(ctx, *f, /*last=*/l == L - 1, epoch_seed,
                                                       timers);
  }
  return *f;
}

std::int64_t DistGcn::workspace_bytes() const {
  std::int64_t bytes = f_in_.size() * static_cast<std::int64_t>(sizeof(float)) +
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

  // The loss gradient overwrites the logits: the loss reads them only
  // through its blocking P-gather, which returns before the gradient is
  // written.
  dense::Matrix& logits = forward_all(ctx, epoch_seed, timers);
  const LossResult loss = distributed_softmax_ce(
      ctx, *grid_, L - 1, *view_, logits, view_->mask(Split::Train),
      static_cast<double>(view_->train_total()), logits_gathered_, &logits);

  // Backward sweep (Alg. 2 per layer). Between layers the partial dF_in is
  // all-reduced over that layer's R group — fused into the layer's blocked
  // dF SpMM so the per-block collective pipelines behind compute; at layer 0
  // it is reduce-scattered per block onto the resharded trainable feature
  // slices instead (section 3.2), riding the same pipeline.
  // Each layer forms dQ in place over the dF it is handed and writes dF_in
  // over the input its forward read, dead since that forward: layer l-1's Q
  // (whose ReLU mask the layer keeps as bits), or at layer 0 the gathered
  // input block, whose reduce-scatters land dF on df_slice_.
  dense::Matrix* df = &logits;
  for (int l = L - 1; l >= 0; --l) {
    dense::Matrix& df_in = *layer_in_[static_cast<std::size_t>(l)];
    layers_[static_cast<std::size_t>(l)]->backward(ctx, *df, /*last=*/l == L - 1, df_in, timers,
                                                   df_slice_);
    df = &df_in;
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
  // suffices. The buffers go one at a time through one receive buffer. Rank
  // 0 then lays each member's slice down through that member's slice runs,
  // which tile the global buffer exactly once, into a global buffer it
  // allocates only after the gather.
  std::vector<float> gathered;
  std::vector<std::vector<SliceRun>> member_runs(root ? static_cast<std::size_t>(world) : 0);
  const auto map_members = [&](std::size_t slice, const auto& runs_of) {
    for (int m = 0; m < static_cast<int>(member_runs.size()); ++m) {
      auto& runs = member_runs[static_cast<std::size_t>(m)];
      runs = runs_of(grid.coords_of(m));
      PLEXUS_CHECK(runs_length(runs) == static_cast<std::int64_t>(slice),
                   "gather_state: slice runs do not match the slice length");
    }
  };
  const auto gather = [&](std::span<const float> slice) {
    gathered.resize(slice.size() * static_cast<std::size_t>(world));
    ctx.comm.all_gather<float>(wg, slice, gathered);
  };
  const auto lay_down = [&](float* dst) {
    const float* src = gathered.data();
    for (const auto& runs : member_runs) {
      for (const SliceRun& run : runs) {
        std::copy_n(src, run.length, dst + run.offset);
        src += run.length;
      }
    }
  };
  const auto sized = [](std::vector<float>& v, std::int64_t n) {
    v.assign(static_cast<std::size_t>(n), 0.0f);
    return v.data();
  };

  for (int l = 0; l < L; ++l) {
    auto& layer = *layers_[static_cast<std::size_t>(l)];
    io::LayerState ls;
    ls.rows = padded_dims_[static_cast<std::size_t>(l)];
    ls.cols = padded_dims_[static_cast<std::size_t>(l) + 1];
    ls.adam_t = layer.optimizer().t();  // identical on all ranks
    map_members(layer.weight_slice().size(), [&](const Coords& c) {
      return weight_slice_runs(ls.rows, ls.cols, grid, layer.roles(), c);
    });
    gather(layer.weight_slice());
    if (root) lay_down(sized(ls.w, ls.rows * ls.cols));
    gather(layer.optimizer().m());
    if (root) lay_down(sized(ls.m, ls.rows * ls.cols));
    gather(layer.optimizer().v());
    if (root) lay_down(sized(ls.v, ls.rows * ls.cols));
    if (root) s.layers.push_back(std::move(ls));
  }

  // Trainable features + their Adam moments, through the features' slice map.
  const std::int64_t feat_rows = view_->padded_nodes();
  const std::int64_t feat_cols = padded_dims_[0];
  map_members(f_slice_.size(), [&](const Coords& c) {
    return feature_slice_runs(feat_rows, feat_cols, grid, c, spec_.options.agg_row_blocks);
  });
  gather(f_slice_);
  if (root) {
    s.feat_rows = feat_rows;
    s.feat_cols = feat_cols;
    s.feat_t = f_adam_.t();
    out.features = dense::Matrix(feat_rows, feat_cols);
    lay_down(out.features.data());
  }
  gather(f_adam_.m());
  if (root) lay_down(sized(s.feat_m, feat_rows * feat_cols));
  gather(f_adam_.v());
  if (root) lay_down(sized(s.feat_v, feat_rows * feat_cols));
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
  // This rank's slice of a global buffer: its runs, read back in slice order.
  const auto read_runs = [](const std::vector<float>& global, const std::vector<SliceRun>& runs) {
    std::vector<float> slice;
    slice.reserve(static_cast<std::size_t>(runs_length(runs)));
    for (const SliceRun& run : runs) {
      PLEXUS_CHECK(run.offset + run.length <= static_cast<std::int64_t>(global.size()),
                   "restore_state: checkpoint buffer is smaller than its slice map");
      slice.insert(slice.end(), global.begin() + run.offset,
                   global.begin() + run.offset + run.length);
    }
    return slice;
  };

  for (int l = 0; l < L; ++l) {
    auto& layer = *layers_[static_cast<std::size_t>(l)];
    const io::LayerState& ls = s.layers[static_cast<std::size_t>(l)];
    PLEXUS_CHECK(ls.rows == padded_dims_[static_cast<std::size_t>(l)] &&
                     ls.cols == padded_dims_[static_cast<std::size_t>(l) + 1],
                 "restore_state: layer dims do not match");
    const auto runs = weight_slice_runs(ls.rows, ls.cols, grid, layer.roles(), c);
    layer.restore_state(read_runs(ls.w, runs), read_runs(ls.m, runs), read_runs(ls.v, runs),
                        ls.adam_t);
  }

  // Feature Adam moments only. The features themselves were already loaded
  // from the view (the checkpoint's feature blocks are the trained
  // embeddings).
  const auto runs =
      feature_slice_runs(s.feat_rows, s.feat_cols, grid, c, spec_.options.agg_row_blocks);
  PLEXUS_CHECK(runs_length(runs) == static_cast<std::int64_t>(f_slice_.size()),
               "restore_state: feature slice size mismatch");
  f_adam_.set_state(read_runs(s.feat_m, runs), read_runs(s.feat_v, runs), s.feat_t);
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
