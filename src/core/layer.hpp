#pragma once
/// \file layer.hpp
/// One distributed GCN layer: the forward pass of Algorithm 1 and backward
/// pass of Algorithm 2, generalised to every layer through the role rotation
/// (roles.hpp). Includes the two kernel-level optimisations of section 5:
/// blocked aggregation with pipelined per-block all-reduce (5.2) and the
/// reversed-order dL/dW GEMM (5.3).
///
/// A layer owns its weight shard (the (Din/Q x Dout/P) block, flat-sharded
/// across the R-parallel group) and that shard's Adam state, plus the epoch's
/// workspace: H (reused for dH), Q (ReLU applied in place), the gathered W
/// block, dW and dF_in. Each buffer is sized on first use and reused every
/// epoch after, so a steady epoch allocates none of them. All simulated
/// kernel time is charged onto the rank's clock; collectives charge and
/// synchronise through the communicator.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/adjacency_store.hpp"
#include "core/grid.hpp"
#include "core/preprocess.hpp"
#include "core/roles.hpp"
#include "core/shard.hpp"
#include "dense/matrix.hpp"
#include "dense/optim.hpp"
#include "sim/cluster.hpp"

namespace plexus::core {

class ShardStream;

/// Tunables of the parallel algorithm (paper section 5).
struct PlexusOptions {
  int agg_row_blocks = 1;       ///< >1 enables blocked aggregation (section 5.2)
  bool gemm_dw_tuning = false;  ///< reversed dL/dW multiplication order (section 5.3)
  /// Software-pipeline depth of blocked aggregation: while a block's SpMM
  /// runs, up to `pipeline_depth - 1` per-block collectives may be in flight
  /// on the rank's comm thread. 1 = fully blocking (wait immediately after post);
  /// 2 = the classic one-block lookahead of section 5.2. 0 (the default) =
  /// adaptive: each layer picks its own depth from the perf model (per-block
  /// SpMM time vs per-block ring time — comm::choose_pipeline_depth),
  /// separately for the forward and backward aggregations. Losses are
  /// bitwise-identical for any depth — only the exposed comm time changes,
  /// and the adaptive choice exposes no more than any fixed depth.
  int pipeline_depth = 0;
  /// Streaming epochs only: number of block loads the prefetch thread keeps
  /// in flight ahead of the consuming SpMM. 0 (the default) = adaptive — the
  /// perf model balances per-block SpMM time against per-block disk time
  /// (comm::choose_pipeline_depth over sim::Machine::disk_bw), clamped so the
  /// in-flight windows stay inside rss_budget_bytes. Like pipeline_depth a
  /// pure scheduling knob: losses are bitwise-identical for any depth.
  int prefetch_depth = 0;
  /// Streaming epochs only: RSS budget (bytes) the block cache and prefetch
  /// window planner honour. < 0 = unbounded.
  std::int64_t rss_budget_bytes = -1;
  dense::AdamConfig adam;
};

/// Per-rank accumulated simulated kernel time, by category. The io fields
/// are *wall-clock* streaming accounting (exposed block-load wait and bytes
/// actually pulled from disk) — they are never charged onto the simulated
/// clock, so they do not contribute to total().
struct KernelTimers {
  double spmm = 0.0;
  double gemm = 0.0;
  double elementwise = 0.0;
  double io_exposed = 0.0;       ///< wall seconds a streamed SpMM waited on IO
  std::int64_t io_bytes = 0;     ///< bytes streamed from disk (cache misses)
  double total() const { return spmm + gemm + elementwise; }
};

class DistGcnLayer {
 public:
  /// `padded_nodes` is the dataset's padded node count (the only dataset
  /// fact a layer needs — rows shard as padded_nodes / extent).
  ///
  /// Pass either `adj` (resident shard: the classic path) or, for the
  /// out-of-core streaming epoch, adj == nullptr plus a ShardStream and the
  /// layer's LayerStreamPlan — then every aggregation block is loaded from
  /// disk through the stream's prefetch pipeline instead of read from the
  /// shard, with bitwise-identical results.
  DistGcnLayer(std::int64_t padded_nodes, const Grid3D& grid, int rank, int layer_index,
               int num_layers, std::int64_t in_dim_padded, std::int64_t out_dim_padded,
               std::int64_t in_dim_valid, std::int64_t out_dim_valid, const AdjacencyShard* adj,
               const PlexusOptions& opts, std::uint64_t seed, ShardStream* stream = nullptr,
               const LayerStreamPlan* stream_plan = nullptr);

  /// Forward: f_in is the (N/P x Din/Q) input block (layer 0's flat-sharded
  /// features must be gathered by the caller). Applies ReLU, in place, unless
  /// `last`. `epoch_seed` feeds the per-kernel variability model. Returns the
  /// layer's own Q buffer, valid until the next forward.
  const dense::Matrix& forward(sim::RankContext& ctx, const dense::Matrix& f_in, bool last,
                               std::uint64_t epoch_seed, KernelTimers& timers);

  /// Backward: df_out is the gradient w.r.t. this layer's output (same block
  /// layout as the forward output, replicated over Q); dQ is formed in place
  /// over it. The final R-group collective over the partial dF_in block is
  /// pipelined against the blocked dF = SpMM(A^T, dH) (the backward mirror of
  /// section 5.2):
  ///  * layers > 0 all-reduce each block and return the *reduced* dF_in;
  ///  * layer 0 (trainable input features, section 3.2) aligns its row
  ///    blocks to the R extent and reduce-scatters each block onto
  ///    `grad_slice`, the caller's row-major-resharded flat gradient slice;
  ///    the buffer it returns holds only this rank's unreduced partials.
  /// Returns the layer's own dF_in buffer, valid until the next backward.
  /// Stores dW internally; its reduce-scatter is posted asynchronously and
  /// retired in apply_grad().
  dense::Matrix& backward(sim::RankContext& ctx, dense::Matrix& df_out, bool last,
                          KernelTimers& timers, std::span<float> grad_slice = {});

  /// Adam step on the local weight slice using the gradient from backward().
  /// Waits for the asynchronous dW reduce-scatter posted there.
  void apply_grad(sim::RankContext& ctx, KernelTimers& timers);

  const LayerRoles& roles() const { return roles_; }
  bool streaming() const { return stream_ != nullptr; }
  comm::GroupId r_group() const { return r_group_; }

  /// Bytes of the workspace buffers this layer owns (zero before the first
  /// forward sizes them).
  std::int64_t workspace_bytes() const;

  /// This rank's flat weight slice and its optimizer state (checkpointing).
  std::span<const float> weight_slice() const { return w_slice_; }
  const dense::Adam& optimizer() const { return adam_; }

  /// Overwrite the weight slice + Adam state (checkpoint restore). Span
  /// sizes must match weight_slice().size().
  void restore_state(std::span<const float> w, std::span<const float> m,
                     std::span<const float> v, std::int64_t adam_t);

 private:
  /// Post the R-group all-gather assembling the (Din/Q x Dout/P) weight block
  /// into w_block_; the caller waits the handle before reading it.
  comm::CommHandle igather_weights(sim::RankContext& ctx);

  /// One direction of blocked aggregation (section 5.2): out = SpMM(adjacency,
  /// in) row block by row block, each block's collective in flight behind the
  /// next blocks' SpMMs.
  struct AggPass {
    /// Block source: the resident shard (A forward, A^T backward), read in
    /// place; null = windows loaded through the ShardStream prefetch pipeline.
    const sparse::Csr* a;
    /// Streamed source only: load rows of A^T (backward's column window of
    /// A, assembled transposed on the IO worker) instead of rows of A.
    bool transpose;
    const dense::Matrix& in;            ///< dense operand: F_in or dH
    dense::Matrix& out;                 ///< H or dF_in, written block by block
    std::vector<std::int64_t> bounds;   ///< row blocks of `out`
    comm::GroupId gid;                  ///< group of the per-block collective
    /// Empty: all-reduce each block of `out` in place. Otherwise each
    /// (R-aligned) block is reduce-scattered onto its sub-range of this slice.
    std::span<float> scatter;
    /// Forward's SpMM charge applies the per-kernel noise model keyed by
    /// (epoch seed, layer, rank, block); backward's is noise-free.
    std::optional<std::uint64_t> noise_seed;
    int* depth;     ///< cached adaptive pipeline depth (0 = not yet resolved)
    int* io_depth;  ///< cached adaptive prefetch depth (streamed source)
  };

  /// The one pipelined aggregation loop, for both directions and both block
  /// sources. The streamed source waits for block k's load, reposts the
  /// prefetch window, then runs the SpMM, so the IO worker never idles.
  void aggregate(sim::RankContext& ctx, const AggPass& pass, KernelTimers& timers);

  /// Pipeline depth of one aggregation pass: the fixed PlexusOptions value,
  /// or (pipeline_depth == 0) the perf-model choice from the per-block SpMM
  /// time against the largest block's ring time (all-reduce or
  /// reduce-scatter, per `pass.scatter`) on the pass's group. The
  /// resident source prices its fastest block's exact nnz; the streamed one
  /// the stream plan's uniform estimate. Computed once per direction and
  /// cached; purely a local scheduling decision — ranks need not agree on it.
  int resolve_depth(sim::RankContext& ctx, const AggPass& pass);

  /// In-flight block loads the streamed source keeps posted: the fixed
  /// PlexusOptions::prefetch_depth, or (0 = adaptive) the perf-model balance
  /// of per-block SpMM time against per-block disk time, clamped to the RSS
  /// budget. Cached per direction.
  int resolve_prefetch_depth(sim::RankContext& ctx, const AggPass& pass);

  const Grid3D* grid_;
  const AdjacencyShard* adj_;
  ShardStream* stream_ = nullptr;            ///< streaming mode: block loader
  const LayerStreamPlan* splan_ = nullptr;   ///< streaming mode: shard window
  PlexusOptions opts_;
  int layer_;
  LayerRoles roles_;

  // Axis extents and this rank's coordinates along the role axes.
  int ext_p_, ext_q_, ext_r_;
  int coord_p_, coord_q_, coord_r_;
  comm::GroupId p_group_, q_group_, r_group_;

  // Padded block dims.
  std::int64_t rows_r_;   ///< N'/R: output rows
  std::int64_t rows_p_;   ///< N'/P: input rows
  std::int64_t din_q_;    ///< Din'/Q
  std::int64_t dout_p_;   ///< Dout'/P

  // Weight slice (1/R of the (Din/Q x Dout/P) block, flattened) + Adam.
  std::vector<float> w_slice_;
  std::vector<float> dw_slice_;
  dense::Adam adam_;

  // Workspace, sized on first use. A handle that reads or writes one of
  // these buffers is retired before the buffer's next write.
  dense::Matrix h_;        ///< aggregated H (N'/R x Din'/Q); backward reuses it for dH
  dense::Matrix q_;        ///< combination output Q (N'/R x Dout'/P), ReLU'd in place
  dense::Matrix w_block_;  ///< R-gathered weight block (Din'/Q x Dout'/P)
  dense::Matrix w_t_;      ///< its transpose, the dH GEMM's B operand
  dense::Matrix dw_rev_;   ///< gemm_dw_tuning only: the reversed product dW^T
  dense::Matrix df_in_;    ///< dF_in (N'/P x Din'/Q)

  // In-flight backward state: the dW block stays untouched until its
  // reduce-scatter (posted in backward, hidden behind the remaining backward
  // compute) is retired in apply_grad.
  dense::Matrix dw_block_;
  comm::CommHandle dw_handle_;

  // Cached adaptive pipeline depths (0 = not yet computed); the machine,
  // shards and links are fixed for the layer's lifetime.
  int fwd_depth_ = 0;
  int bwd_depth_ = 0;

  // Cached adaptive prefetch depths of the streaming IO pipeline.
  int fwd_io_depth_ = 0;
  int bwd_io_depth_ = 0;
};

}  // namespace plexus::core
