#pragma once
/// \file model.hpp
/// The per-rank distributed GCN: a stack of DistGcnLayers plus the trainable
/// input features (Plexus learns node embeddings, so layer 0's inputs carry
/// gradients and optimizer state and are flat-sharded across the R-group —
/// section 3.1). One train_epoch = forward, masked loss, backward, Adam.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/adjacency_store.hpp"
#include "core/checkpoint.hpp"
#include "core/grid.hpp"
#include "core/layer.hpp"
#include "core/loss.hpp"
#include "core/preprocess.hpp"
#include "core/shard_stream.hpp"
#include "dense/optim.hpp"
#include "sim/cluster.hpp"

namespace plexus::core {

/// Model hyper-parameters. `hidden_dims` are the widths between the input
/// features and the classes; 3 GCN layers with hidden 128 is the paper's
/// evaluation model (section 6.2).
struct GcnSpec {
  std::vector<std::int64_t> hidden_dims = {128, 128};
  PlexusOptions options;
  std::uint64_t seed = 42;

  int num_layers() const { return static_cast<int>(hidden_dims.size()) + 1; }
};

/// What one epoch reports (simulated times in seconds; maxima across ranks are
/// taken by the trainer).
struct EpochStats {
  double loss = 0.0;
  double train_accuracy = 0.0;
  double epoch_seconds = 0.0;  ///< simulated clock delta
  double spmm_seconds = 0.0;
  double gemm_seconds = 0.0;
  double elementwise_seconds = 0.0;
  /// Time this rank stalled at collective wait()s: ring transfer tails plus
  /// any straggler wait surfacing there (the standard "exposed communication"
  /// of a comm/comp breakdown; see comm/communicator.hpp).
  double comm_seconds = 0.0;
  /// Transfer time hidden behind compute by the pipelined aggregation /
  /// asynchronous gathers (see comm/communicator.hpp).
  double hidden_comm_seconds = 0.0;
  /// Bytes the simulated links actually carried for this rank's collectives
  /// (comm::wire_bytes per op, summed at the active wire format's element
  /// size). The trainer max-reduces it like the timings.
  double comm_wire_bytes = 0.0;
  /// Streaming epochs only: *wall-clock* seconds this rank stalled waiting on
  /// block-load futures (exposed IO — everything the prefetch thread hid is
  /// excluded). Zero in resident mode. Max-reduced like the timings.
  double io_exposed_seconds = 0.0;
  /// Streaming epochs only: bytes of shard block files read from disk by this
  /// rank's prefetch thread this epoch. Zero in resident mode.
  double io_bytes_streamed = 0.0;
  double compute_seconds() const { return spmm_seconds + gemm_seconds + elementwise_seconds; }
  /// Everything the rank spent not computing (= epoch - local compute). The
  /// clock only advances through compute charges and exposed collective
  /// waits, so per epoch this equals comm_seconds up to collectives retired
  /// across the epoch boundary.
  double wait_seconds() const { return epoch_seconds - compute_seconds(); }
};

class DistGcn {
 public:
  /// Build the per-rank model from any DatasetView — an in-memory dataset or
  /// a ShardedDatasetView, shared by the rank threads of a threaded cluster
  /// or private to one process per rank (either way this rank reads only its
  /// own shard's block files). The view must outlive the model.
  DistGcn(sim::RankContext& ctx, const DatasetView& view, const Grid3D& grid, GcnSpec spec);

  EpochStats train_epoch(sim::RankContext& ctx, int epoch);

  /// Forward-only accuracy on a mask (e.g. validation/test split).
  double evaluate(sim::RankContext& ctx, const std::vector<std::uint8_t>& mask);

  /// Forward pass returning this rank's logits block (tests / inference).
  dense::Matrix forward_logits(sim::RankContext& ctx);

  int num_layers() const { return spec_.num_layers(); }
  const std::vector<std::int64_t>& padded_dims() const { return padded_dims_; }

  /// Bytes of the epoch workspace this rank's model owns: every layer's
  /// buffers plus the gathered input block and, when the last layer's P > 1,
  /// the P-gathered logits. There
  /// is no gradient buffer: the loss gradient overwrites the last layer's Q
  /// (the logits), and each layer's dF_in overwrites the input its forward
  /// read (layer 0: the gathered input block; layer l > 0: layer l-1's Q).
  /// Buffers are sized on first use, so this is the steady figure once one
  /// epoch has run (zero before). Weight and feature slices and their Adam
  /// moments are not workspace.
  std::int64_t workspace_bytes() const;

  /// Assemble the global model state for checkpointing: one world-group
  /// all-gather per sharded buffer (weights, Adam moments, features), one
  /// buffer at a time into one reused receive buffer, then on rank 0 a
  /// deterministic local re-scatter of every rank's slice into the global
  /// matrices. SPMD — every rank must call it (the gathers are collectives),
  /// but only rank 0 gets the global layers, features and moments, and so
  /// only rank 0 can write; the other ranks get the spec fields alone. The
  /// trainer-owned ModelState fields (scheme, preprocess_seed, pad_multiple,
  /// epochs_completed) are left at their defaults for the caller to fill.
  CheckpointData gather_state(sim::RankContext& ctx);

  /// Inverse of gather_state, purely local: re-extract this rank's weight and
  /// optimizer slices from the global state. The trained features themselves
  /// are NOT restored here — they arrive through the DatasetView the model was
  /// constructed over (a checkpoint directory's feature blocks); only their
  /// Adam moments ride in `s`.
  void restore_state(const io::ModelState& s);

 private:
  /// All-gather the layer-0 input block into f_in_.
  void gather_input_features(sim::RankContext& ctx);
  /// Forward through every layer, recording each layer's input in
  /// layer_in_; returns the last layer's Q (the logits), which the loss
  /// may overwrite with its gradient.
  dense::Matrix& forward_all(sim::RankContext& ctx, std::uint64_t epoch_seed,
                             KernelTimers& timers);

  const DatasetView* view_;
  const Grid3D* grid_;
  int rank_ = 0;
  GcnSpec spec_;
  std::vector<std::int64_t> padded_dims_;  ///< per-layer in/out dims, size L+1
  std::unique_ptr<AdjacencyStore> adj_store_;
  /// Streaming views only: the per-rank IO worker that loads adjacency block
  /// windows for the layers' software pipelines. Null in resident mode.
  std::unique_ptr<ShardStream> stream_;
  std::vector<std::unique_ptr<DistGcnLayer>> layers_;

  // Trainable input features: a 1/R0 slice of the (N/P0 x D0/Q0) block,
  // resharded row-major against the blocked-aggregation row blocks: for each
  // aggregation block this rank owns the coord_r0-th sub-range of its rows.
  // This alignment lets the layer-0 feature-gradient reduce-scatter run
  // per block inside the backward software pipeline, and the input gather run
  // per block, instead of as one unblocked collective (with agg_row_blocks ==
  // 1 the layout degenerates to the old contiguous flat slice).
  std::vector<float> f_slice_;
  std::vector<float> df_slice_;
  dense::Adam f_adam_;
  std::int64_t f_block_rows_ = 0;
  std::int64_t f_block_cols_ = 0;
  std::vector<std::int64_t> f_bounds_;  ///< R0-aligned aggregation row blocks
  int f_r_ext_ = 1;                     ///< R0 extent (reshard parts)

  // Workspace outside the layers, sized on first use.
  /// Gathered layer-0 input block (N'/P0 x D0'/Q0); layer 0's backward
  /// writes its dF_in partials over it.
  dense::Matrix f_in_;
  /// P-gathered logits, P column blocks. Stays empty when the last layer's
  /// P-group has one member: the loss then reads the logits (the last
  /// layer's Q) in place and writes its gradient over them row by row.
  std::vector<float> logits_gathered_;
  /// The buffer each layer's forward read (f_in_, then each layer's Q): its
  /// backward writes dF_in there.
  std::vector<dense::Matrix*> layer_in_;
};

}  // namespace plexus::core
