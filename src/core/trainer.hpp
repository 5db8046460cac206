#pragma once
/// \file trainer.hpp
/// Top-level training API: give it a graph, a 3D grid shape and a machine
/// model; it preprocesses the dataset, spins up the simulated cluster, trains
/// for the requested epochs and returns losses plus per-epoch simulated
/// timing breakdowns (max over ranks — the straggler defines the epoch).
///
/// This is the public entry point the examples and benches use:
///
///   plexus::core::TrainOptions opt;
///   opt.grid = {2, 2, 2};
///   auto result = plexus::core::train_plexus(graph, opt);

#include <limits>
#include <optional>
#include <string>
#include <vector>

#include "comm/timeline.hpp"
#include "comm/transport.hpp"
#include "core/checkpoint.hpp"
#include "core/model.hpp"
#include "core/preprocess.hpp"
#include "graph/graph.hpp"
#include "sim/machine.hpp"
#include "sim/topology.hpp"

namespace plexus::core {

/// The aggregation strategy, kept only because the perfbench harness names
/// it (it sets TrainOptions::aggregation and logs aggregation_name()). Dense
/// ring collectives are the one strategy; nothing in the library reads the
/// field. Delete all three items once the benchmark stops naming them.
enum class Aggregation { Dense };

inline const char* aggregation_name(Aggregation) { return "dense"; }

struct TrainOptions {
  sim::GridShape grid{1, 1, 1};
  const sim::Machine* machine = &sim::Machine::perlmutter_a100();
  PermutationScheme scheme = PermutationScheme::Double;
  GcnSpec model;
  int epochs = 10;
  std::uint64_t preprocess_seed = 7;
  bool evaluate_validation = false;  ///< adds a val-accuracy pass after training
  /// Host compute threads per simulated rank for the SpMM/GEMM/elementwise
  /// kernels. 0 = auto: PLEXUS_THREADS (or the hardware concurrency) divided
  /// by the number of ranks. Losses are bitwise-identical for any value.
  int intra_rank_threads = 0;
  /// Software-pipeline depth of blocked aggregation (see
  /// PlexusOptions::pipeline_depth). < 0 = keep model.options.pipeline_depth
  /// (whose default, 0, is adaptive per-layer depth from the perf model);
  /// > 0 overrides with a fixed depth (1 is fully blocking). Losses are
  /// bitwise-identical for any depth; only the exposed communication time
  /// changes, and the adaptive choice exposes no more than any fixed depth.
  int pipeline_depth = -1;
  /// Prefetch depth of the streaming-epoch IO pipeline (see
  /// PlexusOptions::prefetch_depth): how many adjacency block loads the layer
  /// keeps posted to the ShardStream ahead of compute. Same contract as
  /// pipeline_depth: < 0 (default) inherits model.options.prefetch_depth
  /// (whose default, 0, is adaptive from the perf model's disk bandwidth);
  /// > 0 overrides with a fixed depth. Pure scheduling knob — losses are
  /// bitwise-identical for any depth; only exposed IO time and peak cache
  /// residency change. Ignored by resident (non-streaming) runs.
  int prefetch_depth = -1;
  /// RSS budget in bytes for the streaming block cache (see
  /// PlexusOptions::rss_budget_bytes and loader::BlockCache). < 0 (default)
  /// = unbounded cache; >= 0 bounds it. Only consulted by
  /// train_plexus_streaming (it sizes the budgeted ShardedDatasetView) and by
  /// the layers' adaptive prefetch-depth clamp. Pure memory knob: losses are
  /// bitwise-identical for any budget.
  std::int64_t rss_budget_bytes = -1;
  /// Ignored; see core::Aggregation.
  std::optional<Aggregation> aggregation;
  /// Record rank 0's simulated timeline (compute / in-flight / exposed comm
  /// spans) into TrainResult::rank0_timeline. Off by default (unbounded span
  /// storage); breakdown harnesses (fig9) turn it on.
  bool trace_timeline = false;
  /// Byte-transport backend for the collectives (comm/transport.hpp).
  /// Backend::Sim, the default, moves bytes between the threaded cluster's
  /// rank threads. Backend::Mpi is a one-process-per-rank backend and cannot
  /// run under the threaded cluster — it is driven through train_plexus_rank
  /// instead.
  comm::Backend backend = comm::Backend::Sim;
  /// Wire format for fp32 collective payloads (comm/transport.hpp):
  /// WirePrecision::Fp32 ships the buffers verbatim — the bitwise-
  /// deterministic default — while WirePrecision::Bf16 packs fp32 → bf16 at
  /// the transport boundary, halving the float wire volume (and the modelled
  /// comm time, which the adaptive pipeline-depth planning re-prices
  /// accordingly) at the cost of one bf16 rounding per sent value;
  /// accumulation stays in fp32 (docs/COMM.md). Unlike every knob above,
  /// bf16 is an explicit numeric change: losses are close to, but not
  /// bitwise-identical with, fp32 runs.
  comm::WirePrecision wire = comm::WirePrecision::Fp32;
  /// Checkpoint directory (core/checkpoint.hpp). Empty = no checkpointing.
  /// When set, a checkpoint is always written after the final epoch; set
  /// checkpoint_every > 0 to also write one every k-th epoch (absolute epoch
  /// numbering). Rank 0 writes; the gather collectives run on every rank and
  /// do not perturb training state or the recorded epoch stats.
  std::string checkpoint_dir;
  int checkpoint_every = 0;
};

/// Resolve the effective per-layer options from TrainOptions — THE one place
/// trainer-level overrides meet GcnSpec, shared by every driver (threaded,
/// one-process-per-rank, resume) and by serve/, so all of them configure the
/// model identically. Contract, uniform across knobs: opt.pipeline_depth,
/// opt.prefetch_depth and opt.rss_budget_bytes override the model option of
/// the same name when >= 0; < 0 (default) inherits model.options. Everything
/// else passes through opt.model untouched.
GcnSpec resolve_options(const TrainOptions& opt);

/// Largest RSS budget in megabytes whose byte count (`mb << 20`) fits in
/// int64.
inline constexpr std::int64_t kMaxRssBudgetMb = std::numeric_limits<std::int64_t>::max() >> 20;

/// Rebuild the GcnSpec a checkpoint was trained with (exactly what
/// gather_state flattened into the ModelState spec fields). Rejects a
/// checkpoint whose input features were frozen (train_input_features == 0):
/// features are always trained.
GcnSpec spec_from_model_state(const io::ModelState& s);

struct TrainResult {
  std::vector<EpochStats> epochs;  ///< max-over-ranks timings, rank-0 loss
  double val_accuracy = 0.0;
  comm::Timeline rank0_timeline;   ///< populated when TrainOptions::trace_timeline
  /// Absolute index of epochs[0] (non-zero for resumed runs: a resume that
  /// continues at epoch k records epochs [k, opt.epochs) only).
  int first_epoch = 0;
  /// One rank's DistGcn::workspace_bytes() after the run's first epoch. Every
  /// rank's blocks have the same shape, so the ranks together hold
  /// grid volume x this.
  std::int64_t workspace_bytes = 0;

  /// Mean epoch time skipping the first `skip` epochs ("average performance of
  /// the last eight epochs to account for initial fluctuations", section 6.2).
  double avg_epoch_seconds(int skip = 2) const;
  /// Mean EpochStats::wait_seconds(): exposed collectives + load-imbalance
  /// stall (the paper's fig. 9 "comm" bars fold both in too).
  double avg_comm_seconds(int skip = 2) const;
  double avg_compute_seconds(int skip = 2) const;
  std::vector<double> losses() const;
};

/// Fold one rank's EpochStats into the cluster-wide epoch line: every field
/// is max-reduced over `wg` in deterministic canonical member order, so all
/// ranks return identical values. Loss and accuracy are already identical on
/// every rank by construction (distributed_softmax_ce reduces them); the
/// timing fields are genuinely rank-local maxima — the straggler defines the
/// epoch. Used by the threaded cluster and the one-process-per-rank MPI
/// driver alike, which is what makes their epoch lines comparable.
EpochStats reduce_epoch_stats(comm::Communicator& comm, comm::GroupId wg, EpochStats s);

/// Train against any DatasetView on the threaded in-process cluster. The one
/// view is shared by every rank thread, so it must be thread-safe for reads
/// (InMemoryDatasetView and ShardedDatasetView both are).
TrainResult train_plexus(const DatasetView& view, const TrainOptions& opt);

/// Convenience: preprocess `g` (padding to the grid volume) and train.
TrainResult train_plexus(const graph::Graph& g, const TrainOptions& opt);

/// Out-of-core streaming epochs on the threaded in-process cluster: opens
/// `shard_dir` (a graph::rmat_to_shards / save_checkpoint-layout directory)
/// through ONE budgeted ShardedDatasetView shared by every rank thread, so
/// adjacency blocks are memory-mapped/read on demand through an LRU
/// BlockCache whose resident bytes never exceed opt.rss_budget_bytes
/// (unbounded when negative). Losses and
/// simulated clocks are bitwise-identical to an in-memory train_plexus run
/// over the same directory — streaming is a pure memory/scheduling knob.
TrainResult train_plexus_streaming(const std::string& shard_dir, const TrainOptions& opt);

/// One-process-per-rank driver: runs rank `my_rank`'s share of the training
/// over the distributed transport selected by opt.backend (Backend::Mpi —
/// the in-process Sim backend belongs in train_plexus). The caller launches
/// one process per rank (mpirun), initialises the runtime
/// (comm::mpi_runtime_init), and passes each process its own view — typically
/// a ShardedDatasetView so no process touches block files outside its shard.
/// Every process returns the same reduced TrainResult (epoch stats are
/// reduced across ranks exactly as in train_plexus), so rank 0 can print the
/// same epoch lines the threaded cluster would.
TrainResult train_plexus_rank(const DatasetView& view, const TrainOptions& opt, int my_rank);

/// Resume training from a checkpoint directory on the threaded in-process
/// cluster: reads the directory in place through one ShardedDatasetView that
/// every rank thread shares (its feature blocks are the trained features),
/// restores weights/optimizer moments from its model state, and trains epochs
/// [epochs_completed, opt.epochs). Epoch seeds key on the absolute epoch
/// index, so the resumed losses are bitwise-identical to an uninterrupted
/// run's (tests/test_checkpoint.cpp). The checkpoint is authoritative for
/// the model spec, permutation scheme and preprocess seed — those TrainOptions
/// fields are ignored; grid/epochs/backend/override knobs still apply, and
/// opt.grid's volume must equal the checkpoint's pad_multiple.
TrainResult resume_plexus(const std::string& checkpoint_dir, const TrainOptions& opt);

/// One-process-per-rank resume (see train_plexus_rank): each process streams
/// its own shard of the checkpoint directory through a private
/// ShardedDatasetView and restores its local state slices.
TrainResult resume_plexus_rank(const std::string& checkpoint_dir, const TrainOptions& opt,
                               int my_rank);

}  // namespace plexus::core
