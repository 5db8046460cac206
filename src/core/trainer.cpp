#include "core/trainer.hpp"

#include <algorithm>

#include "comm/world.hpp"
#include "sim/cluster.hpp"
#include "util/error.hpp"

namespace plexus::core {

double TrainResult::avg_epoch_seconds(int skip) const {
  if (epochs.empty()) return 0.0;
  const auto start = std::min<std::size_t>(static_cast<std::size_t>(skip), epochs.size() - 1);
  double sum = 0.0;
  for (std::size_t i = start; i < epochs.size(); ++i) sum += epochs[i].epoch_seconds;
  return sum / static_cast<double>(epochs.size() - start);
}

double TrainResult::avg_comm_seconds(int skip) const {
  if (epochs.empty()) return 0.0;
  const auto start = std::min<std::size_t>(static_cast<std::size_t>(skip), epochs.size() - 1);
  double sum = 0.0;
  for (std::size_t i = start; i < epochs.size(); ++i) sum += epochs[i].wait_seconds();
  return sum / static_cast<double>(epochs.size() - start);
}

double TrainResult::avg_compute_seconds(int skip) const {
  if (epochs.empty()) return 0.0;
  const auto start = std::min<std::size_t>(static_cast<std::size_t>(skip), epochs.size() - 1);
  double sum = 0.0;
  for (std::size_t i = start; i < epochs.size(); ++i) sum += epochs[i].compute_seconds();
  return sum / static_cast<double>(epochs.size() - start);
}

std::vector<double> TrainResult::losses() const {
  std::vector<double> out;
  out.reserve(epochs.size());
  for (const auto& e : epochs) out.push_back(e.loss);
  return out;
}

GcnSpec resolve_options(const TrainOptions& opt) {
  GcnSpec spec = opt.model;
  if (opt.pipeline_depth >= 0) spec.options.pipeline_depth = opt.pipeline_depth;
  if (opt.prefetch_depth >= 0) spec.options.prefetch_depth = opt.prefetch_depth;
  if (opt.rss_budget_bytes >= 0) spec.options.rss_budget_bytes = opt.rss_budget_bytes;
  return spec;
}

GcnSpec spec_from_model_state(const io::ModelState& s) {
  GcnSpec spec;
  spec.hidden_dims = s.hidden_dims;
  spec.seed = s.model_seed;
  PLEXUS_CHECK(s.train_input_features != 0,
               "checkpoint was trained with frozen input features; input features are "
               "always trained");
  spec.options.agg_row_blocks = s.agg_row_blocks;
  spec.options.gemm_dw_tuning = s.gemm_dw_tuning != 0;
  spec.options.pipeline_depth = s.pipeline_depth;
  spec.options.adam = s.adam;
  return spec;
}

namespace {

/// Where a run starts: epoch 0 fresh, or a restored checkpoint's epoch
/// counter (the state pointer must outlive the run).
struct ResumePlan {
  const io::ModelState* state = nullptr;
  int start_epoch = 0;
};

/// The per-rank training body shared by train_plexus (threaded cluster;
/// `result` non-null on rank 0 only) and train_plexus_rank (one process per
/// rank; `result` non-null everywhere — the reduced stats agree on all
/// ranks, so every process records identical epoch lines).
void train_rank_body(sim::RankContext& ctx, const DatasetView& view, const Grid3D& grid,
                     const GcnSpec& spec, const TrainOptions& opt, const ResumePlan& plan,
                     TrainResult* result) {
  const bool trace = opt.trace_timeline && result != nullptr && ctx.rank() == 0;
  if (trace) ctx.comm.timeline().set_enabled(true);
  ctx.comm.set_wire_precision(opt.wire);  // before the first collective
  DistGcn model(ctx, view, grid, spec);
  if (plan.state != nullptr) model.restore_state(*plan.state);
  const auto wg = grid.world_group();
  const bool checkpointing = !opt.checkpoint_dir.empty();
  for (int e = plan.start_epoch; e < opt.epochs; ++e) {
    const EpochStats s = reduce_epoch_stats(ctx.comm, wg, model.train_epoch(ctx, e));
    if (result != nullptr) {
      result->epochs[static_cast<std::size_t>(e - plan.start_epoch)] = s;
      if (e == plan.start_epoch) {
        result->workspace_bytes = model.workspace_bytes();
        result->padded_nodes = view.padded_nodes();
        result->padded_dims = model.padded_dims();
      }
    }
    if (checkpointing &&
        (e + 1 == opt.epochs || (opt.checkpoint_every > 0 && (e + 1) % opt.checkpoint_every == 0))) {
      // The gathers run on every rank (collectives); only rank 0 assembles
      // the global state and writes it. A trailing barrier keeps the
      // directory complete before any rank races into the next epoch or
      // process exit. State-neutral: nothing training reads is touched, so
      // checkpointed and plain runs stay bitwise equal.
      CheckpointData data = model.gather_state(ctx);
      data.model.scheme = static_cast<std::int32_t>(view.scheme());
      data.model.preprocess_seed = opt.preprocess_seed;
      data.model.pad_multiple = grid.size();
      data.model.epochs_completed = e + 1;
      if (ctx.rank() == 0) save_checkpoint(opt.checkpoint_dir, view, data);
      ctx.comm.barrier(wg);
    }
  }
  if (opt.evaluate_validation) {
    const double acc = model.evaluate(ctx, view.mask(Split::Val));
    if (result != nullptr) result->val_accuracy = acc;
  }
  if (trace) {
    result->rank0_timeline = std::move(ctx.comm.timeline());  // comm is end-of-life here
  }
}

/// Shared threaded-cluster driver behind train_plexus and resume_plexus.
TrainResult run_threaded(const DatasetView& view, const TrainOptions& opt,
                         const ResumePlan& plan) {
  PLEXUS_CHECK(view.padded_nodes() % opt.grid.size() == 0,
               "dataset not padded for this grid volume");
  PLEXUS_CHECK(opt.epochs >= plan.start_epoch,
               "opt.epochs is the total epoch count and the checkpoint is already past it");
  comm::World world(opt.grid.size());
  Grid3D grid(world, opt.grid, *opt.machine);

  TrainResult result;
  result.first_epoch = plan.start_epoch;
  result.epochs.resize(static_cast<std::size_t>(opt.epochs - plan.start_epoch));
  const GcnSpec spec = resolve_options(opt);

  const auto rank_fn = [&](sim::RankContext& ctx) {
    train_rank_body(ctx, view, grid, spec, opt, plan, ctx.rank() == 0 ? &result : nullptr);
  };
  sim::run_cluster(world, *opt.machine, rank_fn, /*enable_clock=*/true, opt.intra_rank_threads,
                   &comm::transport_for(opt.backend));
  return result;
}

/// Shared one-process-per-rank driver behind train_plexus_rank and
/// resume_plexus_rank.
TrainResult run_rank(const DatasetView& view, const TrainOptions& opt, const ResumePlan& plan,
                     int my_rank) {
  PLEXUS_CHECK(view.padded_nodes() % opt.grid.size() == 0,
               "dataset not padded for this grid volume");
  PLEXUS_CHECK(opt.epochs >= plan.start_epoch,
               "opt.epochs is the total epoch count and the checkpoint is already past it");
  comm::Transport& transport = comm::transport_for(opt.backend);
  comm::World world(opt.grid.size());
  Grid3D grid(world, opt.grid, *opt.machine);

  TrainResult result;
  result.first_epoch = plan.start_epoch;
  result.epochs.resize(static_cast<std::size_t>(opt.epochs - plan.start_epoch));
  const GcnSpec spec = resolve_options(opt);

  sim::run_distributed_rank(
      world, *opt.machine, my_rank,
      [&](sim::RankContext& ctx) { train_rank_body(ctx, view, grid, spec, opt, plan, &result); },
      transport, /*enable_clock=*/true, opt.intra_rank_threads);
  return result;
}

/// Fold a checkpoint's authoritative fields into a TrainOptions copy: the
/// model spec, permutation scheme and preprocess seed come from the
/// checkpoint, everything else (grid, epochs, backend, override knobs) from
/// the caller.
TrainOptions options_for_resume(const TrainOptions& opt, const io::ModelState& state) {
  PLEXUS_CHECK(state.pad_multiple == opt.grid.size(),
               "resume requires the grid volume the checkpoint was written for");
  TrainOptions ropt = opt;
  ropt.model = spec_from_model_state(state);
  ropt.scheme = static_cast<PermutationScheme>(state.scheme);
  ropt.preprocess_seed = state.preprocess_seed;
  return ropt;
}

}  // namespace

EpochStats reduce_epoch_stats(comm::Communicator& comm, comm::GroupId wg, EpochStats s) {
  // Straggler-defining maxima. Loss/accuracy are identical on every rank
  // already (max of equals is the identity) — reducing them anyway makes the
  // agreement explicit and gives the distributed driver one code path.
  s.loss = comm.all_reduce_max_scalar(wg, s.loss);
  s.train_accuracy = comm.all_reduce_max_scalar(wg, s.train_accuracy);
  s.epoch_seconds = comm.all_reduce_max_scalar(wg, s.epoch_seconds);
  s.spmm_seconds = comm.all_reduce_max_scalar(wg, s.spmm_seconds);
  s.gemm_seconds = comm.all_reduce_max_scalar(wg, s.gemm_seconds);
  s.elementwise_seconds = comm.all_reduce_max_scalar(wg, s.elementwise_seconds);
  s.comm_seconds = comm.all_reduce_max_scalar(wg, s.comm_seconds);
  s.hidden_comm_seconds = comm.all_reduce_max_scalar(wg, s.hidden_comm_seconds);
  s.comm_wire_bytes = comm.all_reduce_max_scalar(wg, s.comm_wire_bytes);
  s.io_exposed_seconds = comm.all_reduce_max_scalar(wg, s.io_exposed_seconds);
  s.io_bytes_streamed = comm.all_reduce_max_scalar(wg, s.io_bytes_streamed);
  return s;
}

TrainResult train_plexus(const DatasetView& view, const TrainOptions& opt) {
  return run_threaded(view, opt, ResumePlan{});
}

TrainResult train_plexus_rank(const DatasetView& view, const TrainOptions& opt, int my_rank) {
  return run_rank(view, opt, ResumePlan{}, my_rank);
}

TrainResult resume_plexus(const std::string& checkpoint_dir, const TrainOptions& opt) {
  const io::ModelState state = load_model_state(checkpoint_dir);
  const TrainOptions ropt = options_for_resume(opt, state);
  // One view over the checkpoint directory, shared by every rank thread:
  // each rank reads only its own shard's blocks, through the view's cache.
  const ShardedDatasetView view(checkpoint_dir);
  return run_threaded(view, ropt,
                      ResumePlan{&state, static_cast<int>(state.epochs_completed)});
}

TrainResult resume_plexus_rank(const std::string& checkpoint_dir, const TrainOptions& opt,
                               int my_rank) {
  const io::ModelState state = load_model_state(checkpoint_dir);
  const TrainOptions ropt = options_for_resume(opt, state);
  const ShardedDatasetView view(checkpoint_dir);
  return run_rank(view, ropt, ResumePlan{&state, static_cast<int>(state.epochs_completed)},
                  my_rank);
}

TrainResult train_plexus_streaming(const std::string& shard_dir, const TrainOptions& opt) {
  // One budgeted view shared by every rank thread: the shared BlockCache is
  // what makes the budget a bound on the whole process, not per rank. Block
  // loads go through each rank's ShardStream worker; BlockCache::get is
  // thread-safe and reads, parses and transposes blocks outside its lock.
  const ShardedDatasetView view(shard_dir, opt.rss_budget_bytes);
  return run_threaded(view, opt, ResumePlan{});
}

TrainResult train_plexus(const graph::Graph& g, const TrainOptions& opt) {
  const PlexusDataset ds = preprocess_graph(g, opt.scheme, opt.model.num_layers(),
                                            /*pad_multiple=*/opt.grid.size(),
                                            opt.preprocess_seed);
  return train_plexus(InMemoryDatasetView(ds), opt);
}

}  // namespace plexus::core
