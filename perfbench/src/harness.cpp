#include "harness.hpp"

#include <algorithm>
#include <memory>

#include "comm/world.hpp"
#include "core/checkpoint.hpp"
#include "core/grid.hpp"
#include "sim/cluster.hpp"
#include "trace.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace perfbench {

namespace pcore = plexus::core;

plexus::core::TrainOptions workload_train_options(int epochs) {
  pcore::TrainOptions opt;
  opt.grid = {2, 1, 2};
  opt.model.hidden_dims = {128, 128};
  opt.model.options.agg_row_blocks = 8;
  opt.epochs = epochs;
  opt.aggregation = pcore::Aggregation::Dense;
  opt.backend = plexus::comm::Backend::Sim;
  opt.wire = plexus::comm::WirePrecision::Fp32;
  return opt;
}

TrialResult run_trial(const pcore::DatasetView& view, const TrialOptions& t) {
  const pcore::TrainOptions& opt = t.train;
  PLEXUS_CHECK(view.padded_nodes() % opt.grid.size() == 0,
               "dataset not padded for this grid volume");
  Tracer::Scope trial_span(t.tracer, "trial");
  if (t.tracer != nullptr) t.tracer->set_root(trial_span.id());
  if (t.timed_view != nullptr) t.timed_view->set_logging(true);

  plexus::comm::World world(opt.grid.size());
  pcore::Grid3D grid(world, opt.grid, *opt.machine);
  const pcore::GcnSpec spec = pcore::resolve_options(opt);
  const auto ranks = static_cast<std::size_t>(opt.grid.size());
  const auto epochs = static_cast<std::size_t>(opt.epochs);

  TrialResult r;
  r.epochs.resize(epochs);
  r.intra_rank_threads =
      plexus::sim::resolve_intra_rank_threads(opt.intra_rank_threads, opt.grid.size());
  std::vector<std::vector<double>> wall(ranks, std::vector<double>(epochs, 0.0));
  std::vector<double> init(ranks, 0.0);

  TimedTransport::Totals comm_begin;
  const auto rank_fn = [&](plexus::sim::RankContext& ctx) {
    const auto rank = static_cast<std::size_t>(ctx.rank());
    if (t.tracer != nullptr) mark_rank_thread();
    ctx.comm.set_wire_precision(opt.wire);  // before the first collective
    plexus::util::WallTimer timer;
    std::unique_ptr<pcore::DistGcn> model;
    {
      Tracer::Scope span(t.tracer, "core.model_init");
      model = std::make_unique<pcore::DistGcn>(ctx, view, grid, spec);
    }
    init[rank] = timer.seconds();
    if (rank == 0 && t.timed_transport != nullptr) comm_begin = t.timed_transport->totals();
    const auto wg = grid.world_group();
    for (int e = 0; e < opt.epochs; ++e) {
      Tracer::Scope span(t.tracer, "core.epoch");
      timer.reset();
      const pcore::EpochStats s =
          pcore::reduce_epoch_stats(ctx.comm, wg, model->train_epoch(ctx, e));
      wall[rank][static_cast<std::size_t>(e)] = timer.seconds();
      if (rank == 0) r.epochs[static_cast<std::size_t>(e)] = s;
    }
    if (rank == 0) {
      r.padded_dims = model->padded_dims();
      if (t.timed_transport != nullptr) {
        r.comm = t.timed_transport->totals();
        for (std::size_t k = 0; k < TimedTransport::kKinds; ++k) {
          r.comm.calls[k] -= comm_begin.calls[k];
          r.comm.ns[k] -= comm_begin.ns[k];
        }
      }
    }
    if (t.checkpoint_dir.empty()) return;
    // The trainer's checkpoint step: the gathers run on every rank, rank 0
    // writes, a barrier keeps the directory complete before anyone moves on.
    if (rank == 0 && t.timed_view != nullptr) t.timed_view->set_logging(false);
    Tracer::Scope span(t.tracer, "core.checkpoint");
    timer.reset();
    pcore::CheckpointData data = model->gather_state(ctx);
    data.model.scheme = static_cast<std::int32_t>(view.scheme());
    data.model.preprocess_seed = opt.preprocess_seed;
    data.model.pad_multiple = grid.size();
    data.model.epochs_completed = opt.epochs;
    if (rank == 0) pcore::save_checkpoint(t.checkpoint_dir, view, data);
    ctx.comm.barrier(wg);
    if (rank == 0) r.ckpt_save_s = timer.seconds();
  };
  plexus::sim::run_cluster(world, *opt.machine, rank_fn, /*enable_clock=*/true,
                           opt.intra_rank_threads,
                           t.timed_transport != nullptr
                               ? static_cast<plexus::comm::Transport*>(t.timed_transport)
                               : &plexus::comm::transport_for(opt.backend));
  if (t.timed_view != nullptr) t.timed_view->set_logging(false);

  r.model_init_s = *std::max_element(init.begin(), init.end());
  r.epoch_wall_s.assign(epochs, 0.0);
  for (std::size_t e = 0; e < epochs; ++e) {
    for (std::size_t k = 0; k < ranks; ++k) {
      r.epoch_wall_s[e] = std::max(r.epoch_wall_s[e], wall[k][e]);
    }
  }
  return r;
}

}  // namespace perfbench
