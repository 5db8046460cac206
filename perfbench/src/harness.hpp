#pragma once
/// \file harness.hpp
/// One training trial through the program's public entry points, exactly as
/// core::train_plexus runs it: sim::run_cluster over the grid, per rank a
/// fresh core::DistGcn on the shared view, then core::train_epoch folded by
/// core::reduce_epoch_stats for every epoch, and (optionally) the trainer's
/// checkpoint step, DistGcn::gather_state + core::save_checkpoint. The
/// harness adds only wall-clock timers around those calls; the self-test
/// proves the losses and simulated stats stay bitwise equal to
/// core::train_plexus and core::train_plexus_streaming.

#include <string>
#include <vector>

#include "comm/transport.hpp"
#include "core/dataset_view.hpp"
#include "core/model.hpp"
#include "core/trainer.hpp"
#include "trace.hpp"

namespace perfbench {

struct TrialOptions {
  plexus::core::TrainOptions train;
  /// Non-empty: write a checkpoint here after the last epoch.
  std::string checkpoint_dir;
  /// Traced runs: spans go here (null = untraced).
  Tracer* tracer = nullptr;
  /// Traced runs: the view decorator, whose window log is closed before the
  /// checkpoint reads the whole matrix.
  TimedView* timed_view = nullptr;
  /// Traced runs: the transport decorator handed to run_cluster (else
  /// transport_for(train.backend)).
  TimedTransport* timed_transport = nullptr;
};

struct TrialResult {
  std::vector<plexus::core::EpochStats> epochs;  ///< reduced, as TrainResult::epochs
  std::vector<double> epoch_wall_s;  ///< per epoch: the slowest rank's wall time
  double model_init_s = 0.0;         ///< slowest rank's DistGcn construction
  double ckpt_save_s = 0.0;          ///< gather_state + save_checkpoint + barrier
  std::vector<std::int64_t> padded_dims;
  int intra_rank_threads = 0;        ///< resolved kernel threads per rank
  /// Traced runs: transport totals between rank 0's first epoch start and
  /// its last epoch end (all ranks' calls).
  TimedTransport::Totals comm;
};

TrialResult run_trial(const plexus::core::DatasetView& view, const TrialOptions& opt);

/// The training options every workload shares: the grid, plexus_train's
/// model (hidden {128, 128}, 8 aggregation row blocks), dense aggregation
/// and the fp32 wire on the sim transport.
plexus::core::TrainOptions workload_train_options(int epochs);

}  // namespace perfbench
