#pragma once
/// \file load.hpp
/// Open-loop request load against serve::InferenceServer::submit.
///
/// One generator thread submits request i at its due time t0 + i / rate,
/// whether or not earlier requests have finished (independent users), and
/// one collector thread waits the futures in submission order. Latency is
/// measured from the due time to the moment the collector sees the answer,
/// so a stall also charges the requests queued behind it; the generator's
/// own lateness (submit start minus due time) is reported beside it.
///
/// Tail figures are taken per slice: the window is cut into kSliceSeconds
/// slices by due time, and the p99 of each slice is computed; the reported
/// tail is the median slice. A pause of the shared host that spoils a few
/// slices does not move it; a server that is slow throughout does.

#include <cstdint>
#include <vector>

#include "serve/inference_server.hpp"
#include "serve/served_model.hpp"

namespace perfbench {

class Tracer;

inline constexpr double kSliceSeconds = 0.1;

struct LoadResult {
  double rate = 0.0;          ///< nominal request rate, req/s
  double achieved_qps = 0.0;  ///< answered requests / (last answer - first due time)
  std::int64_t sent = 0;
  std::int64_t answered = 0;
  std::int64_t rejected = 0;  ///< submit returned nullopt
  std::int64_t errors = 0;    ///< future threw
  std::int64_t wrong = 0;     ///< label differs from the argmax of the logits row
  std::int64_t backlog_at_end = 0;  ///< unanswered when the last request fell due
  double latency_p50_us = 0.0;      ///< due time -> answer, whole window
  double latency_p99_us = 0.0;      ///< median over slices of the slice p99
  double late_p99_us = 0.0;         ///< generator lateness, median over slices of the slice p99
  double submit_p50_us = 0.0;       ///< time inside submit()
  plexus::serve::ServeStats server;

  /// The rate is sustained: no request failed, the p99 latency and the
  /// generator's p99 lateness are within `limit_us`, and the backlog when
  /// the last request fell due is what `limit_us` of arrivals (plus one
  /// batch) would queue, i.e. it is not growing.
  bool met(double limit_us, int max_batch) const;
};

/// Argmax over the valid classes of every node's logits row — the label a
/// correct server must return.
std::vector<std::int32_t> expected_labels(const plexus::serve::ServedModel& model);

/// Run `seconds` of open-loop load at `rate` against a fresh server over
/// `model`. Request i asks for nodes[i % nodes.size()].
LoadResult run_open_loop(const plexus::serve::ServedModel& model,
                         const plexus::serve::ServeOptions& sopt,
                         const std::vector<std::int64_t>& nodes,
                         const std::vector<std::int32_t>& expected, double rate, double seconds,
                         Tracer* tracer);

}  // namespace perfbench
