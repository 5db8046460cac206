#pragma once
/// \file cost.hpp
/// Analytic collective cost model (paper section 4.2).
///
/// Ring-algorithm bandwidth terms after Thakur & Gropp / Rabenseifner, the same
/// equations the paper's communication model uses (eq. 4.5). `bytes` is the
/// *full logical buffer* size: for all-reduce the buffer being reduced, for
/// all-gather / reduce-scatter the gathered (full) buffer. A latency term
/// `alpha` per ring step is included; the paper omits it for its large messages
/// but small-group simulations keep it for fidelity.

#include <cstdint>

namespace plexus::comm {

/// The Communicator posts only Barrier, AllGather, AllReduce and
/// ReduceScatter. Broadcast, AllToAll and Send stay because the cost models
/// price them (base::costmodels prices BNS-GCN and SA halo traffic as
/// AllToAll) and perfbench names every enumerator in its traces.
enum class Collective {
  Barrier,
  Broadcast,
  AllGather,
  AllReduce,
  ReduceScatter,
  AllToAll,
  Send,  ///< point-to-point, priced by collective_time
};

struct LinkParams {
  double bandwidth = 100e9;  ///< bytes/sec effective for this group's ring
  double latency = 5e-6;     ///< seconds per message hop
  /// Per-peer software overhead of all-to-all exchanges (NCCL p2p setup,
  /// staging of many small buffers). Applied as overhead * (G-1)^0.8; zero
  /// for ring collectives, which pipeline a single neighbour stream.
  double a2a_peer_overhead = 0.0;
};

/// Time for one collective on a group of `group_size` ranks.
/// AllToAll uses `bytes` = data each rank sends in total, and models the
/// non-neighbour traffic penalty via `a2a_distance_penalty` (>= 1) that the
/// caller derives from topology (long-distance messages; section 7.1 discusses
/// why all-to-all scales worse than ring collectives).
double collective_time(Collective op, std::int64_t bytes, int group_size,
                       const LinkParams& link, double a2a_distance_penalty = 1.0);

/// Human-readable op name ("AllReduce", ...) for traces and tables.
const char* collective_name(Collective op);

/// Bytes that actually cross links for one collective, per the same ring
/// algorithms `collective_time` charges: all-reduce moves the logical buffer
/// twice (reduce-scatter + all-gather pass), all-gather / reduce-scatter /
/// all-to-all move it once, each scaled by the (G-1)/G ring fraction.
/// CommStats `bytes` counts the logical buffer per call, `wire_bytes` what
/// the links carried.
std::int64_t wire_bytes(Collective op, std::int64_t bytes, int group_size);

/// Perf-model rule for the software-pipeline depth of a blocked aggregation
/// (paper section 5.2 + the section 4 cost model): given the *fastest*
/// per-block compute time and the *slowest* per-block ring time, return the
/// smallest depth whose `depth - 1` in-flight slots let every collective
/// complete inside the compute of the blocks posted after it. Compute-bound
/// blocks (ring <= compute) need only one spare slot plus slack; comm-bound
/// blocks need ceil(ring / compute) lookahead because the ring is the
/// bottleneck and the poster must keep it fed. Exposed simulated comm time is
/// monotone non-increasing in depth, so erring deep is safe; the returned
/// value is clamped to [2, min(num_blocks, max_depth)] (1 when there is
/// nothing to pipeline: a single block or a free collective).
int choose_pipeline_depth(double block_compute_seconds, double block_ring_seconds,
                          int num_blocks, int max_depth = 8);

}  // namespace plexus::comm
