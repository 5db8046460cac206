#include "comm/cost.hpp"

#include <algorithm>
#include <cmath>

namespace plexus::comm {

double collective_time(Collective op, std::int64_t bytes, int group_size, const LinkParams& link,
                       double a2a_distance_penalty) {
  if (group_size <= 1) return 0.0;
  const double m = static_cast<double>(bytes);
  const double g = static_cast<double>(group_size);
  const double ring_frac = (g - 1.0) / g;
  switch (op) {
    case Collective::Barrier:
      return link.latency * std::log2(g);
    case Collective::Broadcast:
      // Scatter + all-gather (Thakur): ~2 * (G-1)/G * M / beta.
      return 2.0 * ring_frac * m / link.bandwidth + 2.0 * (g - 1.0) * link.latency;
    case Collective::AllGather:
    case Collective::ReduceScatter:
      // One ring pass over the full buffer: (G-1)/G * M / beta.
      return ring_frac * m / link.bandwidth + (g - 1.0) * link.latency;
    case Collective::AllReduce:
      // Reduce-scatter + all-gather: 2 * (G-1)/G * M / beta (paper eq. 4.5).
      return 2.0 * ring_frac * m / link.bandwidth + 2.0 * (g - 1.0) * link.latency;
    case Collective::AllToAll:
      // Pairwise exchange: each rank sends M bytes total split across G-1
      // peers, most of them non-neighbours => distance penalty on the volume
      // term plus a sublinear per-peer software overhead (the dominant cost
      // at scale, where per-peer messages shrink into the latency regime —
      // section 7.1's explanation of the all-to-all scaling cliff).
      return a2a_distance_penalty * (ring_frac * m / link.bandwidth) +
             (g - 1.0) * link.latency +
             link.a2a_peer_overhead * std::pow(g - 1.0, 0.8);
    case Collective::Send:
      return m / link.bandwidth + link.latency;
  }
  return 0.0;
}

const char* collective_name(Collective op) {
  switch (op) {
    case Collective::Barrier: return "Barrier";
    case Collective::Broadcast: return "Broadcast";
    case Collective::AllGather: return "AllGather";
    case Collective::AllReduce: return "AllReduce";
    case Collective::ReduceScatter: return "ReduceScatter";
    case Collective::AllToAll: return "AllToAll";
    case Collective::Send: return "Send";
  }
  return "?";
}

std::int64_t wire_bytes(Collective op, std::int64_t bytes, int group_size) {
  if (group_size <= 1) return 0;
  const double m = static_cast<double>(bytes);
  const double g = static_cast<double>(group_size);
  const double ring_frac = (g - 1.0) / g;
  switch (op) {
    case Collective::Barrier:
      return 0;
    case Collective::Broadcast:
    case Collective::AllReduce:
      return static_cast<std::int64_t>(2.0 * ring_frac * m);
    case Collective::AllGather:
    case Collective::ReduceScatter:
    case Collective::AllToAll:
      return static_cast<std::int64_t>(ring_frac * m);
    case Collective::Send:
      return bytes;
  }
  return 0;
}

int choose_pipeline_depth(double block_compute_seconds, double block_ring_seconds,
                          int num_blocks, int max_depth) {
  if (num_blocks <= 1 || block_ring_seconds <= 0.0) return 1;
  const int cap = std::max(2, std::min(num_blocks, max_depth));
  if (block_compute_seconds <= 0.0) return cap;  // nothing to hide behind: max lookahead
  const double ratio = block_ring_seconds / block_compute_seconds;
  const int depth = 2 + static_cast<int>(std::ceil(ratio));
  return std::max(2, std::min(depth, cap));
}

}  // namespace plexus::comm
