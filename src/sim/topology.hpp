#pragma once
/// \file topology.hpp
/// Mapping of the 3D virtual GPU grid onto physical nodes, and the effective
/// per-dimension link parameters of paper eq. 4.6.
///
/// Ranks are packed onto nodes in Y-fastest order ("the model considers GPU
/// topology, prioritizing Y, X, and then Z parallelism within a node",
/// section 4.2): rank = y + Gy * x + Gy * Gx * z... — the communicator rank
/// layout used by core::Grid3D matches this convention.

#include "comm/cost.hpp"
#include "sim/machine.hpp"

namespace plexus::sim {

struct GridShape {
  int x = 1;
  int y = 1;
  int z = 1;
  int size() const { return x * y * z; }
};

enum class Dim { X, Y, Z };

/// Effective ring link for the process groups along `dim` (eq. 4.6): the group
/// is intra-node iff it (together with all faster-packed dimensions) fits in a
/// node; otherwise inter-node bandwidth divided by the NIC contention factor
/// min(G_node, product of faster-packed dims).
comm::LinkParams link_for_dim(const Machine& m, const GridShape& g, Dim dim);

/// All-to-all distance penalty for a group of `group_size` ranks (>= 1): grows
/// with the number of nodes spanned — all-to-all sends most messages to
/// non-neighbours (section 7.1's explanation of BNS-GCN's scaling cliff).
double a2a_distance_penalty(const Machine& m, int group_size);

/// Link parameters for a *flat* group of `group_size` ranks packed linearly
/// onto nodes (how base::costmodels prices the BNS-GCN and SA baselines).
comm::LinkParams link_for_flat_group(const Machine& m, int group_size);

}  // namespace plexus::sim
