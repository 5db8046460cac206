#pragma once
/// \file roles.hpp
/// Per-layer axis roles of the 3D tensor-parallel algorithm (paper section
/// 3.1-3.2, Figures 2-4).
///
/// Layer 0 distributes:           generalised roles:
///   A  over the ZX-plane           A     (rows = R, cols = P), replicated over Q
///   F  over the XY-plane (+Z)      F_in  (rows = P, cols = Q) [+ flat-shard R at layer 0]
///   W  over the YX-plane (+Z)      W     (rows = Q, cols = P), flat-sharded over R
///   SpMM all-reduce over X         all-reduce over P
///   GEMM all-reduce over Y         all-reduce over Q
///   F_out over the ZX-plane        F_out (rows = R, cols = P), replicated over Q
///
/// The output of layer l is the input of layer l+1, which forces the role
/// rotation (P,Q,R) -> (R,P,Q): layers cycle through three adjacency
/// shardings — ZX-plane, YZ-plane, XY-plane — so only min(3, L) unique
/// adjacency shards are ever stored (section 3.2).

#include "sim/topology.hpp"

namespace plexus::core {

using Axis = sim::Dim;

struct LayerRoles {
  Axis p;  ///< F_in row axis == A col axis == SpMM-reduce axis
  Axis q;  ///< F_in col axis == W row axis == GEMM-reduce axis
  Axis r;  ///< A row axis == H/F_out row axis == extra-shard axis for W (and F at layer 0)
};

/// Roles of layer `layer`: (X,Y,Z) rotated by (P,Q,R) -> (R,P,Q) per layer.
constexpr LayerRoles roles_for_layer(int layer) {
  switch (layer % 3) {
    case 0: return {Axis::X, Axis::Y, Axis::Z};
    case 1: return {Axis::Z, Axis::X, Axis::Y};
    default: return {Axis::Y, Axis::Z, Axis::X};
  }
}

}  // namespace plexus::core
