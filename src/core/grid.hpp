#pragma once
/// \file grid.hpp
/// The 3D virtual GPU grid (paper section 3.1): rank <-> (x, y, z) coordinate
/// mapping and the per-dimension process groups (X-, Y-, Z-parallel lines).
///
/// Ranks are packed Y-fastest (rank = y + Gy*x + Gy*Gx*z) so that the Y
/// dimension lands within a node first, then X, then Z — the packing priority
/// the paper's communication model assumes (section 4.2). Each line group gets
/// the effective link parameters of eq. 4.6 for the given machine.

#include <vector>

#include "comm/world.hpp"
#include "core/roles.hpp"
#include "sim/machine.hpp"
#include "sim/topology.hpp"

namespace plexus::core {

struct Coords {
  int x = 0;
  int y = 0;
  int z = 0;
};

class Grid3D {
 public:
  /// Creates all line process groups in `world`. `world.size()` must equal
  /// shape.size(). Not thread-safe: construct before the SPMD region.
  Grid3D(comm::World& world, sim::GridShape shape, const sim::Machine& machine);

  const sim::GridShape& shape() const { return shape_; }
  int size() const { return shape_.size(); }

  int extent(Axis a) const;
  Coords coords_of(int rank) const;
  int rank_of(const Coords& c) const;
  static int coord(const Coords& c, Axis a);

  /// Group of all ranks sharing this rank's other two coordinates, varying
  /// along `axis`. The rank's position inside the group equals its coordinate
  /// along `axis`.
  comm::GroupId group_along(Axis axis, int rank) const;

  comm::GroupId world_group() const { return world_group_; }

 private:
  sim::GridShape shape_;
  comm::GroupId world_group_;
  // Indexed by line id within each dimension.
  std::vector<comm::GroupId> x_groups_;  // (y, z) -> group, id = y + Gy*z
  std::vector<comm::GroupId> y_groups_;  // (x, z) -> group, id = x + Gx*z
  std::vector<comm::GroupId> z_groups_;  // (x, y) -> group, id = y + Gy*x
};

}  // namespace plexus::core
