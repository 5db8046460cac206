#include "core/grid.hpp"

#include "util/error.hpp"

namespace plexus::core {

Grid3D::Grid3D(comm::World& world, sim::GridShape shape, const sim::Machine& machine)
    : shape_(shape), world_group_(world.world_group()) {
  PLEXUS_CHECK(shape.size() == world.size(), "grid does not match world size");

  const auto link_x = sim::link_for_dim(machine, shape, sim::Dim::X);
  const auto link_y = sim::link_for_dim(machine, shape, sim::Dim::Y);
  const auto link_z = sim::link_for_dim(machine, shape, sim::Dim::Z);

  x_groups_.resize(static_cast<std::size_t>(shape.y * shape.z));
  y_groups_.resize(static_cast<std::size_t>(shape.x * shape.z));
  z_groups_.resize(static_cast<std::size_t>(shape.x * shape.y));

  // Line groups are tagged with their family (X = 0, Y = 1, Z = 2) as the
  // comm-channel routing class: a rank's own three line groups then always
  // map to distinct channels (budget permitting), so its X-, Y- and Z-line
  // collectives overlap in real time instead of queueing on one channel.
  for (int z = 0; z < shape.z; ++z) {
    for (int y = 0; y < shape.y; ++y) {
      std::vector<int> members;
      for (int x = 0; x < shape.x; ++x) members.push_back(rank_of({x, y, z}));
      x_groups_[static_cast<std::size_t>(y + shape.y * z)] =
          world.create_group(members, link_x, /*channel_hint=*/0);
    }
  }
  for (int z = 0; z < shape.z; ++z) {
    for (int x = 0; x < shape.x; ++x) {
      std::vector<int> members;
      for (int y = 0; y < shape.y; ++y) members.push_back(rank_of({x, y, z}));
      y_groups_[static_cast<std::size_t>(x + shape.x * z)] =
          world.create_group(members, link_y, /*channel_hint=*/1);
    }
  }
  for (int x = 0; x < shape.x; ++x) {
    for (int y = 0; y < shape.y; ++y) {
      std::vector<int> members;
      for (int z = 0; z < shape.z; ++z) members.push_back(rank_of({x, y, z}));
      z_groups_[static_cast<std::size_t>(y + shape.y * x)] =
          world.create_group(members, link_z, /*channel_hint=*/2);
    }
  }
}

int Grid3D::extent(Axis a) const {
  switch (a) {
    case Axis::X: return shape_.x;
    case Axis::Y: return shape_.y;
    case Axis::Z: return shape_.z;
  }
  return 1;
}

Coords Grid3D::coords_of(int rank) const {
  PLEXUS_CHECK(rank >= 0 && rank < size(), "rank out of grid");
  Coords c;
  c.y = rank % shape_.y;
  c.x = (rank / shape_.y) % shape_.x;
  c.z = rank / (shape_.y * shape_.x);
  return c;
}

int Grid3D::rank_of(const Coords& c) const {
  return c.y + shape_.y * (c.x + shape_.x * c.z);
}

int Grid3D::coord(const Coords& c, Axis a) {
  switch (a) {
    case Axis::X: return c.x;
    case Axis::Y: return c.y;
    case Axis::Z: return c.z;
  }
  return 0;
}

comm::GroupId Grid3D::group_along(Axis axis, int rank) const {
  const Coords c = coords_of(rank);
  switch (axis) {
    case Axis::X: return x_groups_[static_cast<std::size_t>(c.y + shape_.y * c.z)];
    case Axis::Y: return y_groups_[static_cast<std::size_t>(c.x + shape_.x * c.z)];
    case Axis::Z: return z_groups_[static_cast<std::size_t>(c.y + shape_.y * c.x)];
  }
  PLEXUS_CHECK(false, "bad axis");
  return -1;
}

}  // namespace plexus::core
