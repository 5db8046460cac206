#pragma once
/// \file world.hpp
/// Shared state of the simulated cluster: the rank set and all process groups.
///
/// Mirrors the MPI model: a `World` of G ranks, and process groups (sub-
/// communicators) created *before* the SPMD region starts (group creation is
/// not thread-safe by design — matching the collective-creation requirement of
/// MPI_Comm_create / NCCL communicator init, which Plexus performs once when
/// arranging GPUs into the 3D virtual grid).
///
/// Each group carries `LinkParams` (effective ring bandwidth + latency) so that
/// collectives advance the simulated clocks by the paper's eq. 4.5/4.6 costs.

#include <barrier>
#include <cstdint>
#include <memory>
#include <vector>

#include "comm/cost.hpp"
#include "util/error.hpp"

namespace plexus::comm {

using GroupId = int;

/// Shared per-group state. `slots` hold pointers published by members during a
/// collective; `clock_slots` carry their simulated clocks for synchronisation.
/// All mutable protocol state is per-group (guarded by the group's own op
/// barriers), so collectives on *different* groups may execute concurrently
/// on per-group comm channels without any cross-group synchronisation.
struct GroupShared {
  std::vector<int> members;  ///< global ranks, ascending
  LinkParams link;
  std::unique_ptr<std::barrier<>> barrier;
  std::vector<const void*> slots;
  std::vector<double> clock_slots;
  /// Comm-channel routing class. Line groups of the 3D grid are tagged with
  /// their *family* (X = 0, Y = 1, Z = 2) so a rank's own three line groups
  /// never share a channel (budget permitting); -1 = untagged, route by
  /// GroupId as before. See channel_route().
  int channel_hint = -1;
  /// Sim instant until which this group's ring links are occupied by the
  /// latest collective. Serialises overlapping (pipelined) collectives on the
  /// same group: a collective starts no earlier than this horizon. Written by
  /// group member 0 in each op's read phase, read by members when publishing
  /// the next op — the two accesses are separated by the op barriers.
  double link_busy_until = 0.0;

  int size() const { return static_cast<int>(members.size()); }

  int position_of(int rank) const {
    for (std::size_t i = 0; i < members.size(); ++i) {
      if (members[i] == rank) return static_cast<int>(i);
    }
    PLEXUS_CHECK(false, "rank not in group");
    return -1;
  }
};

/// Comm-channel routing key of a group (topology-aware when tagged): the
/// group's channel_hint — its X/Y/Z line family — when set, else the GroupId.
/// Ops whose keys are congruent mod the channel budget share one channel per
/// rank and serialise; family tagging guarantees a rank's own three line
/// groups land on three distinct keys, so with a budget >= 3 they never
/// collide (the old `GroupId mod budget` routing could map two of them onto
/// one channel and forfeit their real-time overlap).
inline int channel_route(const GroupShared& g, GroupId gid) {
  return g.channel_hint >= 0 ? g.channel_hint : static_cast<int>(gid);
}

class World {
 public:
  explicit World(int size);

  int size() const { return size_; }

  /// Group 0: all ranks, default link parameters.
  GroupId world_group() const { return 0; }

  /// Create a process group. NOT thread-safe: call before the SPMD region.
  /// `channel_hint` >= 0 tags the group with a comm-channel routing class
  /// (the 3D grid uses the line family, X = 0 / Y = 1 / Z = 2); -1 keeps the
  /// GroupId-based routing. See channel_route().
  GroupId create_group(std::vector<int> members, LinkParams link = {}, int channel_hint = -1);

  /// Zero every group's link-busy horizon. Required when reusing a World for
  /// a fresh simulation session whose SimClocks restart at 0 — otherwise the
  /// first collective books the stale horizon as exposed time. NOT
  /// thread-safe: call between SPMD regions.
  void reset_link_time();

  GroupShared& group(GroupId id) {
    PLEXUS_CHECK(id >= 0 && static_cast<std::size_t>(id) < groups_.size(), "bad group id");
    return *groups_[static_cast<std::size_t>(id)];
  }

 private:
  int size_;
  std::vector<std::unique_ptr<GroupShared>> groups_;
};

}  // namespace plexus::comm
