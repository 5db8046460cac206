#include "comm/world.hpp"

#include <algorithm>

namespace plexus::comm {

World::World(int size) : size_(size) {
  PLEXUS_CHECK(size > 0, "world size must be positive");
  std::vector<int> all(static_cast<std::size_t>(size));
  for (int i = 0; i < size; ++i) all[static_cast<std::size_t>(i)] = i;
  create_group(std::move(all));
}

GroupId World::create_group(std::vector<int> members, LinkParams link) {
  PLEXUS_CHECK(!members.empty(), "empty group");
  std::sort(members.begin(), members.end());
  for (std::size_t i = 0; i < members.size(); ++i) {
    PLEXUS_CHECK(members[i] >= 0 && members[i] < size_, "group member out of range");
    PLEXUS_CHECK(i == 0 || members[i] != members[i - 1], "duplicate group member");
  }
  auto g = std::make_unique<GroupShared>();
  g->members = std::move(members);
  g->link = link;
  g->barrier = std::make_unique<std::barrier<>>(static_cast<std::ptrdiff_t>(g->members.size()));
  g->slots.assign(g->members.size(), nullptr);
  g->clock_slots.assign(g->members.size(), 0.0);
  g->fold.resize(g->members.size());
  groups_.push_back(std::move(g));
  return static_cast<GroupId>(groups_.size() - 1);
}

void World::reset_link_time() {
  for (auto& g : groups_) g->link_busy_until = 0.0;
}

}  // namespace plexus::comm
