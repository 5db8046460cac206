// Transport conformance: the byte-movement backends must be interchangeable.
// The same randomized collective schedules run under the Sim (shared-slot)
// and Local (in-process ring/staged) transports and every payload must match
// bit for bit — reductions included, because all in-process backends apply
// contributions in canonical member order. Plus the topology-aware channel
// routing (line-family keys) and the backend registry.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/transport.hpp"
#include "comm/world.hpp"
#include "core/grid.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"

namespace pc = plexus::comm;
namespace pcore = plexus::core;
namespace psim = plexus::sim;

namespace {

/// Group shapes exercised by the conformance schedule, as member lists over a
/// world of 8: full world, halves, strided combs, a non-contiguous triple, a
/// pair and a singleton.
std::vector<std::vector<int>> conformance_groups() {
  return {
      {0, 1, 2, 3, 4, 5, 6, 7}, {0, 1, 2, 3}, {4, 5, 6, 7}, {0, 2, 4, 6},
      {1, 3, 5, 7},             {0, 5, 6},    {2, 7},       {3},
  };
}

/// Deterministic per-(group, collective, member) payload so every backend
/// sees identical inputs. Values carry rank, group and index so misrouted
/// chunks can never collide.
float payload_value(int gid, int kind, int rank, std::size_t i) {
  return static_cast<float>(gid * 1000 + kind * 100 + rank) +
         0.125f * static_cast<float>(i % 32);
}

/// Run the full conformance schedule under `backend`; returns each rank's
/// concatenated result stream (every output buffer of every collective, in
/// schedule order).
std::vector<std::vector<float>> run_schedule(pc::Backend backend) {
  pc::ScopedBackend scoped(backend);
  pc::World world(8);
  std::vector<pc::GroupId> gids;
  for (const auto& members : conformance_groups()) {
    gids.push_back(world.create_group(members));
  }
  std::vector<std::vector<float>> out(8);
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    auto& sink = out[static_cast<std::size_t>(ctx.rank())];
    for (const pc::GroupId gid : gids) {
      auto& g = ctx.comm.world().group(gid);
      bool member = false;
      for (const int m : g.members) member |= (m == ctx.rank());
      if (!member) continue;
      const int G = g.size();
      // Per-member chunk length differs per group (including 0) but is equal
      // across the group's members.
      const std::size_t n = static_cast<std::size_t>((gid * 7) % 5) + (gid % 2 == 0 ? 3 : 0);

      std::vector<float> gather_in(n), gather_out(n * static_cast<std::size_t>(G));
      for (std::size_t i = 0; i < n; ++i) gather_in[i] = payload_value(gid, 0, ctx.rank(), i);
      ctx.comm.all_gather<float>(gid, gather_in, gather_out);
      sink.insert(sink.end(), gather_out.begin(), gather_out.end());

      std::vector<float> rs_in(n * static_cast<std::size_t>(G)), rs_out(n);
      for (std::size_t i = 0; i < rs_in.size(); ++i) {
        rs_in[i] = payload_value(gid, 1, ctx.rank(), i) * 0.01f;
      }
      ctx.comm.reduce_scatter_sum<float>(gid, rs_in, rs_out);
      sink.insert(sink.end(), rs_out.begin(), rs_out.end());

      std::vector<float> ar(n * 2 + 1);
      for (std::size_t i = 0; i < ar.size(); ++i) {
        ar[i] = payload_value(gid, 2, ctx.rank(), i) * 0.003f;
      }
      ctx.comm.all_reduce_sum<float>(gid, ar);
      sink.insert(sink.end(), ar.begin(), ar.end());

      for (int root = 0; root < G; ++root) {
        std::vector<float> bc(n + 1);
        for (std::size_t i = 0; i < bc.size(); ++i) {
          bc[i] = payload_value(gid, 3, g.position_of(ctx.rank()) == root ? 999 : ctx.rank(), i);
        }
        ctx.comm.broadcast<float>(gid, bc, root);
        sink.insert(sink.end(), bc.begin(), bc.end());
      }

      std::vector<float> a2a_in(n * static_cast<std::size_t>(G)),
          a2a_out(n * static_cast<std::size_t>(G));
      for (std::size_t i = 0; i < a2a_in.size(); ++i) {
        a2a_in[i] = payload_value(gid, 4, ctx.rank(), i);
      }
      ctx.comm.all_to_all<float>(gid, a2a_in, a2a_out);
      sink.insert(sink.end(), a2a_out.begin(), a2a_out.end());
    }
  });
  return out;
}

}  // namespace

TEST(TransportConformance, SimAndLocalPayloadsBitwiseEqual) {
  const auto sim = run_schedule(pc::Backend::Sim);
  const auto local = run_schedule(pc::Backend::Local);
  ASSERT_EQ(sim.size(), local.size());
  for (std::size_t r = 0; r < sim.size(); ++r) {
    ASSERT_EQ(sim[r].size(), local[r].size()) << "rank " << r;
    ASSERT_GT(sim[r].size(), 0u) << "rank " << r << " exercised no collective";
    for (std::size_t i = 0; i < sim[r].size(); ++i) {
      // Bitwise: reductions must use canonical member order on every backend.
      EXPECT_EQ(std::memcmp(&sim[r][i], &local[r][i], sizeof(float)), 0)
          << "rank " << r << " element " << i << " sim=" << sim[r][i]
          << " local=" << local[r][i];
    }
  }
}

TEST(TransportConformance, LocalMatchesSimUnderEveryChannelBudget) {
  // The ring schedules synchronise with extra barrier rounds; they must stay
  // correct inline (budget 0), on one FIFO channel, and on per-group channels.
  const auto sim = run_schedule(pc::Backend::Sim);
  for (const int budget : {0, 1, 2, 4}) {
    pc::ScopedCommThreads scoped(budget);
    const auto local = run_schedule(pc::Backend::Local);
    ASSERT_EQ(sim.size(), local.size());
    for (std::size_t r = 0; r < sim.size(); ++r) {
      EXPECT_EQ(sim[r], local[r]) << "budget " << budget << " rank " << r;
    }
  }
}

TEST(TransportConformance, RandomizedTrainingPayloadsAcrossGridShapes) {
  // Randomized all-reduce / reduce-scatter round trips on real 3D-grid line
  // groups (the shapes the trainer posts on), Sim vs Local.
  for (const auto shape : {psim::GridShape{2, 2, 2}, psim::GridShape{4, 2, 1},
                           psim::GridShape{1, 4, 2}}) {
    auto run = [&](pc::Backend b) {
      pc::ScopedBackend scoped(b);
      pc::World world(shape.size());
      pcore::Grid3D grid(world, shape, psim::Machine::test_machine());
      std::vector<std::vector<float>> out(static_cast<std::size_t>(shape.size()));
      psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
        plexus::util::SplitMix64 rng(0xC0FFEEu + static_cast<std::uint64_t>(ctx.rank()));
        auto& sink = out[static_cast<std::size_t>(ctx.rank())];
        for (const auto axis : {pcore::Axis::X, pcore::Axis::Y, pcore::Axis::Z}) {
          const auto gid = grid.group_along(axis, ctx.rank());
          const int G = ctx.comm.world().group(gid).size();
          std::vector<float> buf(24);
          for (auto& v : buf) v = 2.0f * rng.next_float() - 1.0f;
          ctx.comm.all_reduce_sum<float>(gid, buf);
          sink.insert(sink.end(), buf.begin(), buf.end());
          std::vector<float> in(static_cast<std::size_t>(G) * 6), chunk(6);
          for (auto& v : in) v = 2.0f * rng.next_float() - 1.0f;
          ctx.comm.reduce_scatter_sum<float>(gid, in, chunk);
          sink.insert(sink.end(), chunk.begin(), chunk.end());
        }
      });
      return out;
    };
    const auto sim = run(pc::Backend::Sim);
    const auto local = run(pc::Backend::Local);
    for (std::size_t r = 0; r < sim.size(); ++r) {
      EXPECT_EQ(sim[r], local[r]) << "grid " << shape.x << "x" << shape.y << "x" << shape.z
                                  << " rank " << r;
    }
  }
}

TEST(TransportConformance, ZeroSizedPayloadsAreSafeOnEveryBackend) {
  // Regression: zero-length collectives must not touch any buffer pointer
  // (they may be null) on any backend or ring stage. Runs the degenerate ops
  // between real payloads so a corrupted slot/barrier sequence would
  // desynchronise the group and fail loudly.
  for (const auto backend : {pc::Backend::Sim, pc::Backend::Local}) {
    pc::ScopedBackend scoped(backend);
    pc::World world(4);
    const auto gid = world.create_group({0, 1, 2, 3});
    std::vector<std::vector<float>> out(4);
    psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
      ctx.comm.all_gather<float>(gid, {}, {});
      ctx.comm.all_reduce_sum<float>(gid, {});
      ctx.comm.reduce_scatter_sum<float>(gid, {}, {});
      ctx.comm.broadcast<float>(gid, {}, /*root=*/2);
      ctx.comm.all_to_all<float>(gid, {}, {});
      // A live round after the degenerate ones proves the group survived.
      std::vector<float> buf{static_cast<float>(ctx.rank() + 1)};
      ctx.comm.all_reduce_sum<float>(gid, buf);
      out[static_cast<std::size_t>(ctx.rank())] = buf;
    });
    for (int r = 0; r < 4; ++r) {
      ASSERT_EQ(out[static_cast<std::size_t>(r)].size(), 1u) << "rank " << r;
      EXPECT_EQ(out[static_cast<std::size_t>(r)][0], 10.0f)
          << pc::backend_name(backend) << " rank " << r;
    }
  }
}

TEST(ChannelRouting, LineFamiliesMapToDistinctChannels) {
  // Topology-aware routing: each rank's X/Y/Z line groups carry their family
  // (0/1/2) as the routing key, so with a channel budget >= 3 a rank's own
  // line groups can never collide on one channel.
  pc::World world(8);
  pcore::Grid3D grid(world, {2, 2, 2}, psim::Machine::test_machine());
  for (int r = 0; r < 8; ++r) {
    const auto gx = grid.group_along(pcore::Axis::X, r);
    const auto gy = grid.group_along(pcore::Axis::Y, r);
    const auto gz = grid.group_along(pcore::Axis::Z, r);
    EXPECT_EQ(pc::channel_route(world.group(gx), gx), 0);
    EXPECT_EQ(pc::channel_route(world.group(gy), gy), 1);
    EXPECT_EQ(pc::channel_route(world.group(gz), gz), 2);
  }
}

TEST(ChannelRouting, FamiliesShareKeysAcrossLinesOfOneDimension) {
  // Different lines of the same family share the key by design: per rank
  // they are different *ranks'* groups, and a rank posts on only one line
  // per family, so the family key still guarantees no self-collision.
  pc::World world(8);
  pcore::Grid3D grid(world, {2, 2, 2}, psim::Machine::test_machine());
  const auto g0 = grid.group_along(pcore::Axis::X, 0);
  const auto g1 = grid.group_along(pcore::Axis::X, 1);
  EXPECT_NE(g0, g1);  // distinct line groups...
  EXPECT_EQ(pc::channel_route(world.group(g0), g0),
            pc::channel_route(world.group(g1), g1));  // ...same family key
}

TEST(ChannelRouting, UntaggedGroupsKeepGroupIdRouting) {
  pc::World world(4);
  const auto ga = world.create_group({0, 1});
  const auto gb = world.create_group({2, 3});
  EXPECT_EQ(pc::channel_route(world.group(ga), ga), ga);
  EXPECT_EQ(pc::channel_route(world.group(gb), gb), gb);
  EXPECT_EQ(pc::channel_route(world.group(0), 0), 0);  // world group
}

TEST(BackendRegistry, NamesParseRoundTrip) {
  for (const auto b : {pc::Backend::Sim, pc::Backend::Local, pc::Backend::Mpi}) {
    pc::Backend parsed{};
    ASSERT_TRUE(pc::backend_from_string(pc::backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  pc::Backend parsed{};
  EXPECT_TRUE(pc::backend_from_string("LOCAL", parsed));
  EXPECT_EQ(parsed, pc::Backend::Local);
  EXPECT_FALSE(pc::backend_from_string("nccl", parsed));
  EXPECT_FALSE(pc::backend_from_string("", parsed));
}

TEST(BackendRegistry, ScopedOverrideRestores) {
  const pc::Backend before = pc::default_backend();
  {
    pc::ScopedBackend scoped(pc::Backend::Local);
    EXPECT_EQ(pc::default_backend(), pc::Backend::Local);
    {
      pc::ScopedBackend inner(pc::Backend::Sim);
      EXPECT_EQ(pc::default_backend(), pc::Backend::Sim);
    }
    EXPECT_EQ(pc::default_backend(), pc::Backend::Local);
  }
  EXPECT_EQ(pc::default_backend(), before);
}

TEST(BackendRegistry, TransportProperties) {
  auto& sim = pc::transport_for(pc::Backend::Sim);
  auto& local = pc::transport_for(pc::Backend::Local);
  EXPECT_STREQ(sim.name(), "sim");
  EXPECT_STREQ(local.name(), "local");
  EXPECT_TRUE(sim.uses_group_protocol());
  EXPECT_TRUE(local.uses_group_protocol());
  EXPECT_EQ(sim.backend(), pc::Backend::Sim);
  EXPECT_EQ(local.backend(), pc::Backend::Local);
  if (!pc::mpi_transport_available()) {
    EXPECT_THROW(pc::transport_for(pc::Backend::Mpi), std::runtime_error);
  } else {
    EXPECT_FALSE(pc::transport_for(pc::Backend::Mpi).uses_group_protocol());
  }
}

TEST(BackendRegistry, CommunicatorExposesItsTransport) {
  pc::World world(1);
  pc::Communicator comm(world, 0, nullptr, &pc::transport_for(pc::Backend::Local));
  EXPECT_EQ(comm.backend(), pc::Backend::Local);
  EXPECT_STREQ(comm.transport().name(), "local");
}
