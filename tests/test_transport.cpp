// Transport conformance: the Sim byte transport must deliver exactly what a
// serial reference computes. The same collective schedules run under both
// wire formats and every channel budget, and every output must match bit for
// bit — reductions included, because the transport folds contributions in
// canonical member order (acc = c0; acc += c1; ...). Plus the topology-aware
// channel routing (line-family keys) and the backend registry.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
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

/// Deterministic per-(group, collective, member) payload. Values carry rank,
/// group and index so misrouted chunks can never collide.
float payload_value(int gid, int kind, int rank, std::size_t i) {
  return static_cast<float>(gid * 1000 + kind * 100 + rank) +
         0.125f * static_cast<float>(i % 32);
}

/// `v` as it arrives over the wire: verbatim under fp32; under bf16 each
/// value rounded to nearest-even bf16 (payloads here are finite).
std::vector<float> wired(std::vector<float> v, pc::WirePrecision wire) {
  if (wire == pc::WirePrecision::Bf16) {
    for (float& x : v) {
      std::uint32_t u = std::bit_cast<std::uint32_t>(x);
      u += 0x7fffu + ((u >> 16) & 1u);
      x = std::bit_cast<float>(u & 0xffff0000u);
    }
  }
  return v;
}

/// Serial reduction reference over elements [off, off + n) of the members'
/// inputs, in position order: acc = c0; acc += c1; ... Each contribution is
/// rounded once to the wire format before the fold.
std::vector<float> serial_fold(const std::vector<std::vector<float>>& inputs, std::size_t off,
                               std::size_t n, pc::WirePrecision wire) {
  const auto contribution = [&](std::size_t m) {
    return wired(std::vector<float>(inputs[m].begin() + static_cast<std::ptrdiff_t>(off),
                                    inputs[m].begin() + static_cast<std::ptrdiff_t>(off + n)),
                 wire);
  };
  std::vector<float> acc = contribution(0);
  for (std::size_t m = 1; m < inputs.size(); ++m) {
    const std::vector<float> c = contribution(m);
    for (std::size_t i = 0; i < n; ++i) acc[i] += c[i];
  }
  return acc;
}

/// Float bits, so vector comparisons are bitwise.
std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  for (std::size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<std::uint32_t>(v[i]);
  return out;
}

/// Each rank's output buffers in schedule order (`got`), and what the serial
/// reference computes for them (`want`).
struct Streams {
  std::vector<std::vector<float>> got = std::vector<std::vector<float>>(8);
  std::vector<std::vector<float>> want = std::vector<std::vector<float>>(8);
};

/// Run the conformance schedule on Sim under `wire`. Inputs are pure
/// functions of (group, collective, member), so every rank builds its own
/// reference from its peers' regenerated inputs.
Streams run_schedule(pc::WirePrecision wire) {
  pc::World world(8);
  std::vector<pc::GroupId> gids;
  for (const auto& members : conformance_groups()) gids.push_back(world.create_group(members));
  Streams s;
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    ctx.comm.set_wire_precision(wire);
    const auto r = static_cast<std::size_t>(ctx.rank());
    for (const pc::GroupId gid : gids) {
      const auto& g = ctx.comm.world().group(gid);
      bool member = false;
      for (const int m : g.members) member |= (m == ctx.rank());
      if (!member) continue;
      const auto G = static_cast<std::size_t>(g.size());
      const auto pos = static_cast<std::size_t>(g.position_of(ctx.rank()));
      // Per-member chunk length differs per group (including 0) but is equal
      // across the group's members.
      const std::size_t n = static_cast<std::size_t>((gid * 7) % 5) + (gid % 2 == 0 ? 3 : 0);
      // Rank `who`'s input to collective `kind`.
      const auto input = [&](int kind, int who, std::size_t len, float scale) {
        std::vector<float> v(len);
        for (std::size_t i = 0; i < len; ++i) v[i] = payload_value(gid, kind, who, i) * scale;
        return v;
      };
      const auto inputs = [&](int kind, std::size_t len, float scale) {
        std::vector<std::vector<float>> all;
        for (const int m : g.members) all.push_back(input(kind, m, len, scale));
        return all;
      };
      const auto emit = [&](const std::vector<float>& out, const std::vector<float>& ref) {
        s.got[r].insert(s.got[r].end(), out.begin(), out.end());
        s.want[r].insert(s.want[r].end(), ref.begin(), ref.end());
      };

      // All-gather: the members' chunks concatenated.
      std::vector<float> gathered(n * G), concat;
      ctx.comm.all_gather<float>(gid, input(0, ctx.rank(), n, 1.0f), gathered);
      for (const auto& c : inputs(0, n, 1.0f)) concat.insert(concat.end(), c.begin(), c.end());
      emit(gathered, wired(concat, wire));

      std::vector<float> chunk(n);
      ctx.comm.reduce_scatter_sum<float>(gid, input(1, ctx.rank(), n * G, 0.01f), chunk);
      emit(chunk, serial_fold(inputs(1, n * G, 0.01f), pos * n, n, wire));

      std::vector<float> ar = input(2, ctx.rank(), n * 2 + 1, 0.003f);
      ctx.comm.all_reduce_sum<float>(gid, ar);
      emit(ar, serial_fold(inputs(2, n * 2 + 1, 0.003f), 0, n * 2 + 1, wire));
    }
  });
  return s;
}

}  // namespace

TEST(TransportConformance, PayloadsBitwiseEqualSerialReference) {
  // Inline (budget 0), one FIFO channel and per-group channels, under the
  // verbatim and the bf16 wire.
  for (const auto wire : {pc::WirePrecision::Fp32, pc::WirePrecision::Bf16}) {
    for (const int budget : {0, 1, 2, 4}) {
      pc::ScopedCommThreads scoped(budget);
      const Streams s = run_schedule(wire);
      for (std::size_t r = 0; r < 8; ++r) {
        ASSERT_GT(s.got[r].size(), 0u) << "rank " << r << " exercised no collective";
        EXPECT_EQ(bits(s.got[r]), bits(s.want[r]))
            << pc::wire_precision_name(wire) << " budget " << budget << " rank " << r;
      }
    }
  }
}

TEST(TransportConformance, RandomizedTrainingPayloadsAcrossGridShapes) {
  // Randomized all-reduce / reduce-scatter round trips on real 3D-grid line
  // groups (the shapes the trainer posts on), against the serial fold of the
  // inputs each rank captured.
  const pcore::Axis axes[] = {pcore::Axis::X, pcore::Axis::Y, pcore::Axis::Z};
  for (const auto shape : {psim::GridShape{2, 2, 2}, psim::GridShape{4, 2, 1},
                           psim::GridShape{1, 4, 2}}) {
    pc::World world(shape.size());
    pcore::Grid3D grid(world, shape, psim::Machine::test_machine());
    const auto R = static_cast<std::size_t>(shape.size());
    std::vector<std::vector<std::vector<float>>> in(R), out(R);  // [rank][op]
    psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
      plexus::util::SplitMix64 rng(0xC0FFEEu + static_cast<std::uint64_t>(ctx.rank()));
      auto& my_in = in[static_cast<std::size_t>(ctx.rank())];
      auto& my_out = out[static_cast<std::size_t>(ctx.rank())];
      for (const auto axis : axes) {
        const auto gid = grid.group_along(axis, ctx.rank());
        const int G = ctx.comm.world().group(gid).size();
        std::vector<float> buf(24);
        for (auto& v : buf) v = 2.0f * rng.next_float() - 1.0f;
        my_in.push_back(buf);
        ctx.comm.all_reduce_sum<float>(gid, buf);
        my_out.push_back(buf);
        std::vector<float> rs(static_cast<std::size_t>(G) * 6), chunk(6);
        for (auto& v : rs) v = 2.0f * rng.next_float() - 1.0f;
        my_in.push_back(rs);
        ctx.comm.reduce_scatter_sum<float>(gid, rs, chunk);
        my_out.push_back(chunk);
      }
    });
    for (std::size_t r = 0; r < R; ++r) {
      for (std::size_t k = 0; k < out[r].size(); ++k) {
        const auto& g = world.group(grid.group_along(axes[k / 2], static_cast<int>(r)));
        std::vector<std::vector<float>> peers;
        for (const int m : g.members) peers.push_back(in[static_cast<std::size_t>(m)][k]);
        const std::size_t n = out[r][k].size();
        const std::size_t off =
            k % 2 == 1 ? static_cast<std::size_t>(g.position_of(static_cast<int>(r))) * n : 0;
        EXPECT_EQ(bits(out[r][k]), bits(serial_fold(peers, off, n, pc::WirePrecision::Fp32)))
            << "grid " << shape.x << "x" << shape.y << "x" << shape.z << " rank " << r
            << " op " << k;
      }
    }
  }
}

TEST(TransportConformance, ZeroSizedPayloadsAreSafe) {
  // Regression: zero-length collectives must not touch any buffer pointer
  // (they may be null). Runs the degenerate ops between real payloads so a
  // corrupted slot/barrier sequence would desynchronise the group and fail
  // loudly.
  pc::World world(4);
  const auto gid = world.create_group({0, 1, 2, 3});
  std::vector<std::vector<float>> out(4);
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    ctx.comm.all_gather<float>(gid, {}, {});
    ctx.comm.all_reduce_sum<float>(gid, {});
    ctx.comm.reduce_scatter_sum<float>(gid, {}, {});
    // A live round after the degenerate ones proves the group survived.
    std::vector<float> buf{static_cast<float>(ctx.rank() + 1)};
    ctx.comm.all_reduce_sum<float>(gid, buf);
    out[static_cast<std::size_t>(ctx.rank())] = buf;
  });
  for (int r = 0; r < 4; ++r) {
    ASSERT_EQ(out[static_cast<std::size_t>(r)].size(), 1u) << "rank " << r;
    EXPECT_EQ(out[static_cast<std::size_t>(r)][0], 10.0f) << "rank " << r;
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
  for (const auto b : {pc::Backend::Sim, pc::Backend::Mpi}) {
    pc::Backend parsed{};
    ASSERT_TRUE(pc::backend_from_string(pc::backend_name(b), parsed));
    EXPECT_EQ(parsed, b);
  }
  pc::Backend parsed{};
  EXPECT_TRUE(pc::backend_from_string("SIM", parsed));
  EXPECT_EQ(parsed, pc::Backend::Sim);
  EXPECT_FALSE(pc::backend_from_string("local", parsed));
  EXPECT_FALSE(pc::backend_from_string("nccl", parsed));
  EXPECT_FALSE(pc::backend_from_string("", parsed));
}

TEST(BackendRegistry, TransportProperties) {
  auto& sim = pc::transport_for(pc::Backend::Sim);
  EXPECT_STREQ(sim.name(), "sim");
  EXPECT_TRUE(sim.uses_group_protocol());
  EXPECT_EQ(sim.backend(), pc::Backend::Sim);
  if (!pc::mpi_transport_available()) {
    EXPECT_THROW(pc::transport_for(pc::Backend::Mpi), std::runtime_error);
  } else {
    EXPECT_FALSE(pc::transport_for(pc::Backend::Mpi).uses_group_protocol());
  }
}

TEST(BackendRegistry, CommunicatorWithoutTransportIsSimWithFp32Wire) {
  pc::World world(1);
  pc::Communicator comm(world, 0);
  EXPECT_EQ(comm.backend(), pc::Backend::Sim);
  EXPECT_STREQ(comm.transport().name(), "sim");
  EXPECT_EQ(comm.wire_precision(), pc::WirePrecision::Fp32);
}
