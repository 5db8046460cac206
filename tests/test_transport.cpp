// Transport conformance: the Sim byte transport must deliver exactly what a
// serial reference computes. The same collective schedules run under both
// wire formats, inline and on the comm thread, and every output must match
// bit for bit — reductions included, because the transport folds
// contributions in canonical member order (acc = c0; acc += c1; ...). Plus
// the backend registry.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/transport.hpp"
#include "comm/world.hpp"
#include "core/grid.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"
#include "util/rng.hpp"
#include "util/simd.hpp"

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
  // Inline (budget 0) and on the FIFO comm thread (1), under the verbatim
  // and the bf16 wire.
  for (const auto wire : {pc::WirePrecision::Fp32, pc::WirePrecision::Bf16}) {
    for (const int budget : {0, 1}) {
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

TEST(TransportConformance, PipelinedAllReducesReuseFoldSlices) {
  // Each group member folds one slice of every all-reduce into the group's
  // fold buffers, and peers copy the slices out after the op. Back-to-back
  // nonblocking all-reduces on overlapping groups reuse those buffers while
  // up to 4 handles per rank are in flight, waited newest first. Sizes cycle
  // through empty, smaller than the group, not a multiple of it, and large;
  // every result must equal the serial fold bitwise.
  const std::vector<std::vector<int>> groups = {{0, 1, 2, 3}, {0, 2}, {1, 3}, {2}};
  const std::size_t sizes[] = {0, 1, 3, 4097, 65541, 2};
  // Rank `rank`'s input to op `op`: inexact sums, so the fold order shows.
  const auto input = [](int op, int rank, std::size_t n) {
    std::vector<float> v(n);
    for (std::size_t i = 0; i < n; ++i) {
      v[i] = static_cast<float>((op * 31 + rank * 7 + static_cast<int>(i % 4099)) % 97) * 0.37f -
             11.3f;
    }
    return v;
  };
  for (const auto wire : {pc::WirePrecision::Fp32, pc::WirePrecision::Bf16}) {
    for (const int budget : {0, 1}) {
      pc::ScopedCommThreads scoped(budget);
      pc::World world(4);
      std::vector<pc::GroupId> gids;
      for (const auto& members : groups) gids.push_back(world.create_group(members));
      Streams s;
      psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
        ctx.comm.set_wire_precision(wire);
        const auto r = static_cast<std::size_t>(ctx.rank());
        struct InFlight {
          pc::CommHandle handle;
          std::vector<float> buf;
          std::vector<float> want;
        };
        std::vector<InFlight> inflight;
        inflight.reserve(4);
        const auto drain = [&] {
          for (auto it = inflight.rbegin(); it != inflight.rend(); ++it) {
            it->handle.wait();
            s.got[r].insert(s.got[r].end(), it->buf.begin(), it->buf.end());
            s.want[r].insert(s.want[r].end(), it->want.begin(), it->want.end());
          }
          inflight.clear();
        };
        int op = 0;
        for (int rep = 0; rep < 2; ++rep) {
          for (const std::size_t n : sizes) {
            for (const pc::GroupId gid : gids) {
              const int k = op++;
              const auto& g = ctx.comm.world().group(gid);
              bool member = false;
              for (const int m : g.members) member |= (m == ctx.rank());
              if (!member) continue;
              std::vector<std::vector<float>> peers;
              for (const int m : g.members) peers.push_back(input(k, m, n));
              InFlight& f = inflight.emplace_back();
              f.buf = input(k, ctx.rank(), n);
              f.want = serial_fold(peers, 0, n, wire);
              f.handle = ctx.comm.iall_reduce_sum<float>(gid, f.buf);
              if (inflight.size() == 4) drain();
            }
          }
        }
        drain();
      });
      for (std::size_t r = 0; r < 4; ++r) {
        ASSERT_GT(s.got[r].size(), 0u) << "rank " << r << " reduced nothing";
        EXPECT_EQ(bits(s.got[r]), bits(s.want[r]))
            << pc::wire_precision_name(wire) << " budget " << budget << " rank " << r;
      }
    }
  }
}

TEST(TransportConformance, OneMemberAllReduceIsIdentity) {
  // A one-member fp32 all-reduce leaves the buffer as it is, bit for bit:
  // NaNs of both signs with distinct payloads (quiet and signalling), signed
  // zeros, denormals and infinities. Under the bf16 wire the member's packed
  // contribution is still widened back, so the result is the bf16 rounding.
  const std::uint32_t patterns[] = {
      0x7fc00001u, 0xffc12345u, 0x7fa00000u, 0xff800123u,  // NaNs
      0x00000000u, 0x80000000u,                            // +0, -0
      0x00000001u, 0x807fffffu,                            // denormals
      0x7f800000u, 0xff800000u,                            // +inf, -inf
      0x3fc00000u, 0x9e70a3d7u,                            // 1.5, a tiny negative
  };
  std::vector<float> input(4099);
  for (std::size_t i = 0; i < input.size(); ++i) {
    input[i] = std::bit_cast<float>(patterns[i % std::size(patterns)] ^
                                    static_cast<std::uint32_t>(i / std::size(patterns) % 2));
  }
  std::vector<std::uint16_t> packed(input.size());
  plexus::simd::bf16_pack(input.data(), packed.data(), static_cast<std::int64_t>(input.size()));
  std::vector<float> widened(input.size());
  plexus::simd::bf16_unpack(packed.data(), widened.data(),
                            static_cast<std::int64_t>(widened.size()));

  for (const auto wire : {pc::WirePrecision::Fp32, pc::WirePrecision::Bf16}) {
    for (const int budget : {0, 1}) {
      pc::ScopedCommThreads scoped(budget);
      pc::World world(2);
      const pc::GroupId solo[] = {world.create_group({0}), world.create_group({1})};
      std::vector<std::vector<float>> out(2);
      std::vector<double> zero(2);
      psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
        ctx.comm.set_wire_precision(wire);
        const auto r = static_cast<std::size_t>(ctx.rank());
        out[r] = input;
        ctx.comm.all_reduce_sum<float>(solo[r], out[r]);
        zero[r] = ctx.comm.all_reduce_sum_scalar(solo[r], -0.0);
      });
      const auto& want = wire == pc::WirePrecision::Fp32 ? input : widened;
      for (std::size_t r = 0; r < 2; ++r) {
        EXPECT_EQ(bits(out[r]), bits(want))
            << pc::wire_precision_name(wire) << " budget " << budget << " rank " << r;
        EXPECT_TRUE(std::signbit(zero[r])) << "scalar -0.0 must keep its sign, rank " << r;
      }
    }
  }
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
