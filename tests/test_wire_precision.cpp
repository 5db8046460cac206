// The bf16 wire format (comm/transport.hpp WirePrecision): an explicit
// non-bitwise opt-in that packs fp32 collective payloads to bf16 at the
// transport boundary and accumulates in fp32 on fold. Contracts under test:
//   * bf16 halves the float wire bytes (<= 0.55x gate, matching CI's
//     perf-smoke threshold) while losses stay close to fp32;
//   * group-level semantics survive the rounding: broadcast and all-gather
//     deliver identical buffers on every member (the root's own copy
//     included), and bf16-exact values cross the wire exactly.
// The bf16 fold order itself is pinned against a serial reference in
// test_transport.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/world.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"

namespace pc = plexus::core;
namespace pm = plexus::comm;
namespace pg = plexus::graph;
namespace psim = plexus::sim;

namespace {

pc::TrainOptions wire_options(pm::WirePrecision wire) {
  pc::TrainOptions opt;
  opt.grid = {2, 1, 2};
  opt.machine = &psim::Machine::test_machine();
  opt.model.hidden_dims = {16};
  opt.epochs = 3;
  opt.wire = wire;
  return opt;
}

const pg::Graph& wire_graph() {
  static const pg::Graph g = pg::make_test_graph(1024, 8.0, 32, 4, /*seed=*/3);
  return g;
}

}  // namespace

TEST(WirePrecision, NamesAndElementSizes) {
  EXPECT_STREQ(pm::wire_precision_name(pm::WirePrecision::Fp32), "fp32");
  EXPECT_STREQ(pm::wire_precision_name(pm::WirePrecision::Bf16), "bf16");
  EXPECT_EQ(pm::wire_elem_size(pm::WirePrecision::Fp32), 4u);
  EXPECT_EQ(pm::wire_elem_size(pm::WirePrecision::Bf16), 2u);
  pm::WirePrecision w = pm::WirePrecision::Fp32;
  EXPECT_TRUE(pm::wire_precision_from_string("bf16", w));
  EXPECT_EQ(w, pm::WirePrecision::Bf16);
  EXPECT_FALSE(pm::wire_precision_from_string("fp16", w));
}

TEST(WirePrecision, Bf16HalvesFloatWireBytesAndLossesStayClose) {
  const auto fp32 = pc::train_plexus(wire_graph(), wire_options(pm::WirePrecision::Fp32));
  const auto bf16 = pc::train_plexus(wire_graph(), wire_options(pm::WirePrecision::Bf16));
  ASSERT_EQ(fp32.epochs.size(), bf16.epochs.size());
  for (std::size_t e = 0; e < fp32.epochs.size(); ++e) {
    ASSERT_GT(fp32.epochs[e].comm_wire_bytes, 0.0);
    // The CI gate: <= 0.55x. This workload's collectives are all-float, so
    // the measured ratio is exactly 0.5.
    EXPECT_LE(bf16.epochs[e].comm_wire_bytes, 0.55 * fp32.epochs[e].comm_wire_bytes) << e;
    ASSERT_TRUE(std::isfinite(bf16.epochs[e].loss)) << e;
    EXPECT_NEAR(bf16.epochs[e].loss, fp32.epochs[e].loss,
                0.02 * std::fabs(fp32.epochs[e].loss))
        << e;
  }
  // Training still learns under the rounded wire.
  EXPECT_LT(bf16.epochs.back().loss, bf16.epochs.front().loss);
}

TEST(WirePrecision, CollectivesAgreeAcrossMembersUnderBf16) {
  constexpr int kRanks = 4;
  constexpr std::size_t kElems = 23;  // odd: exercises pack/unpack tails
  std::vector<std::vector<float>> bcast(kRanks), gathered(kRanks), reduced(kRanks);
  plexus::comm::World world(kRanks);
  psim::run_cluster(
      world, psim::Machine::test_machine(),
      [&](psim::RankContext& ctx) {
        ctx.comm.set_wire_precision(pm::WirePrecision::Bf16);
        const auto wg = ctx.comm.world().world_group();
        // Values exactly representable in bf16: they must cross unchanged.
        std::vector<float> buf(kElems);
        for (std::size_t i = 0; i < kElems; ++i) {
          buf[i] = 0.25f * static_cast<float>(i) * (ctx.rank() == 1 ? 1.0f : -2.0f);
        }
        ctx.comm.broadcast<float>(wg, buf, /*root=*/1);
        bcast[static_cast<std::size_t>(ctx.rank())] = buf;

        std::vector<float> mine(kElems, 1.5f + static_cast<float>(ctx.rank()));
        std::vector<float> all(kElems * kRanks);
        ctx.comm.all_gather<float>(wg, mine, all);
        gathered[static_cast<std::size_t>(ctx.rank())] = all;

        std::vector<float> sum(kElems, 0.5f);  // 4 * 0.5 = 2.0, bf16-exact
        ctx.comm.all_reduce_sum<float>(wg, sum);
        reduced[static_cast<std::size_t>(ctx.rank())] = sum;
      },
      /*enable_clock=*/false);
  for (int r = 0; r < kRanks; ++r) {
    for (std::size_t i = 0; i < kElems; ++i) {
      // Broadcast: every member (root included) holds the root's values.
      EXPECT_EQ(bcast[static_cast<std::size_t>(r)][i], 0.25f * static_cast<float>(i)) << r;
      EXPECT_EQ(reduced[static_cast<std::size_t>(r)][i], 2.0f) << r;
    }
    EXPECT_EQ(gathered[static_cast<std::size_t>(r)], gathered[0]) << r;
    for (int src = 0; src < kRanks; ++src) {
      EXPECT_EQ(gathered[static_cast<std::size_t>(r)][static_cast<std::size_t>(src) * kElems],
                1.5f + static_cast<float>(src))
          << r;
    }
  }
}
