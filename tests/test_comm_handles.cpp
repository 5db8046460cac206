// CommHandle lifecycle and nonblocking-collective semantics: overlap-derived
// exposed/hidden accounting (exact under any wait order via stall-interval
// tracking), link serialisation of in-flight collectives, wait-twice,
// drop-without-wait, comm-thread exception propagation, group-uniform scalar
// reductions, inline-mode (PLEXUS_COMM_THREADS=0) equivalence of the sim-time
// math, and the strict PLEXUS_COMM_THREADS parse.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "comm/communicator.hpp"
#include "comm/cost.hpp"
#include "comm/handle.hpp"
#include "comm/world.hpp"
#include "sim/cluster.hpp"
#include "sim/machine.hpp"

namespace pc = plexus::comm;
namespace psim = plexus::sim;

namespace {

void spmd(int size, const std::function<void(psim::RankContext&)>& fn) {
  pc::World world(size);
  psim::run_cluster(world, psim::Machine::test_machine(), fn);
}

double allreduce_cost(pc::World& w, std::int64_t bytes, int group_size) {
  return pc::collective_time(pc::Collective::AllReduce, bytes, group_size, w.group(0).link);
}

}  // namespace

TEST(CommHandles, FullyHiddenCollectiveChargesNothing) {
  spmd(2, [](psim::RankContext& ctx) {
    std::vector<float> buf{static_cast<float>(ctx.rank() + 1), 1.0f};
    const double full = allreduce_cost(ctx.comm.world(), 8, 2);
    ASSERT_GT(full, 0.0);
    auto h = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    ctx.comm.charge_compute(10.0 * full);  // compute strictly covers the op
    h.wait();
    EXPECT_EQ(buf[0], 3.0f);  // data moved — the sum really happened
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_seconds(), 0.0);
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_hidden_seconds(), full);
    EXPECT_DOUBLE_EQ(ctx.clock.time(), 10.0 * full);  // clock = compute only
  });
}

TEST(CommHandles, PartialOverlapChargesExposedTail) {
  spmd(2, [](psim::RankContext& ctx) {
    std::vector<float> buf(1024, 1.0f);
    const double full = allreduce_cost(ctx.comm.world(), 1024 * 4, 2);
    auto h = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    ctx.comm.charge_compute(0.25 * full);
    h.wait();
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_seconds(), 0.75 * full);
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_hidden_seconds(), 0.25 * full);
    EXPECT_DOUBLE_EQ(ctx.clock.time(), full);  // ends when the collective does
  });
}

TEST(CommHandles, InFlightCollectivesSerialiseOnTheLink) {
  // Two all-reduces posted back-to-back share the group's ring: the second
  // starts when the first finishes, so waiting both exposes 2 * T.
  spmd(2, [](psim::RankContext& ctx) {
    std::vector<float> a(256, 1.0f);
    std::vector<float> b(256, 2.0f);
    const double full = allreduce_cost(ctx.comm.world(), 256 * 4, 2);
    auto ha = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), a);
    auto hb = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), b);
    ha.wait();
    hb.wait();
    EXPECT_DOUBLE_EQ(ctx.clock.time(), 2.0 * full);
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_seconds(), 2.0 * full);
    EXPECT_EQ(a[0], 2.0f);
    EXPECT_EQ(b[0], 4.0f);
  });
}

TEST(CommHandles, ClocklessModeChargesCostModelTimePerOp) {
  // Functional-only mode (no SimClock): stats must charge exactly the
  // cost-model time per op — not the cumulative link-busy horizon.
  pc::World world(2);
  pc::CommStats stats0;
  plexus::sim::run_cluster(
      world, psim::Machine::test_machine(),
      [&](psim::RankContext& ctx) {
        std::vector<float> buf(512, 1.0f);
        for (int i = 0; i < 3; ++i) {
          ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
        }
        if (ctx.rank() == 0) stats0 = ctx.comm.stats();
      },
      /*enable_clock=*/false);
  const double full = allreduce_cost(world, 512 * 4, 2);
  EXPECT_DOUBLE_EQ(stats0.total_seconds(), 3.0 * full);
  EXPECT_DOUBLE_EQ(stats0.total_hidden_seconds(), 0.0);
}

TEST(CommHandles, DisjointGroupsOverlapInSimTime) {
  // Two groups over the same ranks have independent link-busy horizons: ops
  // posted back-to-back on *different* groups overlap in simulated time (the
  // clock ends at max, not sum), unlike the same-group case above.
  pc::World world(2);
  const auto g1 = world.create_group({0, 1});
  const auto g2 = world.create_group({0, 1});
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    ctx.comm.timeline().set_enabled(true);
    std::vector<float> a(256, 1.0f);
    std::vector<float> b(1024, 2.0f);
    const double full_a = allreduce_cost(ctx.comm.world(), 256 * 4, 2);
    const double full_b = allreduce_cost(ctx.comm.world(), 1024 * 4, 2);
    auto ha = ctx.comm.iall_reduce_sum<float>(g1, a);
    auto hb = ctx.comm.iall_reduce_sum<float>(g2, b);
    ha.wait();
    hb.wait();
    EXPECT_DOUBLE_EQ(ctx.clock.time(), std::max(full_a, full_b));  // not full_a + full_b
    EXPECT_EQ(a[0], 2.0f);
    EXPECT_EQ(b[0], 4.0f);
    // Both in-flight spans start at 0: they overlap on the sim timeline.
    using Kind = pc::TimelineSpan::Kind;
    int inflight_at_zero = 0;
    for (const auto& s : ctx.comm.timeline().spans()) {
      if (s.kind == Kind::CommInFlight && s.t0 == 0.0) ++inflight_at_zero;
    }
    EXPECT_EQ(inflight_at_zero, 2);
  });
}

TEST(CommHandles, OutOfOrderWaitMatchesFifoAccountingExactly) {
  // Stall-interval tracking makes hidden/exposed attribution independent of
  // wait order: the same post-and-compute schedule waited FIFO and waited
  // reversed must book identical totals (and the identical final clock).
  for (const int reversed : {0, 1}) {
    pc::World world(2);
    const auto g1 = world.create_group({0, 1});
    const auto g2 = world.create_group({0, 1});
    psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
      std::vector<float> a(512, 1.0f);
      std::vector<float> b(2048, 2.0f);
      const double full_a = allreduce_cost(ctx.comm.world(), 512 * 4, 2);
      auto ha = ctx.comm.iall_reduce_sum<float>(g1, a);
      auto hb = ctx.comm.iall_reduce_sum<float>(g2, b);
      ctx.comm.charge_compute(0.5 * full_a);  // partially covers both transfers
      if (reversed == 0) {
        ha.wait();
        hb.wait();
      } else {
        hb.wait();
        ha.wait();
      }
      const double full_b = allreduce_cost(ctx.comm.world(), 2048 * 4, 2);
      EXPECT_DOUBLE_EQ(ctx.clock.time(), std::max(full_a, full_b));
      EXPECT_DOUBLE_EQ(ctx.comm.stats().total_seconds(),
                       std::max(full_a, full_b) - 0.5 * full_a);
      // Each transfer interval starts at 0, so the same compute covers both.
      EXPECT_DOUBLE_EQ(ctx.comm.stats().total_hidden_seconds(), 2 * (0.5 * full_a));
    });
  }
}

TEST(CommHandles, ComputeAfterOpCompletionIsNeverHidden) {
  // The exactness the old compute-since-post cap lacked: compute charged
  // after an op's sim completion (here: after a wait on a *later-finishing*
  // op on another group advanced the clock past it) lies outside the
  // transfer interval and must not surface as hidden time.
  pc::World world(2);
  const auto g1 = world.create_group({0, 1});
  const auto g2 = world.create_group({0, 1});
  psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
    std::vector<float> a(256, 1.0f);
    std::vector<float> b(4096, 2.0f);  // much larger: finishes much later
    const double full_a = allreduce_cost(ctx.comm.world(), 256 * 4, 2);
    const double full_b = allreduce_cost(ctx.comm.world(), 4096 * 4, 2);
    ASSERT_GT(full_b, full_a);
    auto ha = ctx.comm.iall_reduce_sum<float>(g1, a);
    auto hb = ctx.comm.iall_reduce_sum<float>(g2, b);
    hb.wait();                          // clock -> full_b, past ha's completion
    ctx.comm.charge_compute(full_a);    // compute entirely after ha's transfer
    ha.wait();
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_hidden_seconds(), 0.0);
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_seconds(), full_b);
    EXPECT_DOUBLE_EQ(ctx.clock.time(), full_b + full_a);
  });
}

TEST(CommHandles, OutOfOrderWaitDoesNotFabricateHiddenTime) {
  // Waiting handles against post order: the clock advance caused by waiting
  // on a *later* op is wait-stall, not compute, and must not surface as
  // hidden time on the earlier op.
  spmd(2, [](psim::RankContext& ctx) {
    std::vector<float> a(256, 1.0f);
    std::vector<float> b(256, 2.0f);
    auto ha = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), a);
    auto hb = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), b);
    hb.wait();  // advances the clock past ha's completion
    ha.wait();
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_hidden_seconds(), 0.0);
    const double full = allreduce_cost(ctx.comm.world(), 256 * 4, 2);
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_seconds(), 2.0 * full);
  });
}

TEST(CommHandles, TestPollsWithoutCharging) {
  spmd(2, [](psim::RankContext& ctx) {
    std::vector<float> buf(64, 1.0f);
    auto h = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    // Both ranks posted, so the op completes; poll until it does. test() must
    // never advance the clock or stats.
    while (!h.test()) {
    }
    EXPECT_DOUBLE_EQ(ctx.comm.stats().total_seconds(), 0.0);
    EXPECT_EQ(ctx.comm.stats().entry(pc::Collective::AllReduce).calls, 0);
    h.wait();
    EXPECT_EQ(ctx.comm.stats().entry(pc::Collective::AllReduce).calls, 1);
  });
}

TEST(CommHandles, WaitTwiceChargesOnce) {
  spmd(2, [](psim::RankContext& ctx) {
    std::vector<float> buf(128, 1.0f);
    auto h = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    h.wait();
    const double t1 = ctx.clock.time();
    const auto calls1 = ctx.comm.stats().entry(pc::Collective::AllReduce).calls;
    h.wait();  // second wait: no-op
    EXPECT_DOUBLE_EQ(ctx.clock.time(), t1);
    EXPECT_EQ(ctx.comm.stats().entry(pc::Collective::AllReduce).calls, calls1);
  });
}

TEST(CommHandles, DropWithoutWaitCompletesDataButChargesNothing) {
  spmd(2, [](psim::RankContext& ctx) {
    std::vector<float> buf{static_cast<float>(ctx.rank() + 1)};
    {
      auto h = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), buf);
      // dropped un-waited: destructor completes the op (barriers stay matched)
    }
    EXPECT_EQ(buf[0], 3.0f);
    EXPECT_EQ(ctx.comm.stats().entry(pc::Collective::AllReduce).calls, 0);
    EXPECT_DOUBLE_EQ(ctx.clock.time(), 0.0);
    // The group is still usable afterwards.
    std::vector<float> again{1.0f};
    ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), again);
    EXPECT_EQ(again[0], 2.0f);
  });
}

TEST(CommHandles, ExceptionFromCommThreadPropagatesAtWait) {
  spmd(1, [](psim::RankContext& ctx) {
    auto h = ctx.comm.icall([] { throw std::runtime_error("comm-thread boom"); });
    EXPECT_THROW(h.wait(), std::runtime_error);
    // The error was consumed by the first wait; a second wait is benign.
    EXPECT_NO_THROW(h.wait());
    // The comm thread survived the exception and keeps processing ops.
    std::vector<float> buf{2.0f};
    ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    EXPECT_EQ(buf[0], 2.0f);
  });
}

TEST(CommHandles, ExceptionOnDroppedHandleIsSwallowed) {
  spmd(1, [](psim::RankContext& ctx) {
    { auto h = ctx.comm.icall([] { throw std::runtime_error("dropped"); }); }
    std::vector<float> buf{1.0f};
    ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    EXPECT_EQ(buf[0], 1.0f);
  });
}

TEST(CommHandles, IcallRunsInPostOrderWithCollectives) {
  spmd(1, [](psim::RankContext& ctx) {
    std::vector<int> order;
    auto h1 = ctx.comm.icall([&] { order.push_back(1); });
    auto h2 = ctx.comm.icall([&] { order.push_back(2); });
    auto h3 = ctx.comm.icall([&] { order.push_back(3); });
    h3.wait();  // FIFO engine: op 3 done implies 1 and 2 ran before it
    h1.wait();
    h2.wait();
    ASSERT_EQ(order.size(), 3u);
    EXPECT_EQ(order[0], 1);
    EXPECT_EQ(order[1], 2);
    EXPECT_EQ(order[2], 3);
  });
}

TEST(CommHandles, PipelinedBlocksMatchBlockingBitwise) {
  // A miniature blocked aggregation: 4 row blocks, each all-reduced over the
  // group. Pipelined (post all, wait all) must produce bitwise the same sums
  // as blocking (post + wait each), and expose less simulated time when the
  // compute between posts covers part of the collectives.
  constexpr int kBlocks = 4;
  constexpr std::size_t kBlockElems = 512;
  std::vector<std::vector<float>> blocking(2), pipelined(2);
  std::vector<double> exposed_blocking(2), exposed_pipelined(2);

  for (int mode = 0; mode < 2; ++mode) {
    spmd(2, [&, mode](psim::RankContext& ctx) {
      std::vector<float> data(kBlocks * kBlockElems);
      for (std::size_t i = 0; i < data.size(); ++i) {
        data[i] = static_cast<float>(ctx.rank() + 1) * 0.25f + static_cast<float>(i % 37);
      }
      const double full = allreduce_cost(ctx.comm.world(), kBlockElems * 4, 2);
      std::vector<pc::CommHandle> handles;
      for (int k = 0; k < kBlocks; ++k) {
        ctx.comm.charge_compute(0.5 * full);  // the "SpMM" of block k
        std::span<float> blk{data.data() + static_cast<std::size_t>(k) * kBlockElems,
                             kBlockElems};
        auto h = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), blk);
        if (mode == 0) {
          h.wait();  // blocking schedule
        } else {
          handles.push_back(std::move(h));  // pipelined schedule
        }
      }
      for (auto& h : handles) h.wait();
      auto& out = mode == 0 ? blocking : pipelined;
      auto& exp = mode == 0 ? exposed_blocking : exposed_pipelined;
      out[static_cast<std::size_t>(ctx.rank())] = data;
      exp[static_cast<std::size_t>(ctx.rank())] = ctx.comm.stats().total_seconds();
    });
  }
  for (int r = 0; r < 2; ++r) {
    ASSERT_EQ(blocking[static_cast<std::size_t>(r)].size(),
              pipelined[static_cast<std::size_t>(r)].size());
    for (std::size_t i = 0; i < blocking[static_cast<std::size_t>(r)].size(); ++i) {
      EXPECT_EQ(blocking[static_cast<std::size_t>(r)][i], pipelined[static_cast<std::size_t>(r)][i])
          << "rank " << r << " elem " << i;  // bitwise
    }
    EXPECT_LT(exposed_pipelined[static_cast<std::size_t>(r)],
              exposed_blocking[static_cast<std::size_t>(r)])
        << "rank " << r;
  }
}

TEST(CommHandles, SimTimeIsIdenticalInlineAndOnTheCommThread) {
  // The sim-time math is derived from post clocks + the cost model, never
  // from real execution order: inline mode (budget 0) and the FIFO comm
  // thread (1) must produce identical clocks and stats on a schedule that
  // mixes two groups with partially-hidden collectives.
  auto run = [](int budget, double* clock_out, pc::CommStats* stats_out) {
    pc::ScopedCommThreads scoped(budget);
    pc::World world(2);
    const auto g1 = world.create_group({0, 1});
    const auto g2 = world.create_group({0, 1});
    psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
      std::vector<float> buf(2048, 1.0f);
      std::vector<float> other(512, 2.0f);
      const double full = allreduce_cost(ctx.comm.world(), 2048 * 4, 2);
      auto h = ctx.comm.iall_reduce_sum<float>(g1, buf);
      auto h2 = ctx.comm.iall_reduce_sum<float>(g2, other);
      ctx.comm.charge_compute(0.5 * full);
      h.wait();
      h2.wait();
      ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
      if (ctx.rank() == 0) {
        *clock_out = ctx.clock.time();
        *stats_out = ctx.comm.stats();
      }
    });
  };
  double clock_ref = 0.0;
  double clock_inline = 0.0;
  pc::CommStats stats_ref;
  pc::CommStats stats_inline;
  run(1, &clock_ref, &stats_ref);
  run(0, &clock_inline, &stats_inline);
  EXPECT_DOUBLE_EQ(clock_inline, clock_ref);
  EXPECT_DOUBLE_EQ(stats_inline.total_seconds(), stats_ref.total_seconds());
  EXPECT_DOUBLE_EQ(stats_inline.total_hidden_seconds(), stats_ref.total_hidden_seconds());
  EXPECT_EQ(stats_inline.total_bytes(), stats_ref.total_bytes());
}

TEST(CommHandles, TimelineRecordsComputeInFlightAndExposedSpans) {
  spmd(2, [](psim::RankContext& ctx) {
    ctx.comm.timeline().set_enabled(true);
    std::vector<float> buf(4096, 1.0f);
    const double full = allreduce_cost(ctx.comm.world(), 4096 * 4, 2);
    auto h = ctx.comm.iall_reduce_sum<float>(ctx.comm.world().world_group(), buf);
    ctx.comm.charge_compute(0.5 * full);
    h.wait();
    const auto& tl = ctx.comm.timeline();
    using Kind = pc::TimelineSpan::Kind;
    EXPECT_DOUBLE_EQ(tl.total(Kind::Compute), 0.5 * full);
    EXPECT_DOUBLE_EQ(tl.total(Kind::CommInFlight), full);
    EXPECT_DOUBLE_EQ(tl.total(Kind::CommExposed), 0.5 * full);
  });
}

TEST(CommHandles, ScalarReductionsAndBlockingOpsShareTheHandlePath) {
  // Scalar reductions are one-element all-reduces on the handle path; a
  // straggler's clock still dominates, exactly as in the blocking-only design.
  spmd(2, [](psim::RankContext& ctx) {
    if (ctx.rank() == 1) ctx.comm.charge_compute(2.0);
    const double mx =
        ctx.comm.all_reduce_max_scalar(ctx.comm.world().world_group(), 1.0 + ctx.rank());
    EXPECT_DOUBLE_EQ(mx, 2.0);
    const double t_coll =
        pc::collective_time(pc::Collective::AllReduce, 8, 2, ctx.comm.world().group(0).link);
    EXPECT_NEAR(ctx.clock.time(), 2.0 + t_coll, 1e-12);
  });
}

TEST(CommHandles, ScalarReductionsAreGroupUniform) {
  // Every member folds the same contributions member 0 first, so the scalar
  // reductions return the same bits on every member — also where max depends
  // on the fold order bit for bit (signed zeros, a NaN input).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<std::vector<double>> cases = {
      {-0.0, +0.0}, {1.0, nan}, {+0.0, -0.0, +0.0}, {nan, 1.0, 2.0}};
  for (const auto& in : cases) {
    const std::size_t size = in.size();
    std::vector<std::uint64_t> mx(size), sum(size);
    spmd(static_cast<int>(size), [&](psim::RankContext& ctx) {
      const auto r = static_cast<std::size_t>(ctx.rank());
      const pc::GroupId wg = ctx.comm.world().world_group();
      mx[r] = std::bit_cast<std::uint64_t>(ctx.comm.all_reduce_max_scalar(wg, in[r]));
      sum[r] = std::bit_cast<std::uint64_t>(ctx.comm.all_reduce_sum_scalar(wg, in[r]));
    });
    // The serial left fold the data all-reduces use: acc = v0; acc op= v1; ...
    double want_max = in[0];
    double want_sum = in[0];
    for (std::size_t m = 1; m < size; ++m) {
      want_max = std::max(want_max, in[m]);
      want_sum += in[m];
    }
    for (std::size_t r = 0; r < size; ++r) {
      EXPECT_EQ(mx[r], std::bit_cast<std::uint64_t>(want_max))
          << "max, case of " << size << " ranks starting " << in[0] << ", rank " << r;
      EXPECT_EQ(sum[r], std::bit_cast<std::uint64_t>(want_sum))
          << "sum, case of " << size << " ranks starting " << in[0] << ", rank " << r;
    }
  }
}

TEST(CommHandles, ResetLinkTimeAllowsWorldReuse) {
  // Reusing one World across sessions whose clocks restart at 0: without
  // reset_link_time() the stale link-busy horizon would be booked as exposed
  // time by the first collective of the second session.
  pc::World world(2);
  auto session = [&world]() {
    double clock0 = 0.0;
    psim::run_cluster(world, psim::Machine::test_machine(), [&](psim::RankContext& ctx) {
      std::vector<float> buf(1024, 1.0f);
      ctx.comm.all_reduce_sum<float>(ctx.comm.world().world_group(), buf);
      if (ctx.rank() == 0) clock0 = ctx.clock.time();
    });
    return clock0;
  };
  const double first = session();
  EXPECT_GT(first, 0.0);
  world.reset_link_time();
  EXPECT_DOUBLE_EQ(session(), first);  // fresh session, identical timing
}

TEST(PipelineDepth, RuleBalancesComputeAgainstRingTime) {
  // Nothing to pipeline: one block, or a free collective.
  EXPECT_EQ(pc::choose_pipeline_depth(1.0, 1.0, 1), 1);
  EXPECT_EQ(pc::choose_pipeline_depth(1.0, 0.0, 8), 1);
  // Compute-bound: one spare slot plus slack hides everything.
  EXPECT_EQ(pc::choose_pipeline_depth(1.0, 0.5, 8), 3);
  EXPECT_EQ(pc::choose_pipeline_depth(2.0, 0.01, 8), 3);
  // Comm-bound: lookahead grows with the ring/compute ratio.
  EXPECT_EQ(pc::choose_pipeline_depth(1.0, 2.5, 8), 5);
  EXPECT_EQ(pc::choose_pipeline_depth(1.0, 1.5, 8), 4);
  // Clamped to the block count and the hard cap.
  EXPECT_EQ(pc::choose_pipeline_depth(1.0, 3.0, 4), 4);
  EXPECT_EQ(pc::choose_pipeline_depth(0.001, 10.0, 64), 8);
  EXPECT_EQ(pc::choose_pipeline_depth(0.0, 1.0, 8), 8);  // no compute to hide behind
  // Monotone in the ratio.
  int prev = 0;
  for (const double ring : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    const int d = pc::choose_pipeline_depth(1.0, ring, 16);
    EXPECT_GE(d, prev);
    prev = d;
  }
}

TEST(CommHandles, WaitOnEmptyHandleThrows) {
  pc::CommHandle h;
  EXPECT_FALSE(h.valid());
  EXPECT_FALSE(h.test());
  EXPECT_THROW(h.wait(), std::runtime_error);
}

TEST(CommThreads, MalformedEnvIsIgnored) {
  // PLEXUS_COMM_THREADS is 0 (inline) or 1 (the comm thread). Anything else —
  // a larger count, trailing garbage, a sign, a leading space — logs a
  // warning and reads as the default 1 instead of being clamped or read as a
  // prefix.
  ASSERT_EQ(pc::comm_thread_override(), -1);
  const char* prev = std::getenv("PLEXUS_COMM_THREADS");
  const std::optional<std::string> saved =
      prev != nullptr ? std::optional<std::string>(prev) : std::nullopt;
  for (const auto& [value, want] : {std::pair{"0", 0}, std::pair{"1", 1}}) {
    ::setenv("PLEXUS_COMM_THREADS", value, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(pc::comm_thread_budget(), want) << value;
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "") << value;
  }
  for (const char* bad : {"4", "1x", "-1", " 1"}) {
    ::setenv("PLEXUS_COMM_THREADS", bad, 1);
    testing::internal::CaptureStderr();
    EXPECT_EQ(pc::comm_thread_budget(), 1) << bad;
    EXPECT_NE(testing::internal::GetCapturedStderr().find("PLEXUS_COMM_THREADS"),
              std::string::npos)
        << bad;
  }
  // An explicit override still wins over the environment.
  {
    pc::ScopedCommThreads scoped(0);
    EXPECT_EQ(pc::comm_thread_budget(), 0);
  }
  EXPECT_EQ(pc::comm_thread_override(), -1);
  if (saved) {
    ::setenv("PLEXUS_COMM_THREADS", saved->c_str(), 1);
  } else {
    ::unsetenv("PLEXUS_COMM_THREADS");
  }
}
