// Tests for the scale-out cost models of Plexus and the baseline frameworks
// (BNS-GCN, CAGNET SA): the structural curves and epoch-time models that
// fig8 and fig9 rest on must reproduce the behaviours the paper describes.
#include <gtest/gtest.h>

#include "baselines/costmodels.hpp"
#include "graph/datasets.hpp"
#include "sim/machine.hpp"

namespace pb = plexus::base;
namespace pg = plexus::graph;
namespace psim = plexus::sim;

TEST(CostModels, StructuralCurvesBehave) {
  const auto proxy = pg::make_proxy(pg::dataset_info("products-14M"), 4000, 9);
  const auto curves = pb::measure_structural_curves(proxy, {2, 4, 8, 16}, 5);
  // Expansion grows with parts and exceeds 1.
  EXPECT_GT(curves.expansion(32), curves.expansion(8));
  EXPECT_GT(curves.expansion(8), 1.0);
  // SA received fraction is in (0, 1] and does not shrink fast.
  EXPECT_GT(curves.sa_recv_fraction(16), 0.0);
  EXPECT_LE(curves.sa_recv_fraction(1024), 1.0);
}

TEST(CostModels, BnsVsPlexusCrossover) {
  // Figure 8/9 shape on products-14M: BNS-GCN wins at small scale (fine-
  // grained halo traffic beats dense all-reduces), Plexus wins at large scale.
  const auto& m = psim::Machine::perlmutter_a100();
  const auto& info = pg::dataset_info("products-14M");
  const auto curves = pb::calibrated_curves(info, 5);

  const double bns_small = pb::bnsgcn_epoch(m, info, 16, curves).total();
  const double plx_small = pb::plexus_epoch(m, info, 16).total();
  const double bns_large = pb::bnsgcn_epoch(m, info, 512, curves).total();
  const double plx_large = pb::plexus_epoch(m, info, 512).total();
  EXPECT_LT(bns_small, plx_small);
  EXPECT_LT(plx_large, bns_large);
}

TEST(CostModels, PlexusScalesFurther) {
  const auto& m = psim::Machine::perlmutter_a100();
  const auto& info = pg::dataset_info("ogbn-papers100M");
  const double t256 = pb::plexus_epoch(m, info, 256).total();
  const double t1024 = pb::plexus_epoch(m, info, 1024).total();
  EXPECT_LT(t1024, t256);
}

TEST(CostModels, PaperReportedFailures) {
  EXPECT_TRUE(pb::paper_reported_status("SA", "Isolate-3-8M", 16).has_value());
  EXPECT_TRUE(pb::paper_reported_status("BNS-GCN", "ogbn-papers100M", 64).has_value());
  EXPECT_FALSE(pb::paper_reported_status("BNS-GCN", "Reddit", 16).has_value());
  EXPECT_FALSE(pb::paper_reported_status("Plexus", "ogbn-papers100M", 2048).has_value());
}
