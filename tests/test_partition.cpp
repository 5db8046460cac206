// Tests for the partitioners (Fennel/METIS surrogate, nnz-balanced/GVB
// surrogate) and the boundary statistics the cost models' structural
// curves are measured with.
#include <gtest/gtest.h>

#include <numeric>

#include "graph/datasets.hpp"
#include "partition/partitioner.hpp"
#include "sparse/csr.hpp"

namespace pp = plexus::part;
namespace pg = plexus::graph;
namespace ps = plexus::sparse;

namespace {

pg::Graph community_test_graph() {
  return pg::make_proxy(pg::dataset_info("Isolate-3-8M"), 2000, 3);
}

}  // namespace

class PartCounts : public ::testing::TestWithParam<int> {};

TEST_P(PartCounts, FennelProducesValidBalancedPartition) {
  const int parts = GetParam();
  const auto g = community_test_graph();
  const auto p = pp::fennel_partition(g.adjacency(), parts, 5);
  ASSERT_EQ(static_cast<std::int64_t>(p.assignment.size()), g.num_nodes);
  const auto sizes = p.part_sizes();
  ASSERT_EQ(sizes.size(), static_cast<std::size_t>(parts));
  const auto total = std::accumulate(sizes.begin(), sizes.end(), std::int64_t{0});
  EXPECT_EQ(total, g.num_nodes);
  const double target = static_cast<double>(g.num_nodes) / parts;
  for (const auto s : sizes) {
    EXPECT_LE(static_cast<double>(s), 1.15 * target + 2);  // balance slack
    EXPECT_GT(s, 0);
  }
}

TEST_P(PartCounts, FennelBeatsRandomOnEdgeCut) {
  const int parts = GetParam();
  if (parts < 2) return;
  const auto g = community_test_graph();
  const auto adj = g.adjacency();
  const auto fennel_cut = pp::edge_cut(adj, pp::fennel_partition(adj, parts, 5));
  const auto random_cut = pp::edge_cut(adj, pp::random_partition(g.num_nodes, parts, 5));
  EXPECT_LT(static_cast<double>(fennel_cut), 0.8 * static_cast<double>(random_cut));
}

INSTANTIATE_TEST_SUITE_P(Counts, PartCounts, ::testing::Values(2, 4, 8, 16));

TEST(Partition, NnzBalanced) {
  const auto g = pg::make_proxy(pg::dataset_info("ogbn-products"), 3000, 4);
  const auto adj = g.adjacency();
  const auto p = pp::nnz_balanced_partition(adj, 8);
  // Contiguous and nnz-balanced: per-part nnz within 2x of each other even on
  // a power-law graph (uniform row blocks would be far worse).
  std::vector<std::int64_t> nnz(8, 0);
  for (std::int64_t v = 0; v < adj.rows(); ++v) {
    nnz[static_cast<std::size_t>(p.assignment[static_cast<std::size_t>(v)])] += adj.row_nnz(v);
    if (v > 0) {
      EXPECT_GE(p.assignment[static_cast<std::size_t>(v)],
                p.assignment[static_cast<std::size_t>(v - 1)]);  // contiguous
    }
  }
  const auto mx = *std::max_element(nnz.begin(), nnz.end());
  const auto mn = *std::min_element(nnz.begin(), nnz.end());
  EXPECT_LT(static_cast<double>(mx), 2.5 * static_cast<double>(std::max<std::int64_t>(mn, 1)));
}

TEST(Partition, EdgeCutOfTrivialPartitionIsZero) {
  const auto g = community_test_graph();
  EXPECT_EQ(pp::edge_cut(g.adjacency(), pp::fennel_partition(g.adjacency(), 1, 5)), 0);
}

TEST(Partition, BoundaryStatsGrowWithParts) {
  // The mechanism behind BNS-GCN's scaling cliff (section 7.1): total nodes
  // including boundary grows with partition count.
  const auto g = community_test_graph();
  const auto adj = g.adjacency();
  const auto s4 = pp::boundary_stats(adj, pp::fennel_partition(adj, 4, 5));
  const auto s16 = pp::boundary_stats(adj, pp::fennel_partition(adj, 16, 5));
  EXPECT_GT(s4.total_with_boundary, g.num_nodes);
  EXPECT_GT(s16.total_with_boundary, s4.total_with_boundary);
  EXPECT_GT(s16.expansion_factor(g.num_nodes), 1.05);
}

TEST(Partition, BoundaryStatsExactOnPath) {
  // Path 0-1-2-3 split {0,1} | {2,3}: each part has exactly one halo node.
  ps::Coo coo;
  coo.num_rows = 4;
  coo.num_cols = 4;
  for (std::int64_t v = 0; v + 1 < 4; ++v) {
    coo.push(v, v + 1, 1.0f);
    coo.push(v + 1, v, 1.0f);
  }
  const auto adj = ps::Csr::from_coo(coo, false);
  pp::Partitioning p;
  p.num_parts = 2;
  p.assignment = {0, 0, 1, 1};
  const auto s = pp::boundary_stats(adj, p);
  EXPECT_EQ(s.boundary[0], 1);  // part 0 needs node 2
  EXPECT_EQ(s.boundary[1], 1);  // part 1 needs node 1
  EXPECT_EQ(s.total_with_boundary, 6);
  EXPECT_EQ(pp::edge_cut(adj, p), 1);
}
