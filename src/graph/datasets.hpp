#pragma once
/// \file datasets.hpp
/// Registry of the six evaluation datasets (paper Table 4) and construction of
/// scaled-down synthetic *proxies*.
///
/// The real datasets (Reddit, OGB, HipMCL, SuiteSparse) are not redistributable
/// here and exceed this machine, so each entry records the paper's exact
/// statistics (used verbatim by the analytic performance model for full-scale
/// results) plus a structural class that selects a generator for functional
/// runs at reduced scale. Proxies preserve average degree and ordering
/// locality, which is what the paper's load-balance and scaling phenomena
/// depend on.

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace plexus::graph {

enum class GraphClass {
  Social,         ///< Reddit: dense community structure
  CoPurchase,     ///< ogbn-products / products-14M: power-law
  Citation,       ///< ogbn-papers100M: power-law, sparse
  ProteinSim,     ///< Isolate-3-8M: dense overlapping clusters
  RoadNetwork,    ///< europe_osm: near-lattice, huge diameter
};

struct DatasetInfo {
  std::string name;
  std::int64_t num_nodes = 0;
  std::int64_t num_edges = 0;     ///< directed edge count as reported
  std::int64_t num_nonzeros = 0;  ///< nnz of the preprocessed adjacency
  std::int64_t feature_dim = 0;
  std::int64_t num_classes = 0;
  GraphClass kind = GraphClass::Social;

  double avg_degree() const {
    return static_cast<double>(num_edges) / static_cast<double>(num_nodes);
  }
};

/// The six Table 4 datasets in paper order.
const std::vector<DatasetInfo>& paper_datasets();

/// Lookup by name; throws if unknown.
const DatasetInfo& dataset_info(const std::string& name);

/// Build a synthetic proxy graph for `info` with about `target_nodes` nodes
/// (generator granularity may round this), matching average degree, feature
/// dim, class count, and ordering locality. Labels follow the paper's recipe
/// for datasets without provided labels (degree-distribution based).
Graph make_proxy(const DatasetInfo& info, std::int64_t target_nodes, std::uint64_t seed);

/// Small deterministic random graph for unit tests (features carry a label
/// signal so short training runs show loss decrease).
Graph make_test_graph(std::int64_t num_nodes, double avg_degree, std::int64_t feature_dim,
                      std::int64_t num_classes, std::uint64_t seed);

}  // namespace plexus::graph
