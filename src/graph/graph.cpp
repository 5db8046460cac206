#include "graph/graph.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace plexus::graph {

sparse::Csr Graph::adjacency() const { return sparse::Csr::from_coo(edges, false); }

std::vector<std::int64_t> Graph::degrees() const {
  std::vector<std::int64_t> deg(static_cast<std::size_t>(num_nodes), 0);
  for (std::int64_t i = 0; i < edges.nnz(); ++i) {
    deg[static_cast<std::size_t>(edges.rows[static_cast<std::size_t>(i)])]++;
  }
  return deg;
}

std::int64_t Graph::train_count() const {
  std::int64_t c = 0;
  for (const auto m : train_mask) c += m != 0 ? 1 : 0;
  return c;
}

void Graph::validate() const {
  PLEXUS_CHECK(features.rows() == num_nodes, "features rows != num_nodes");
  PLEXUS_CHECK(static_cast<std::int64_t>(labels.size()) == num_nodes, "labels size");
  PLEXUS_CHECK(static_cast<std::int64_t>(train_mask.size()) == num_nodes, "train_mask size");
  PLEXUS_CHECK(static_cast<std::int64_t>(val_mask.size()) == num_nodes, "val_mask size");
  PLEXUS_CHECK(static_cast<std::int64_t>(test_mask.size()) == num_nodes, "test_mask size");
  for (const auto l : labels) {
    PLEXUS_CHECK(l >= 0 && l < num_classes, "label out of range");
  }
  for (std::int64_t i = 0; i < edges.nnz(); ++i) {
    const auto r = edges.rows[static_cast<std::size_t>(i)];
    const auto c = edges.cols[static_cast<std::size_t>(i)];
    PLEXUS_CHECK(r >= 0 && r < num_nodes && c >= 0 && c < num_nodes, "edge out of range");
    PLEXUS_CHECK(r != c, "self loop in raw edge list");
  }
  sparse::check_symmetric(adjacency(), "graph " + name);
}

dense::Matrix synthetic_features(std::int64_t num_nodes, std::int64_t dim,
                                 const std::vector<std::int32_t>& labels, float label_signal,
                                 std::uint64_t seed) {
  util::CounterRng rng(util::hash_combine(seed, 0xfea7));
  dense::Matrix f(num_nodes, dim);
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    float* row = f.row(i);
    for (std::int64_t k = 0; k < dim; ++k) {
      row[k] = rng.uniform_at(static_cast<std::uint64_t>(i * dim + k), -1.0f, 1.0f);
    }
    if (label_signal != 0.0f && !labels.empty()) {
      row[labels[static_cast<std::size_t>(i)] % dim] += label_signal;
    }
  }
  return f;
}

std::vector<std::int32_t> degree_based_labels(const std::vector<std::int64_t>& degrees,
                                              std::int64_t num_classes, std::uint64_t seed) {
  util::CounterRng rng(util::hash_combine(seed, 0x1abe1));
  std::vector<std::int32_t> labels(degrees.size());
  for (std::size_t i = 0; i < degrees.size(); ++i) {
    const double jitter = rng.uniform_at(static_cast<std::uint64_t>(i)) * 1.5;
    const double v = std::log2(static_cast<double>(degrees[i]) + 1.0) + jitter;
    labels[i] = static_cast<std::int32_t>(
        std::min<std::int64_t>(num_classes - 1, static_cast<std::int64_t>(v)));
  }
  return labels;
}

void make_split_masks(std::int64_t num_nodes, double train_frac, double val_frac,
                      std::uint64_t seed, std::vector<std::uint8_t>& train,
                      std::vector<std::uint8_t>& val, std::vector<std::uint8_t>& test) {
  train.assign(static_cast<std::size_t>(num_nodes), 0);
  val.assign(static_cast<std::size_t>(num_nodes), 0);
  test.assign(static_cast<std::size_t>(num_nodes), 0);
  util::CounterRng rng(util::hash_combine(seed, 0x5117));
  for (std::int64_t i = 0; i < num_nodes; ++i) {
    const double u = rng.uniform_at(static_cast<std::uint64_t>(i));
    if (u < train_frac) {
      train[static_cast<std::size_t>(i)] = 1;
    } else if (u < train_frac + val_frac) {
      val[static_cast<std::size_t>(i)] = 1;
    } else {
      test[static_cast<std::size_t>(i)] = 1;
    }
  }
}

}  // namespace plexus::graph
