#include "core/preprocess.hpp"

#include <algorithm>

#include "sparse/partition2d.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plexus::core {

const char* scheme_name(PermutationScheme s) {
  switch (s) {
    case PermutationScheme::None: return "original";
    case PermutationScheme::Single: return "single-permutation";
    case PermutationScheme::Double: return "double-permutation";
  }
  return "?";
}

namespace {

std::int64_t round_up(std::int64_t v, std::int64_t multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

}  // namespace

PlexusDataset preprocess_graph(const graph::Graph& g, PermutationScheme scheme, int num_layers,
                               std::int64_t pad_multiple, std::uint64_t seed) {
  PLEXUS_CHECK(num_layers >= 1, "need at least one layer");
  PLEXUS_CHECK(pad_multiple >= 1, "pad_multiple must be positive");

  PlexusDataset out;
  out.scheme = scheme;
  out.num_nodes = g.num_nodes;
  out.padded_nodes = round_up(g.num_nodes, pad_multiple);
  out.feature_dim = g.feature_dim();
  out.padded_feature_dim = round_up(g.feature_dim(), pad_multiple);
  out.num_classes = g.num_classes;
  out.train_total = g.train_count();

  // Normalised adjacency at padded size (padded tail has no entries).
  sparse::Coo padded_edges = g.edges;
  padded_edges.num_rows = out.padded_nodes;
  padded_edges.num_cols = out.padded_nodes;
  const sparse::Csr normalized =
      sparse::normalize_adjacency(sparse::Csr::from_coo(padded_edges, false), g.num_nodes);

  // Permutations over the padded index space: padding rows scatter uniformly,
  // which keeps per-shard *active* row counts balanced too.
  const auto perms = util::scheme_permutations(static_cast<int>(scheme), out.padded_nodes, seed);
  const auto& p_r = perms.rows;
  const auto& p_c = perms.cols;

  out.adj_even = normalized.permuted(p_r, p_c);  // P_r A~ P_c^T  (eq. 5.3)
  if (scheme == PermutationScheme::Double) {
    out.adj_odd = normalized.permuted(p_c, p_r);  // P_c A~ P_r^T (eq. 5.4)
  } else {
    out.adj_odd = out.adj_even;
  }

  // Features live in the input (column) permutation: layer 0 computes
  // (P_r A P_c^T)(P_c F) per eq. 5.3.
  out.features = dense::Matrix(out.padded_nodes, out.padded_feature_dim);
  for (std::int64_t u = 0; u < g.num_nodes; ++u) {
    const auto dst = p_c[static_cast<std::size_t>(u)];
    std::copy(g.features.row(u), g.features.row(u) + g.feature_dim(), out.features.row(dst));
  }

  // Labels and masks follow the final layer's output row order.
  const auto& p_out = perms.output(num_layers);
  out.labels.assign(static_cast<std::size_t>(out.padded_nodes), 0);
  out.train_mask.assign(static_cast<std::size_t>(out.padded_nodes), 0);
  out.val_mask.assign(static_cast<std::size_t>(out.padded_nodes), 0);
  out.test_mask.assign(static_cast<std::size_t>(out.padded_nodes), 0);
  for (std::int64_t u = 0; u < g.num_nodes; ++u) {
    const auto dst = static_cast<std::size_t>(p_out[static_cast<std::size_t>(u)]);
    out.labels[dst] = g.labels[static_cast<std::size_t>(u)];
    out.train_mask[dst] = g.train_mask[static_cast<std::size_t>(u)];
    out.val_mask[dst] = g.val_mask[static_cast<std::size_t>(u)];
    out.test_mask[dst] = g.test_mask[static_cast<std::size_t>(u)];
  }
  return out;
}

double scheme_imbalance(const graph::Graph& g, PermutationScheme scheme, std::int64_t grid_rows,
                        std::int64_t grid_cols, std::uint64_t seed) {
  const auto ds = preprocess_graph(g, scheme, /*num_layers=*/1,
                                   /*pad_multiple=*/grid_rows * grid_cols, seed);
  return sparse::grid_imbalance(ds.adj_even, grid_rows, grid_cols).max_over_mean;
}

}  // namespace plexus::core
