#pragma once
/// \file rmat_shards.hpp
/// Chunked RMAT generation straight to disk (ROADMAP item 2): generate,
/// normalise, permute and 2D-shard a power-law proxy graph without ever
/// materialising the full COO / CSR in memory. The output directory is
/// byte-identical to
///
///   write_sharded_plexus_dataset(preprocess_graph(make_proxy(...), ...))
///
/// at overlapping scales — the property the streaming-epoch loss gate rests
/// on — but peak memory is O(nodes) arrays (degrees, permutations, labels)
/// plus bounded sort chunks, never O(edges).
///
/// Edges come from the `graph::RmatAttempts` stream `graph::rmat` draws from,
/// deduplicated by external sort instead of a hash set. Only a prefix of the
/// stream is replayed: about 1.25 * target_edges attempts, doubled until the
/// prefix holds target_edges distinct keys, and never past the cap of
/// RmatAttempts::kCapPerEdge * target_edges. That is exact. graph::rmat
/// accepts the first target_edges distinct keys in attempt order, and once a
/// prefix holds that many, those keys all appear inside it, so attempts past
/// the prefix cannot change the accepted set. A stream with fewer distinct
/// keys within the cap is replayed to the cap, where graph::rmat stops too.

#include <cstdint>
#include <string>

#include "graph/datasets.hpp"

namespace plexus::graph {

struct RmatShardsSpec {
  // Graph shape — the exact `rmat` generator parameters.
  int scale = 20;                  ///< log2(#nodes)
  std::int64_t target_edges = 0;   ///< unique undirected edges to accept
  double a = 0.57;
  double b = 0.19;
  double c = 0.19;
  double d = 0.05;
  std::uint64_t seed = 1;
  std::int64_t feature_dim = 32;
  std::int64_t num_classes = 16;
  float label_signal = 0.5f;       ///< make_proxy uses 0.5

  // Preprocess knobs, mirroring core::preprocess_graph without pulling the
  // graph into memory. `scheme` carries core::PermutationScheme as an int
  // (0 none, 1 single, 2 double) so graph/ stays below core/ in the layering.
  int scheme = 2;
  int num_layers = 3;
  std::int64_t pad_multiple = 1;
  std::uint64_t preprocess_seed = 7;

  // Shard layout and out-of-core budgets.
  int parts = 1;                      ///< block-file grid is parts x parts
  std::int64_t chunk_edges = 1 << 22; ///< records buffered before spilling
  std::string tmp_dir;                ///< spill directory (default: dir/.spill)
};

/// Fill the graph-shape fields exactly the way make_proxy does for the
/// power-law classes (Social / CoPurchase / Citation), so streaming
/// generation reproduces `make_proxy(info, target_nodes, seed)` bit for bit.
/// Preprocess/shard fields keep their defaults — set them from TrainOptions.
RmatShardsSpec proxy_shards_spec(const DatasetInfo& info, std::int64_t target_nodes,
                                 std::uint64_t seed);

struct RmatShardsResult {
  std::int64_t num_nodes = 0;
  std::int64_t padded_nodes = 0;
  std::int64_t num_edges = 0;        ///< accepted undirected edges
  std::int64_t attempts = 0;         ///< RmatAttempts replayed (at most the cap)
  std::int64_t adjacency_nnz = 0;    ///< nnz of the normalised adjacency
  std::int64_t bytes_written = 0;
  /// Most record and block bytes held at once, bounded above by summing the
  /// high-water marks of the buffers alive together (not their capacity).
  std::int64_t peak_buffer_bytes = 0;
};

/// Generate the dataset into `dir` (created if needed). Spill files live in
/// spec.tmp_dir (default `dir`/.spill) and are removed before returning, so
/// the directory holds exactly the write_sharded_plexus_dataset file set.
RmatShardsResult rmat_to_shards(const std::string& dir, const RmatShardsSpec& spec);

}  // namespace plexus::graph
