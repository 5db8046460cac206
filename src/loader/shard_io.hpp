#pragma once
/// \file shard_io.hpp
/// Offline 2D-sharded dataset files and the parallel data loader (paper
/// section 5.4).
///
/// Preprocessing writes the adjacency as an R x C grid of CSR block files and
/// the features as R row-block files. A rank that needs rows [r0, r1) and
/// columns [c0, c1) of the adjacency opens only the intersecting block files
/// and concatenates its exact shard out of their rows — instead of loading
/// the whole dataset into host memory first (the naive loader, also provided for the
/// comparison the paper reports: 146 GB -> 9 GB and 139 s -> 7 s for
/// ogbn-papers100M on 64 GPUs with 16 x 16 shards).
///
/// This is the only code that knows the block-file layout: the in-memory
/// and the streaming generators write through the writers below, and every
/// adjacency reader parses through parse_adjacency_block.

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "dense/matrix.hpp"
#include "loader/mapped_block.hpp"
#include "sparse/csr.hpp"

namespace plexus::io {

struct ShardedMeta {
  std::int64_t num_nodes = 0;
  std::int64_t feature_dim = 0;
  std::int64_t num_classes = 0;
  std::int32_t grid_rows = 0;
  std::int32_t grid_cols = 0;
  std::int64_t adjacency_nnz = 0;
};

/// Accounting for one load operation.
struct LoadStats {
  std::int64_t bytes_read = 0;
  std::int64_t files_opened = 0;
  std::int64_t peak_host_bytes = 0;  ///< high-water mark of buffered data
  double seconds = 0.0;
};

/// Trainer-level dataset scalars (written by the distributed driver's
/// preprocess step, `core::write_sharded_plexus_dataset`) that ride alongside
/// ShardedMeta: the ShardedMeta shapes describe the *padded* matrices the
/// block files carry, these record what is real inside the padding.
struct PlexusShardMeta {
  std::int64_t valid_nodes = 0;        ///< un-padded node count
  std::int64_t valid_feature_dim = 0;  ///< un-padded feature width
  std::int64_t train_total = 0;        ///< number of training nodes
  std::int32_t scheme = 0;             ///< core::PermutationScheme as int
  /// Adjacency versions the layers read: 2 under Double permutation, else 1.
  /// Only "adj" is stored; readers derive version 1 as its transpose.
  std::int32_t adjacency_versions = 1;
};

/// Per-split node masks (one byte per padded node).
struct ShardedMasks {
  std::vector<std::uint8_t> train;
  std::vector<std::uint8_t> val;
  std::vector<std::uint8_t> test;
};

/// Orientation of an adjacency block or window: rows of A as the files
/// store them, or rows of A^T (the backward pass's source).
enum class Orientation { Rows, Transposed };

/// One validated adjacency block in one orientation: its place in A (Rows)
/// or in A^T (Transposed) and its CSR arrays, whose column indices are
/// block-local and strictly ascending within each row. Copies share
/// `storage`, which keeps the spans valid: the file mapping for a Rows block,
/// the arrays transpose_adjacency_block built for a Transposed one.
struct AdjacencyBlock {
  std::int64_t row0 = 0;
  std::int64_t col0 = 0;
  std::int64_t rows = 0;
  std::int64_t cols = 0;
  std::span<const std::int64_t> row_ptr;  ///< rows + 1 entries, 0 .. nnz
  std::span<const std::int32_t> col_idx;  ///< block-local columns
  std::span<const float> vals;
  std::string path;  ///< the block file, for error messages
  /// Bytes held in memory: the file size (Rows), the owned arrays (Transposed).
  std::int64_t bytes = 0;
  std::shared_ptr<const void> storage;
};

/// Parse and validate one `adj_<r>_<c>.plx` file: the magic, non-negative
/// header fields, arrays inside the file, row pointers running from 0 to nnz
/// without decreasing, and every row's column indices inside the block and
/// strictly ascending. Throws an error naming the file otherwise. Both
/// writers emit blocks this way, and the window walk relies on it: block rows
/// concatenated in block order are already sorted.
std::shared_ptr<const AdjacencyBlock> parse_adjacency_block(
    std::shared_ptr<const MappedBlock> file);

/// The Transposed form of a validated Rows block: A^T's block with rows and
/// columns swapped, built by one counting sort into owned arrays.
std::shared_ptr<const AdjacencyBlock> transpose_adjacency_block(const AdjacencyBlock& block);

/// Source of validated adjacency blocks for load_adjacency_window: freshly
/// opened files (fresh_block_opener) or a BlockCache lookup.
using BlockOpener = std::function<std::shared_ptr<const AdjacencyBlock>(const std::string& path,
                                                                        Orientation orientation)>;

/// Opener that maps, parses and (for Transposed) transposes each file anew.
/// `on_open`, when set, sees every mapped file first (byte accounting).
BlockOpener fresh_block_opener(std::function<void(const MappedBlock&)> on_open = {});

/// Assemble the window [r0, r1) x [c0, c1) of A (Rows) or its transpose, A^T's
/// rows [c0, c1) over columns [r0, r1) (Transposed), from the "adj" blocks it
/// intersects. A counting pass sizes the CSR exactly; each output row then
/// concatenates its pieces of the blocks in block order, shifted by the
/// block's column offset. That is sorted without a sort under the block
/// contract above, so the result is bitwise-equal whichever opener serves
/// the blocks, and the Transposed window equals the Rows window's
/// Csr::transposed(). Each block's header must match its place in the grid.
sparse::Csr load_adjacency_window(const std::string& dir, const ShardedMeta& meta,
                                  std::int64_t r0, std::int64_t r1, std::int64_t c0,
                                  std::int64_t c1, Orientation orientation,
                                  const BlockOpener& open);

/// Write one adjacency block file: `row_ptr.size() - 1` rows starting at
/// global row `row0`, `cols` columns starting at `col0`, block-local
/// column indices.
void write_adjacency_block(const std::string& path, std::int64_t row0, std::int64_t col0,
                           std::int64_t cols, std::span<const std::int64_t> row_ptr,
                           std::span<const std::int32_t> col_idx, std::span<const float> vals);

/// Write one feature row stripe: `rows` rows of `cols` floats from global
/// row `row0`; `row_at(row)` returns global row `row`, called in order.
void write_feature_block(const std::string& path, std::int64_t row0, std::int64_t rows,
                         std::int64_t cols,
                         const std::function<const float*(std::int64_t row)>& row_at);

void write_meta(const std::string& dir, const ShardedMeta& meta);

void write_labels(const std::string& dir, const std::vector<std::int32_t>& labels);

/// Write `adj` (N x N) and `features` (N x D) into `dir` as grid_rows x
/// grid_cols adjacency blocks + grid_rows feature row blocks + labels.
void write_sharded_dataset(const std::string& dir, const sparse::Csr& adj,
                           const dense::Matrix& features,
                           const std::vector<std::int32_t>& labels, std::int64_t num_classes,
                           std::int32_t grid_rows, std::int32_t grid_cols);

/// Write the adjacency as a grid of `adj_<r>_<c>.plx` block files (the
/// layout write_sharded_dataset uses).
void write_adjacency_blocks(const std::string& dir, const sparse::Csr& adj,
                            std::int32_t grid_rows, std::int32_t grid_cols);

void write_plexus_meta(const std::string& dir, const PlexusShardMeta& m);

void write_masks(const std::string& dir, const ShardedMasks& masks);

ShardedMeta read_meta(const std::string& dir);

PlexusShardMeta read_plexus_meta(const std::string& dir);

ShardedMasks load_masks(const std::string& dir);

/// Parallel loader: assemble only the "adj" blocks intersecting [r0, r1) x
/// [c0, c1) (load_adjacency_window over freshly opened files).
sparse::Csr load_adjacency_block(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats = nullptr);

/// Parallel loader for a feature row/column window. Each stripe header must
/// match the stripe's grid bounds and meta.feature_dim.
dense::Matrix load_feature_block(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats = nullptr);

/// Path of the `adj_<r>_<c>.plx` block file inside `dir`.
std::string adjacency_block_path(const std::string& dir, int r, int c);

/// Path of the `feat_<r>.plx` feature row stripe inside `dir`.
std::string feature_block_path(const std::string& dir, int r);

/// Naive loader: reads the *entire* dataset, then extracts the window
/// (the baseline of section 5.4's comparison).
sparse::Csr load_adjacency_block_naive(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                       std::int64_t c0, std::int64_t c1,
                                       LoadStats* stats = nullptr);

std::vector<std::int32_t> load_labels(const std::string& dir);

}  // namespace plexus::io
