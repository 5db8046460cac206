#pragma once
/// \file dataset_view.hpp
/// Uniform block-windowed read access to a preprocessed dataset.
///
/// The model layers never need the whole graph — each rank touches one
/// adjacency window, one feature block and the (small, O(N)) label/mask
/// vectors. DatasetView is that contract, with two providers:
///
///  * `InMemoryDatasetView` — wraps a `PlexusDataset` already materialised in
///    this process (the threaded `run_cluster` path: one dataset shared by
///    every rank thread).
///  * `ShardedDatasetView` — backed by a directory of block files written by
///    `write_sharded_plexus_dataset`. Block requests read only the files
///    intersecting the window (loader/shard_io), so a one-process-per-rank
///    launch (the MPI backend) never materialises the full graph anywhere
///    but rank 0's preprocess step. `cache_stats()` proves it.
///
/// Both providers hand out bitwise-identical blocks (the sharded round trip
/// is exact binary CSR/float IO), which is what lets `mpirun`ed training
/// gate its losses against the in-process Sim backend.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/preprocess.hpp"
#include "dense/matrix.hpp"
#include "loader/block_cache.hpp"
#include "loader/shard_io.hpp"
#include "sparse/csr.hpp"

namespace plexus::core {

enum class Split { Train, Val, Test };

/// True for the adjacency versions served as version 0's transpose (see
/// DatasetView::adjacency_block): the odd ones under Double.
inline bool transposed_version(PermutationScheme scheme, int version) {
  return version % 2 != 0 && scheme == PermutationScheme::Double;
}

class DatasetView {
 public:
  virtual ~DatasetView() = default;

  std::int64_t num_nodes() const { return num_nodes_; }
  std::int64_t padded_nodes() const { return padded_nodes_; }
  std::int64_t feature_dim() const { return feature_dim_; }
  std::int64_t padded_feature_dim() const { return padded_feature_dim_; }
  std::int64_t num_classes() const { return num_classes_; }
  std::int64_t train_total() const { return train_total_; }
  PermutationScheme scheme() const { return scheme_; }

  /// Adjacency window [r0, r1) x [c0, c1) of one adjacency version; layer l
  /// reads version l % 2. Version 0 is the stored P_r A~ P_c^T. Under Double,
  /// version 1 is P_c A~ P_r^T, its transpose because A~ is symmetric:
  /// A_1[r0:r1, c0:c1] = (A_0[c0:c1, r0:r1])^T. Under None and Single,
  /// version 1 is version 0.
  virtual sparse::Csr adjacency_block(int version, std::int64_t r0, std::int64_t r1,
                                      std::int64_t c0, std::int64_t c1) const = 0;

  /// Dense feature window [r0, r1) x [c0, c1) (padded coordinates).
  virtual dense::Matrix feature_block(std::int64_t r0, std::int64_t r1, std::int64_t c0,
                                      std::int64_t c1) const = 0;

  /// Labels / split masks over all padded nodes, in the output permutation.
  /// Small (O(N) scalars): every rank holds them whole; the sharding story
  /// is about the O(N^2)-ish adjacency and feature payloads.
  virtual const std::vector<std::int32_t>& labels() const = 0;
  virtual const std::vector<std::uint8_t>& mask(Split split) const = 0;

  /// True for a view whose adjacency is meant to be *streamed* every epoch
  /// (the out-of-core path) instead of materialised once per rank. A
  /// streaming view's adjacency reads must be thread-safe: the model runs
  /// them from per-rank ShardStream worker threads.
  virtual bool streaming() const { return false; }

  /// Total nnz of the adjacency (each version has the same), when the
  /// provider knows it without reading the payload (0 otherwise). Feeds the
  /// streaming planner's per-block nnz estimate.
  virtual std::int64_t adjacency_nnz() const { return 0; }

  /// adjacency_block plus the bytes the request actually pulled from disk
  /// (0 for in-memory providers and for fully cache-resident windows) — the
  /// EpochStats::io_bytes_streamed feed.
  virtual sparse::Csr adjacency_block_counted(int version, std::int64_t r0, std::int64_t r1,
                                              std::int64_t c0, std::int64_t c1,
                                              std::int64_t* io_bytes) const {
    if (io_bytes != nullptr) *io_bytes = 0;
    return adjacency_block(version, r0, r1, c0, c1);
  }

  /// Rows [c0, c1) of A^T over its columns [r0, r1): the transpose of
  /// adjacency_block_counted's window, which the backward pass streams, with
  /// the same `io_bytes` accounting. The default transposes that window;
  /// ShardedDatasetView assembles it from transposed blocks instead.
  virtual sparse::Csr transposed_block_counted(int version, std::int64_t r0, std::int64_t r1,
                                               std::int64_t c0, std::int64_t c1,
                                               std::int64_t* io_bytes) const {
    return adjacency_block_counted(version, r0, r1, c0, c1, io_bytes).transposed();
  }

 protected:
  std::int64_t num_nodes_ = 0;
  std::int64_t padded_nodes_ = 0;
  std::int64_t feature_dim_ = 0;
  std::int64_t padded_feature_dim_ = 0;
  std::int64_t num_classes_ = 0;
  std::int64_t train_total_ = 0;
  PermutationScheme scheme_ = PermutationScheme::Double;
};

/// View over a PlexusDataset held in this process. Non-owning: the dataset
/// must outlive the view.
class InMemoryDatasetView final : public DatasetView {
 public:
  explicit InMemoryDatasetView(const PlexusDataset& ds);

  sparse::Csr adjacency_block(int version, std::int64_t r0, std::int64_t r1, std::int64_t c0,
                              std::int64_t c1) const override;
  dense::Matrix feature_block(std::int64_t r0, std::int64_t r1, std::int64_t c0,
                              std::int64_t c1) const override;
  const std::vector<std::int32_t>& labels() const override;
  const std::vector<std::uint8_t>& mask(Split split) const override;
  std::int64_t adjacency_nnz() const override;

 private:
  const PlexusDataset* ds_;
};

/// View over a `write_sharded_plexus_dataset` directory. The constructor
/// reads only the metadata, labels and masks; adjacency/feature block
/// requests read exactly the intersecting block files. Every view reads
/// adjacency through one path, its own LRU BlockCache: windows are assembled
/// from the cache's parsed "adj" blocks, row windows from the blocks' file
/// form, A^T windows from transposed forms the cache derives once per
/// admission; version 1 reads the same blocks in the other orientation. All
/// reads are thread-safe, so one view may be shared by every rank thread, and
/// cache_stats() is the one IO account.
class ShardedDatasetView final : public DatasetView {
 public:
  /// Plain view: a budget-0 cache, which keeps no block once its window is
  /// built. The model materialises each rank's adjacency shard once.
  explicit ShardedDatasetView(std::string dir);

  /// Streaming view: the model re-reads adjacency windows every epoch, and
  /// the cache keeps at most `rss_budget_bytes` of unpinned blocks (< 0 =
  /// unlimited), in either orientation. Produces windows bitwise-identical
  /// to the plain constructor's.
  ShardedDatasetView(std::string dir, std::int64_t rss_budget_bytes);

  sparse::Csr adjacency_block(int version, std::int64_t r0, std::int64_t r1, std::int64_t c0,
                              std::int64_t c1) const override;
  dense::Matrix feature_block(std::int64_t r0, std::int64_t r1, std::int64_t c0,
                              std::int64_t c1) const override;
  const std::vector<std::int32_t>& labels() const override;
  const std::vector<std::uint8_t>& mask(Split split) const override;

  bool streaming() const override { return streaming_; }
  std::int64_t adjacency_nnz() const override { return meta_.adjacency_nnz; }
  sparse::Csr adjacency_block_counted(int version, std::int64_t r0, std::int64_t r1,
                                      std::int64_t c0, std::int64_t c1,
                                      std::int64_t* io_bytes) const override;
  sparse::Csr transposed_block_counted(int version, std::int64_t r0, std::int64_t r1,
                                       std::int64_t c0, std::int64_t c1,
                                       std::int64_t* io_bytes) const override;

  const std::string& dir() const { return dir_; }

  /// Adjacency accounting of the view's cache: `misses` counts block files
  /// read (and transposed forms built), `bytes_loaded` the bytes read from
  /// disk — the evidence that a rank loaded only its own shard's blocks.
  io::BlockCache::Stats cache_stats() const;

 private:
  ShardedDatasetView(std::string dir, std::int64_t rss_budget_bytes, bool streaming);

  /// One window of `version` through the cache, counting disk bytes into
  /// `io_bytes`.
  sparse::Csr counted_window(int version, std::int64_t r0, std::int64_t r1, std::int64_t c0,
                             std::int64_t c1, io::Orientation orientation,
                             std::int64_t* io_bytes) const;

  std::string dir_;
  io::ShardedMeta meta_;
  bool streaming_ = false;
  std::vector<std::int32_t> labels_;
  io::ShardedMasks masks_;
  std::unique_ptr<io::BlockCache> cache_;
};

/// Write `ds` into `dir` as a parts x parts block-file grid readable by
/// ShardedDatasetView: the one adjacency as "adj" blocks (readers derive
/// the odd version from it), feature row blocks, labels, masks and the two
/// metadata files. `parts` must divide `padded_nodes`; pass the grid volume
/// so every rank's adjacency/feature window falls on block boundaries
/// (uniform_slice extents divide the volume, hence the block size).
void write_sharded_plexus_dataset(const std::string& dir, const PlexusDataset& ds, int parts);

}  // namespace plexus::core
