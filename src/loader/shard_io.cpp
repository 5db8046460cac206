#include "loader/shard_io.hpp"

#include <algorithm>
#include <filesystem>

#include "loader/file_io.hpp"
#include "sparse/coo.hpp"
#include "sparse/partition2d.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace plexus::io {

std::string adjacency_block_path(const std::string& dir, const std::string& prefix, int r,
                                 int c) {
  return dir + "/" + prefix + "_" + std::to_string(r) + "_" + std::to_string(c) + ".plx";
}

std::string feature_block_path(const std::string& dir, int r) {
  return dir + "/feat_" + std::to_string(r) + ".plx";
}

AdjacencyBlock parse_adjacency_block(const MappedBlock& block) {
  const std::string& path = block.path();
  ByteReader in(block);
  PLEXUS_CHECK(in.pod<std::uint64_t>() == kPlxMagic, "bad magic in " + path);
  AdjacencyBlock b;
  b.row0 = in.pod<std::int64_t>();
  b.col0 = in.pod<std::int64_t>();
  b.rows = in.pod<std::int64_t>();
  b.cols = in.pod<std::int64_t>();
  const auto nnz = in.pod<std::int64_t>();
  PLEXUS_CHECK(b.row0 >= 0 && b.col0 >= 0 && b.rows >= 0 && b.cols >= 0 && nnz >= 0,
               "corrupt block header in " + path);
  b.row_ptr = in.array<std::int64_t>(static_cast<std::size_t>(b.rows) + 1);
  b.col_idx = in.array<std::int32_t>(static_cast<std::size_t>(nnz));
  b.vals = in.array<float>(static_cast<std::size_t>(nnz));
  bool monotone = b.row_ptr.front() == 0 && b.row_ptr.back() == nnz;
  for (std::size_t i = 1; monotone && i < b.row_ptr.size(); ++i) {
    monotone = b.row_ptr[i] >= b.row_ptr[i - 1];
  }
  PLEXUS_CHECK(monotone, "corrupt row pointer in " + path);
  return b;
}

sparse::Csr load_adjacency_window(const std::string& dir, const std::string& prefix,
                                  const ShardedMeta& meta, std::int64_t r0, std::int64_t r1,
                                  std::int64_t c0, std::int64_t c1, const BlockOpener& open) {
  const auto rb = sparse::block_bounds(meta.num_nodes, meta.grid_rows);
  const auto cb = sparse::block_bounds(meta.num_nodes, meta.grid_cols);
  sparse::Coo coo;
  coo.num_rows = r1 - r0;
  coo.num_cols = c1 - c0;
  for (std::size_t r = 0; r + 1 < rb.size(); ++r) {
    if (rb[r + 1] <= r0 || rb[r] >= r1) continue;
    for (std::size_t c = 0; c + 1 < cb.size(); ++c) {
      if (cb[c + 1] <= c0 || cb[c] >= c1) continue;
      const auto file =
          open(adjacency_block_path(dir, prefix, static_cast<int>(r), static_cast<int>(c)));
      const auto blk = parse_adjacency_block(*file);
      PLEXUS_CHECK(blk.row0 == rb[r] && blk.rows == rb[r + 1] - rb[r] && blk.col0 == cb[c] &&
                       blk.cols == cb[c + 1] - cb[c],
                   "corrupt block header in " + file->path() + " (not its grid block)");
      for (std::int64_t gr = std::max(r0, rb[r]); gr < std::min(r1, rb[r + 1]); ++gr) {
        const auto lr = static_cast<std::size_t>(gr - blk.row0);
        for (auto k = static_cast<std::size_t>(blk.row_ptr[lr]);
             k < static_cast<std::size_t>(blk.row_ptr[lr + 1]); ++k) {
          const std::int64_t lc = blk.col_idx[k];
          PLEXUS_CHECK(lc >= 0 && lc < blk.cols, "corrupt column index in " + file->path());
          const auto gc = blk.col0 + lc;
          if (gc < c0 || gc >= c1) continue;
          coo.push(gr - r0, gc - c0, blk.vals[k]);
        }
      }
    }
  }
  return sparse::Csr::from_coo(coo, false);
}

void write_adjacency_block(const std::string& path, std::int64_t row0, std::int64_t col0,
                           std::int64_t cols, std::span<const std::int64_t> row_ptr,
                           std::span<const std::int32_t> col_idx, std::span<const float> vals) {
  auto f = open_file(path, "wb");
  write_pod(f.get(), kPlxMagic);
  write_pod(f.get(), row0);
  write_pod(f.get(), col0);
  write_pod(f.get(), static_cast<std::int64_t>(row_ptr.size()) - 1);
  write_pod(f.get(), cols);
  write_pod(f.get(), static_cast<std::int64_t>(col_idx.size()));
  write_array(f.get(), row_ptr.data(), row_ptr.size());
  write_array(f.get(), col_idx.data(), col_idx.size());
  write_array(f.get(), vals.data(), vals.size());
  f.close();
}

void write_feature_block(const std::string& path, std::int64_t row0, std::int64_t rows,
                         std::int64_t cols,
                         const std::function<const float*(std::int64_t row)>& row_at) {
  auto f = open_file(path, "wb");
  write_pod(f.get(), kPlxMagic);
  write_pod(f.get(), row0);
  write_pod(f.get(), rows);
  write_pod(f.get(), cols);
  for (std::int64_t row = row0; row < row0 + rows; ++row) {
    write_array(f.get(), row_at(row), static_cast<std::size_t>(cols));
  }
  f.close();
}

void write_meta(const std::string& dir, const ShardedMeta& meta) {
  auto f = open_file(dir + "/meta.plx", "wb");
  write_pod(f.get(), kPlxMagic);
  write_pod(f.get(), meta.num_nodes);
  write_pod(f.get(), meta.feature_dim);
  write_pod(f.get(), meta.num_classes);
  write_pod(f.get(), meta.grid_rows);
  write_pod(f.get(), meta.grid_cols);
  write_pod(f.get(), meta.adjacency_nnz);
  f.close();
}

void write_labels(const std::string& dir, const std::vector<std::int32_t>& labels) {
  auto f = open_file(dir + "/labels.plx", "wb");
  write_pod(f.get(), kPlxMagic);
  write_pod(f.get(), static_cast<std::int64_t>(labels.size()));
  write_array(f.get(), labels.data(), labels.size());
  f.close();
}

void write_adjacency_blocks(const std::string& dir, const std::string& prefix,
                            const sparse::Csr& adj, std::int32_t grid_rows,
                            std::int32_t grid_cols) {
  std::filesystem::create_directories(dir);
  const auto rb = sparse::block_bounds(adj.rows(), grid_rows);
  const auto cb = sparse::block_bounds(adj.cols(), grid_cols);
  for (std::size_t r = 0; r + 1 < rb.size(); ++r) {
    for (std::size_t c = 0; c + 1 < cb.size(); ++c) {
      const auto blk = adj.block(rb[r], rb[r + 1], cb[c], cb[c + 1]);
      write_adjacency_block(
          adjacency_block_path(dir, prefix, static_cast<int>(r), static_cast<int>(c)), rb[r],
          cb[c], blk.cols(), blk.row_ptr(), blk.col_idx(), blk.vals());
    }
  }
}

void write_sharded_dataset(const std::string& dir, const sparse::Csr& adj,
                           const dense::Matrix& features,
                           const std::vector<std::int32_t>& labels, std::int64_t num_classes,
                           std::int32_t grid_rows, std::int32_t grid_cols) {
  PLEXUS_CHECK(adj.rows() == adj.cols() && adj.rows() == features.rows(), "shape mismatch");
  std::filesystem::create_directories(dir);
  write_meta(dir, ShardedMeta{adj.rows(), features.cols(), num_classes, grid_rows, grid_cols,
                              adj.nnz()});
  write_labels(dir, labels);
  write_adjacency_blocks(dir, "adj", adj, grid_rows, grid_cols);
  const auto rb = sparse::block_bounds(adj.rows(), grid_rows);
  for (std::size_t r = 0; r + 1 < rb.size(); ++r) {
    write_feature_block(feature_block_path(dir, static_cast<int>(r)), rb[r], rb[r + 1] - rb[r],
                        features.cols(), [&](std::int64_t row) { return features.row(row); });
  }
}

void write_plexus_meta(const std::string& dir, const PlexusShardMeta& m) {
  std::filesystem::create_directories(dir);
  auto f = open_file(dir + "/pmeta.plx", "wb");
  write_pod(f.get(), kPlxMagic);
  write_pod(f.get(), m.valid_nodes);
  write_pod(f.get(), m.valid_feature_dim);
  write_pod(f.get(), m.train_total);
  write_pod(f.get(), m.scheme);
  write_pod(f.get(), m.adjacency_versions);
  f.close();
}

void write_masks(const std::string& dir, const ShardedMasks& masks) {
  PLEXUS_CHECK(masks.train.size() == masks.val.size() && masks.val.size() == masks.test.size(),
               "mask length mismatch");
  std::filesystem::create_directories(dir);
  auto f = open_file(dir + "/masks.plx", "wb");
  write_pod(f.get(), kPlxMagic);
  write_pod(f.get(), static_cast<std::int64_t>(masks.train.size()));
  write_array(f.get(), masks.train.data(), masks.train.size());
  write_array(f.get(), masks.val.data(), masks.val.size());
  write_array(f.get(), masks.test.data(), masks.test.size());
  f.close();
}

ShardedMeta read_meta(const std::string& dir) {
  auto f = open_file(dir + "/meta.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kPlxMagic, "bad magic in meta");
  ShardedMeta m;
  m.num_nodes = read_pod<std::int64_t>(f.get(), nullptr);
  m.feature_dim = read_pod<std::int64_t>(f.get(), nullptr);
  m.num_classes = read_pod<std::int64_t>(f.get(), nullptr);
  m.grid_rows = read_pod<std::int32_t>(f.get(), nullptr);
  m.grid_cols = read_pod<std::int32_t>(f.get(), nullptr);
  m.adjacency_nnz = read_pod<std::int64_t>(f.get(), nullptr);
  return m;
}

PlexusShardMeta read_plexus_meta(const std::string& dir) {
  auto f = open_file(dir + "/pmeta.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kPlxMagic, "bad magic in pmeta");
  PlexusShardMeta m;
  m.valid_nodes = read_pod<std::int64_t>(f.get(), nullptr);
  m.valid_feature_dim = read_pod<std::int64_t>(f.get(), nullptr);
  m.train_total = read_pod<std::int64_t>(f.get(), nullptr);
  m.scheme = read_pod<std::int32_t>(f.get(), nullptr);
  m.adjacency_versions = read_pod<std::int32_t>(f.get(), nullptr);
  return m;
}

ShardedMasks load_masks(const std::string& dir) {
  auto f = open_file(dir + "/masks.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kPlxMagic, "bad magic in masks");
  const auto n = read_pod<std::int64_t>(f.get(), nullptr);
  ShardedMasks m;
  m.train = read_array<std::uint8_t>(f.get(), static_cast<std::size_t>(n), nullptr);
  m.val = read_array<std::uint8_t>(f.get(), static_cast<std::size_t>(n), nullptr);
  m.test = read_array<std::uint8_t>(f.get(), static_cast<std::size_t>(n), nullptr);
  return m;
}

sparse::Csr load_adjacency_block(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats,
                                 const std::string& prefix) {
  util::WallTimer timer;
  std::int64_t buffered = 0;
  auto csr = load_adjacency_window(
      dir, prefix, read_meta(dir), r0, r1, c0, c1, [&](const std::string& path) {
        auto block = MappedBlock::open(path);
        buffered += block->size_bytes();
        if (stats != nullptr) {
          stats->files_opened++;
          stats->bytes_read += block->size_bytes();
        }
        return block;
      });
  if (stats != nullptr) {
    stats->peak_host_bytes = std::max(stats->peak_host_bytes, buffered);
    stats->seconds += timer.seconds();
  }
  return csr;
}

dense::Matrix load_feature_block(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats) {
  util::WallTimer timer;
  const auto meta = read_meta(dir);
  const auto rb = sparse::block_bounds(meta.num_nodes, meta.grid_rows);
  dense::Matrix out(r1 - r0, c1 - c0);
  for (std::size_t r = 0; r + 1 < rb.size(); ++r) {
    const auto b0 = rb[r];
    const auto b1 = rb[r + 1];
    if (b1 <= r0 || b0 >= r1) continue;
    const auto path = feature_block_path(dir, static_cast<int>(r));
    auto f = open_file(path, "rb");
    if (stats != nullptr) stats->files_opened++;
    PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), stats) == kPlxMagic, "bad magic in " + path);
    const auto row0 = read_pod<std::int64_t>(f.get(), stats);
    const auto rows = read_pod<std::int64_t>(f.get(), stats);
    const auto cols = read_pod<std::int64_t>(f.get(), stats);
    PLEXUS_CHECK(row0 == b0 && rows == b1 - b0 && cols == meta.feature_dim,
                 "corrupt feature block header in " + path);
    const auto data = read_array<float>(f.get(), static_cast<std::size_t>(rows * cols), stats);
    for (std::int64_t lr = 0; lr < rows; ++lr) {
      const auto gr = row0 + lr;
      if (gr < r0 || gr >= r1) continue;
      for (std::int64_t c = c0; c < std::min(c1, cols); ++c) {
        out.at(gr - r0, c - c0) = data[static_cast<std::size_t>(lr * cols + c)];
      }
    }
  }
  if (stats != nullptr) stats->seconds += timer.seconds();
  return out;
}

sparse::Csr load_adjacency_block_naive(const std::string& dir, std::int64_t r0, std::int64_t r1,
                                       std::int64_t c0, std::int64_t c1, LoadStats* stats,
                                       const std::string& prefix) {
  // Read every block, reassemble the full matrix, then slice — the "load the
  // whole dataset into CPU memory first" pattern of many GNN frameworks.
  const std::int64_t n = read_meta(dir).num_nodes;
  return load_adjacency_block(dir, 0, n, 0, n, stats, prefix).block(r0, r1, c0, c1);
}

std::vector<std::int32_t> load_labels(const std::string& dir) {
  auto f = open_file(dir + "/labels.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kPlxMagic, "bad magic in labels");
  const auto n = read_pod<std::int64_t>(f.get(), nullptr);
  return read_array<std::int32_t>(f.get(), static_cast<std::size_t>(n), nullptr);
}

}  // namespace plexus::io
