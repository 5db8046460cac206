#include "loader/shard_io.hpp"

#include <algorithm>
#include <filesystem>
#include <numeric>

#include "loader/file_io.hpp"
#include "sparse/partition2d.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace plexus::io {

std::string adjacency_block_path(const std::string& dir, int r, int c) {
  return dir + "/adj_" + std::to_string(r) + "_" + std::to_string(c) + ".plx";
}

std::string feature_block_path(const std::string& dir, int r) {
  return dir + "/feat_" + std::to_string(r) + ".plx";
}

std::shared_ptr<const AdjacencyBlock> parse_adjacency_block(
    std::shared_ptr<const MappedBlock> file) {
  const std::string& path = file->path();
  ByteReader in(*file);
  PLEXUS_CHECK(in.pod<std::uint64_t>() == kPlxMagic, "bad magic in " + path);
  auto b = std::make_shared<AdjacencyBlock>();
  b->row0 = in.pod<std::int64_t>();
  b->col0 = in.pod<std::int64_t>();
  b->rows = in.pod<std::int64_t>();
  b->cols = in.pod<std::int64_t>();
  const auto nnz = in.pod<std::int64_t>();
  PLEXUS_CHECK(b->row0 >= 0 && b->col0 >= 0 && b->rows >= 0 && b->cols >= 0 && nnz >= 0,
               "corrupt block header in " + path);
  b->row_ptr = in.array<std::int64_t>(static_cast<std::size_t>(b->rows) + 1);
  b->col_idx = in.array<std::int32_t>(static_cast<std::size_t>(nnz));
  b->vals = in.array<float>(static_cast<std::size_t>(nnz));
  const auto rp = b->row_ptr;
  bool monotone = rp.front() == 0 && rp.back() == nnz;
  for (std::size_t i = 1; monotone && i < rp.size(); ++i) monotone = rp[i] >= rp[i - 1];
  PLEXUS_CHECK(monotone, "corrupt row pointer in " + path);
  for (std::size_t i = 0; i + 1 < rp.size(); ++i) {
    std::int64_t prev = -1;
    const auto end = static_cast<std::size_t>(rp[i + 1]);
    for (auto k = static_cast<std::size_t>(rp[i]); k < end; ++k) {
      const std::int64_t c = b->col_idx[k];
      PLEXUS_CHECK(c >= 0 && c < b->cols, "corrupt column index in " + path);
      PLEXUS_CHECK(c > prev, "unsorted or duplicate column index in " + path);
      prev = c;
    }
  }
  b->path = path;
  b->bytes = file->size_bytes();
  b->storage = std::move(file);
  return b;
}

std::shared_ptr<const AdjacencyBlock> transpose_adjacency_block(const AdjacencyBlock& block) {
  const auto nnz = block.col_idx.size();
  std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(block.cols) + 1, 0);
  for (const std::int32_t c : block.col_idx) row_ptr[static_cast<std::size_t>(c) + 1]++;
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::vector<std::int32_t> col_idx(nnz);
  std::vector<float> vals(nnz);
  std::vector<std::int64_t> cursor(row_ptr.begin(), row_ptr.end() - 1);
  // Scanning source rows in order keeps each output row strictly ascending.
  for (std::size_t r = 0; r + 1 < block.row_ptr.size(); ++r) {
    for (auto k = static_cast<std::size_t>(block.row_ptr[r]);
         k < static_cast<std::size_t>(block.row_ptr[r + 1]); ++k) {
      const auto c = static_cast<std::size_t>(block.col_idx[k]);
      const auto pos = static_cast<std::size_t>(cursor[c]++);
      col_idx[pos] = static_cast<std::int32_t>(r);
      vals[pos] = block.vals[k];
    }
  }
  auto arrays = std::make_shared<const sparse::Csr>(sparse::Csr::from_parts(
      block.cols, block.rows, std::move(row_ptr), std::move(col_idx), std::move(vals)));
  auto t = std::make_shared<AdjacencyBlock>();
  t->row0 = block.col0;
  t->col0 = block.row0;
  t->rows = block.cols;
  t->cols = block.rows;
  t->row_ptr = arrays->row_ptr();
  t->col_idx = arrays->col_idx();
  t->vals = arrays->vals();
  t->path = block.path;
  t->bytes = static_cast<std::int64_t>(t->row_ptr.size_bytes() + t->col_idx.size_bytes() +
                                       t->vals.size_bytes());
  t->storage = std::move(arrays);
  return t;
}

BlockOpener fresh_block_opener(std::function<void(const MappedBlock&)> on_open) {
  return [on_open = std::move(on_open)](const std::string& path, Orientation orientation) {
    auto file = MappedBlock::open(path);
    if (on_open) on_open(*file);
    auto block = parse_adjacency_block(std::move(file));
    return orientation == Orientation::Rows ? block : transpose_adjacency_block(*block);
  };
}

sparse::Csr load_adjacency_window(const std::string& dir, const ShardedMeta& meta,
                                  std::int64_t r0, std::int64_t r1, std::int64_t c0,
                                  std::int64_t c1, Orientation orientation,
                                  const BlockOpener& open) {
  // Work in output coordinates: rows [o0, o1) and columns [p0, p1) of A, or
  // of A^T, whose block (i, j) is the transpose of file block (j, i).
  const bool t = orientation == Orientation::Transposed;
  const auto rb = sparse::block_bounds(meta.num_nodes, meta.grid_rows);
  const auto cb = sparse::block_bounds(meta.num_nodes, meta.grid_cols);
  const auto& ob = t ? cb : rb;
  const auto& pb = t ? rb : cb;
  const std::int64_t o0 = t ? c0 : r0, o1 = t ? c1 : r1;
  const std::int64_t p0 = t ? r0 : c0, p1 = t ? r1 : c1;
  const auto intersecting = [](const std::vector<std::int64_t>& b, std::int64_t lo,
                               std::int64_t hi) {
    std::size_t first = 0;
    while (first + 1 < b.size() && b[first + 1] <= lo) ++first;
    std::size_t last = first;
    while (last + 1 < b.size() && b[last] < hi) ++last;
    return std::pair{first, last};  // blocks [first, last)
  };
  const auto [i0, i1] = intersecting(ob, o0, o1);
  const auto [j0, j1] = intersecting(pb, p0, p1);

  // Pin every intersecting block for both passes, block row by block row.
  const std::size_t nj = j1 - j0;
  std::vector<std::shared_ptr<const AdjacencyBlock>> blocks;
  blocks.reserve((i1 - i0) * nj);
  for (std::size_t i = i0; i < i1; ++i) {
    for (std::size_t j = j0; j < j1; ++j) {
      const int fr = static_cast<int>(t ? j : i);
      const int fc = static_cast<int>(t ? i : j);
      auto blk = open(adjacency_block_path(dir, fr, fc), orientation);
      PLEXUS_CHECK(blk->row0 == ob[i] && blk->rows == ob[i + 1] - ob[i] &&
                       blk->col0 == pb[j] && blk->cols == pb[j + 1] - pb[j],
                   "corrupt block header in " + blk->path + " (not its grid block)");
      blocks.push_back(std::move(blk));
    }
  }

  // Entries [first, last) of local row `lr` of `blk` whose columns fall in
  // [p0, p1); a binary search only where the window cuts the block.
  const auto piece = [&](const AdjacencyBlock& blk, std::int64_t lr) {
    const auto* begin = blk.col_idx.data() + blk.row_ptr[static_cast<std::size_t>(lr)];
    const auto* end = blk.col_idx.data() + blk.row_ptr[static_cast<std::size_t>(lr) + 1];
    if (p0 > blk.col0) {
      begin = std::lower_bound(begin, end, static_cast<std::int32_t>(p0 - blk.col0));
    }
    if (p1 < blk.col0 + blk.cols) {
      end = std::lower_bound(begin, end, static_cast<std::int32_t>(p1 - blk.col0));
    }
    return std::pair{static_cast<std::size_t>(begin - blk.col_idx.data()),
                     static_cast<std::size_t>(end - blk.col_idx.data())};
  };
  // Visit every output row's pieces in block-column order.
  const auto walk = [&](const auto& fn) {
    for (std::size_t i = i0; i < i1; ++i) {
      const auto* row_blocks = blocks.data() + (i - i0) * nj;
      for (std::int64_t g = std::max(o0, ob[i]); g < std::min(o1, ob[i + 1]); ++g) {
        for (std::size_t j = 0; j < nj; ++j) {
          const AdjacencyBlock& blk = *row_blocks[j];
          const auto [first, last] = piece(blk, g - blk.row0);
          fn(g - o0, blk, first, last);
        }
      }
    }
  };

  std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(o1 - o0) + 1, 0);
  walk([&](std::int64_t row, const AdjacencyBlock&, std::size_t first, std::size_t last) {
    row_ptr[static_cast<std::size_t>(row) + 1] += static_cast<std::int64_t>(last - first);
  });
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::vector<std::int32_t> col_idx(static_cast<std::size_t>(row_ptr.back()));
  std::vector<float> vals(col_idx.size());
  std::size_t out = 0;
  walk([&](std::int64_t, const AdjacencyBlock& blk, std::size_t first, std::size_t last) {
    const auto shift = static_cast<std::int32_t>(blk.col0 - p0);
    for (std::size_t k = first; k < last; ++k, ++out) {
      col_idx[out] = blk.col_idx[k] + shift;
      vals[out] = blk.vals[k];
    }
  });
  return sparse::Csr::from_parts(o1 - o0, p1 - p0, std::move(row_ptr), std::move(col_idx),
                                 std::move(vals));
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

void write_adjacency_blocks(const std::string& dir, const sparse::Csr& adj,
                            std::int32_t grid_rows, std::int32_t grid_cols) {
  std::filesystem::create_directories(dir);
  const auto rb = sparse::block_bounds(adj.rows(), grid_rows);
  const auto cb = sparse::block_bounds(adj.cols(), grid_cols);
  for (std::size_t r = 0; r + 1 < rb.size(); ++r) {
    for (std::size_t c = 0; c + 1 < cb.size(); ++c) {
      const auto blk = adj.block(rb[r], rb[r + 1], cb[c], cb[c + 1]);
      write_adjacency_block(
          adjacency_block_path(dir, static_cast<int>(r), static_cast<int>(c)), rb[r], cb[c],
          blk.cols(), blk.row_ptr(), blk.col_idx(), blk.vals());
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
  write_adjacency_blocks(dir, adj, grid_rows, grid_cols);
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
                                 std::int64_t c0, std::int64_t c1, LoadStats* stats) {
  util::WallTimer timer;
  std::int64_t buffered = 0;
  auto csr = load_adjacency_window(
      dir, read_meta(dir), r0, r1, c0, c1, Orientation::Rows,
      fresh_block_opener([&](const MappedBlock& file) {
        buffered += file.size_bytes();
        if (stats != nullptr) {
          stats->files_opened++;
          stats->bytes_read += file.size_bytes();
        }
      }));
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
                                       std::int64_t c0, std::int64_t c1, LoadStats* stats) {
  // Read every block, reassemble the full matrix, then slice — the "load the
  // whole dataset into CPU memory first" pattern of many GNN frameworks.
  const std::int64_t n = read_meta(dir).num_nodes;
  return load_adjacency_block(dir, 0, n, 0, n, stats).block(r0, r1, c0, c1);
}

std::vector<std::int32_t> load_labels(const std::string& dir) {
  auto f = open_file(dir + "/labels.plx", "rb");
  PLEXUS_CHECK(read_pod<std::uint64_t>(f.get(), nullptr) == kPlxMagic, "bad magic in labels");
  const auto n = read_pod<std::int64_t>(f.get(), nullptr);
  return read_array<std::int32_t>(f.get(), static_cast<std::size_t>(n), nullptr);
}

}  // namespace plexus::io
