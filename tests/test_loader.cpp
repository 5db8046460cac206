// Tests for the sharded dataset format and the parallel loader (section 5.4).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/dataset_view.hpp"
#include "graph/datasets.hpp"
#include "loader/mapped_block.hpp"
#include "loader/shard_io.hpp"
#include "sparse/csr.hpp"

namespace pc = plexus::core;
namespace pio = plexus::io;
namespace pg = plexus::graph;
namespace ps = plexus::sparse;

namespace {

class LoaderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("plexus_loader_test_" + std::to_string(::getpid()));
    g_ = pg::make_test_graph(256, 6.0, 8, 4, 3);
    adj_ = ps::normalize_adjacency(g_.adjacency(), g_.num_nodes);
    pio::write_sharded_dataset(dir_.string(), adj_, g_.features, g_.labels, g_.num_classes,
                               /*grid_rows=*/4, /*grid_cols=*/4);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Add the trainer metadata and masks a ShardedDatasetView reads.
  void make_view_readable() {
    const std::vector<std::uint8_t> none(256, 0);
    pio::write_masks(dir_.string(), pio::ShardedMasks{none, none, none});
    pio::PlexusShardMeta m;
    m.valid_nodes = 256;
    m.valid_feature_dim = 8;
    pio::write_plexus_meta(dir_.string(), m);
  }

  std::filesystem::path dir_;
  pg::Graph g_;
  ps::Csr adj_;
};

/// Overwrite the bytes at `offset` of `path` with `value`.
template <typename T>
void poke(const std::filesystem::path& path, long offset, T value) {
  std::FILE* f = std::fopen(path.string().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  ASSERT_EQ(std::fseek(f, offset, SEEK_SET), 0);
  ASSERT_EQ(std::fwrite(&value, sizeof(value), 1, f), 1u);
  std::fclose(f);
}

/// The message of the error `fn` throws, or "" when it does not throw.
template <typename Fn>
std::string error_of(Fn&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

/// Same shape, pattern and value bits.
bool bitwise_equal(const ps::Csr& a, const ps::Csr& b) {
  return ps::Csr::equal(a, b) &&
         std::memcmp(a.vals().data(), b.vals().data(), a.vals().size_bytes()) == 0;
}

// Adjacency block layout: magic, row0, col0, rows, cols, nnz (8 bytes each),
// then row_ptr[rows + 1], col_idx[nnz], vals[nnz].
constexpr long kNnzOffset = 40;
constexpr long kRowPtrOffset = 48;

}  // namespace

TEST_F(LoaderTest, MetaRoundTrip) {
  const auto meta = pio::read_meta(dir_.string());
  EXPECT_EQ(meta.num_nodes, 256);
  EXPECT_EQ(meta.feature_dim, 8);
  EXPECT_EQ(meta.num_classes, 4);
  EXPECT_EQ(meta.grid_rows, 4);
  EXPECT_EQ(meta.grid_cols, 4);
  EXPECT_EQ(meta.adjacency_nnz, adj_.nnz());
}

TEST_F(LoaderTest, AdjacencyWindowMatchesDirectExtraction) {
  // Windows aligned and unaligned with the shard grid.
  for (const auto& [r0, r1, c0, c1] :
       std::vector<std::tuple<int, int, int, int>>{{0, 64, 0, 64},
                                                   {64, 192, 128, 256},
                                                   {10, 100, 33, 200},
                                                   {0, 256, 0, 256}}) {
    pio::LoadStats stats;
    const auto got = pio::load_adjacency_block(dir_.string(), r0, r1, c0, c1, &stats);
    const auto want = adj_.block(r0, r1, c0, c1);
    EXPECT_TRUE(ps::Csr::equal(got, want)) << "window " << r0 << ":" << r1 << "," << c0 << ":"
                                           << c1;
    EXPECT_GT(stats.bytes_read, 0);
    EXPECT_GT(stats.files_opened, 0);
  }
}

TEST_F(LoaderTest, NaiveLoaderMatchesButReadsEverything) {
  pio::LoadStats par;
  pio::LoadStats naive;
  const auto a = pio::load_adjacency_block(dir_.string(), 0, 64, 0, 64, &par);
  const auto b = pio::load_adjacency_block_naive(dir_.string(), 0, 64, 0, 64, &naive);
  EXPECT_TRUE(ps::Csr::equal(a, b));
  // The parallel loader touches ~1/16 of the data and far fewer bytes.
  EXPECT_LT(par.bytes_read * 4, naive.bytes_read);
  EXPECT_LT(par.peak_host_bytes, naive.peak_host_bytes);
  EXPECT_LT(par.files_opened, naive.files_opened);
}

TEST_F(LoaderTest, FeatureWindow) {
  pio::LoadStats stats;
  const auto block = pio::load_feature_block(dir_.string(), 100, 200, 2, 7, &stats);
  EXPECT_EQ(block.rows(), 100);
  EXPECT_EQ(block.cols(), 5);
  for (std::int64_t r = 0; r < 100; ++r) {
    for (std::int64_t c = 0; c < 5; ++c) {
      EXPECT_EQ(block.at(r, c), g_.features.at(100 + r, 2 + c));
    }
  }
  // Only the 2 intersecting row-block files (rows 64..128, 128..192, 192..256
  // -> 3 files for rows 100..200).
  EXPECT_LE(stats.files_opened, 3);
}

TEST_F(LoaderTest, LabelsRoundTrip) {
  const auto labels = pio::load_labels(dir_.string());
  ASSERT_EQ(labels.size(), static_cast<std::size_t>(g_.num_nodes));
  for (std::size_t i = 0; i < labels.size(); ++i) EXPECT_EQ(labels[i], g_.labels[i]);
}

TEST_F(LoaderTest, MissingDirectoryThrows) {
  EXPECT_THROW(pio::read_meta("/nonexistent/plexus"), std::runtime_error);
}

TEST_F(LoaderTest, TruncatedBlockThrows) {
  // Chop an adjacency block in half: the loader must fail loudly, not return
  // a silently short CSR.
  const auto path = dir_ / "adj_0_0.plx";
  const auto size = std::filesystem::file_size(path);
  ASSERT_GT(size, 16u);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_THROW(pio::load_adjacency_block(dir_.string(), 0, 64, 0, 64), std::runtime_error);
}

TEST_F(LoaderTest, CorruptMagicThrows) {
  const auto path = dir_ / "adj_0_0.plx";
  std::FILE* f = std::fopen(path.string().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  const std::uint64_t garbage = 0xdeadbeefdeadbeefULL;
  ASSERT_EQ(std::fwrite(&garbage, sizeof(garbage), 1, f), 1u);
  std::fclose(f);
  try {
    pio::load_adjacency_block(dir_.string(), 0, 64, 0, 64);
    FAIL() << "corrupt magic accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("bad magic"), std::string::npos) << e.what();
  }
}

TEST_F(LoaderTest, ShortWriteSurfacesAtClose) {
  // Buffered writes to a full device succeed into the stdio buffer; the
  // failure only surfaces when fclose flushes. Point a block path at
  // /dev/full to prove the writer's checked close turns that into an error
  // instead of reporting a clean write.
  if (!std::filesystem::exists("/dev/full")) GTEST_SKIP() << "no /dev/full on this platform";
  const auto wdir = dir_ / "full_disk";
  std::filesystem::create_directories(wdir);
  std::filesystem::create_symlink("/dev/full", wdir / "adj_0_0.plx");
  EXPECT_THROW(pio::write_adjacency_blocks(wdir.string(), "adj", adj_, 1, 1),
               std::runtime_error);
}

TEST_F(LoaderTest, MasksAndPlexusMetaRoundTrip) {
  pio::ShardedMasks masks;
  const std::size_t n = 256;
  masks.train.assign(n, 0);
  masks.val.assign(n, 0);
  masks.test.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) masks.train[i] = i % 3 == 0;
  for (std::size_t i = 0; i < n; ++i) masks.val[i] = i % 3 == 1;
  for (std::size_t i = 0; i < n; ++i) masks.test[i] = i % 3 == 2;
  pio::write_masks(dir_.string(), masks);
  const auto got = pio::load_masks(dir_.string());
  EXPECT_EQ(got.train, masks.train);
  EXPECT_EQ(got.val, masks.val);
  EXPECT_EQ(got.test, masks.test);

  pio::PlexusShardMeta m;
  m.valid_nodes = 250;
  m.valid_feature_dim = 8;
  m.train_total = 86;
  m.scheme = 2;
  m.adjacency_versions = 2;
  pio::write_plexus_meta(dir_.string(), m);
  const auto gm = pio::read_plexus_meta(dir_.string());
  EXPECT_EQ(gm.valid_nodes, m.valid_nodes);
  EXPECT_EQ(gm.valid_feature_dim, m.valid_feature_dim);
  EXPECT_EQ(gm.train_total, m.train_total);
  EXPECT_EQ(gm.scheme, m.scheme);
  EXPECT_EQ(gm.adjacency_versions, m.adjacency_versions);
}

TEST_F(LoaderTest, CorruptRowPointerIsRejected) {
  poke(dir_ / "adj_0_0.plx", kRowPtrOffset + 8, std::int64_t{1} << 40);
  const auto what = error_of([&] { pio::load_adjacency_block(dir_.string(), 0, 64, 0, 64); });
  EXPECT_NE(what.find("corrupt row pointer"), std::string::npos) << what;
  EXPECT_NE(what.find("adj_0_0.plx"), std::string::npos) << what;
}

TEST_F(LoaderTest, NegativeNnzIsRejected) {
  poke(dir_ / "adj_0_0.plx", kNnzOffset, std::int64_t{-7});
  const auto what = error_of([&] { pio::load_adjacency_block(dir_.string(), 0, 64, 0, 64); });
  EXPECT_NE(what.find("corrupt block header"), std::string::npos) << what;
}

TEST_F(LoaderTest, BlockMustFitItsGridPlace) {
  // A header claiming another grid position, and a column index past the
  // block's width in a row the window reads (row 0 holds its self loop).
  const auto path = dir_ / "adj_0_0.plx";
  poke(path, 8, std::int64_t{1});  // row0
  EXPECT_NE(error_of([&] { pio::load_adjacency_block(dir_.string(), 0, 64, 0, 64); })
                .find("corrupt block header"),
            std::string::npos);

  pio::write_adjacency_blocks(dir_.string(), "adj", adj_, 4, 4);
  poke(path, kRowPtrOffset + 65 * 8, std::int32_t{64});  // col_idx[0] of a 64-row block
  EXPECT_NE(error_of([&] { pio::load_adjacency_block(dir_.string(), 0, 64, 0, 64); })
                .find("corrupt column index"),
            std::string::npos);
}

TEST_F(LoaderTest, FeatureHeaderMismatchIsRejected) {
  // feat_<r>.plx header: magic, row0, rows, cols. One column short would
  // otherwise shift every row after the first.
  poke(dir_ / "feat_0.plx", 24, std::int64_t{7});
  const auto what =
      error_of([&] { pio::load_feature_block(dir_.string(), 0, 256, 0, 8); });
  EXPECT_NE(what.find("corrupt feature block header"), std::string::npos) << what;
  EXPECT_NE(what.find("feat_0.plx"), std::string::npos) << what;
}

TEST_F(LoaderTest, ByteReaderRejectsArraysLongerThanTheFile) {
  // 2^61 int64s is 2^64 bytes, which wraps to 0 in a multiplied size check.
  const auto path = dir_ / "sixteen.bin";
  std::FILE* f = std::fopen(path.string().c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const std::int64_t words[2] = {1, 2};
  ASSERT_EQ(std::fwrite(words, sizeof(words), 1, f), 1u);
  std::fclose(f);
  const auto block = pio::MappedBlock::open(path.string());
  pio::ByteReader in(*block);
  EXPECT_THROW(in.array<std::int64_t>(std::size_t{1} << 61), std::runtime_error);
  EXPECT_EQ(in.array<std::int64_t>(2).size(), 2u);
}

TEST_F(LoaderTest, UnsortedColumnsAreRejected) {
  // The window walk concatenates block rows without sorting, so a block whose
  // row is out of order or repeats a column must be refused, naming the file,
  // by the plain loader and by the cache's admission alike.
  make_view_readable();
  const auto blk = adj_.block(0, 64, 0, 64);  // what adj_0_0.plx holds
  std::int64_t row = 0;
  while (blk.row_nnz(row) < 2) ++row;
  const long k = static_cast<long>(blk.row_ptr()[static_cast<std::size_t>(row)]);
  const auto first = blk.col_idx()[static_cast<std::size_t>(k)];
  const auto second = blk.col_idx()[static_cast<std::size_t>(k) + 1];
  const auto path = dir_ / "adj_0_0.plx";
  const long col_idx = kRowPtrOffset + 65 * 8;  // col_idx[0] of a 64-row block
  const auto check = [&] {
    const auto what = error_of([&] { pio::load_adjacency_block(dir_.string(), 0, 64, 0, 64); });
    EXPECT_NE(what.find("column index"), std::string::npos) << what;
    EXPECT_NE(what.find("adj_0_0.plx"), std::string::npos) << what;
    const pc::ShardedDatasetView view(dir_.string(), /*rss_budget_bytes=*/1 << 20);
    const auto streamed =
        error_of([&] { view.adjacency_block_counted(0, 0, 64, 0, 64, nullptr); });
    EXPECT_NE(streamed.find("adj_0_0.plx"), std::string::npos) << streamed;
    const auto transposed =
        error_of([&] { view.transposed_block_counted(0, 0, 64, 0, 64, nullptr); });
    EXPECT_NE(transposed.find("adj_0_0.plx"), std::string::npos) << transposed;
  };
  {
    SCOPED_TRACE("swapped");
    poke(path, col_idx + 4 * k, second);
    poke(path, col_idx + 4 * (k + 1), first);
    check();
  }
  pio::write_adjacency_blocks(dir_.string(), "adj", adj_, 4, 4);
  {
    SCOPED_TRACE("duplicated");
    poke(path, col_idx + 4 * (k + 1), first);
    check();
  }
}

TEST_F(LoaderTest, ConcurrentWindowsShareOneCache) {
  // Four threads read one window spanning 2 x 4 blocks in both orientations
  // through one shared view, plain (a budget-0 cache) or budgeted: every
  // thread sees the same bits, the cache never holds a block twice, and once
  // the last pin drops it is back under its budget — empty for the plain
  // view.
  make_view_readable();
  constexpr std::int64_t r0 = 10, r1 = 100, c0 = 33, c1 = 200;
  const auto want = adj_.block(r0, r1, c0, c1);
  const auto want_t = want.transposed();
  // Every distinct entry the window can admit: the 8 files, and each one's
  // transposed form, whose arrays are the file less its 48-byte header
  // (square 64 x 64 blocks).
  std::int64_t distinct = 0;
  std::int64_t largest = 0;
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 4; ++c) {
      const auto size = static_cast<std::int64_t>(
          std::filesystem::file_size(pio::adjacency_block_path(dir_.string(), "adj", r, c)));
      distinct += size + (size - 48);
      largest = std::max(largest, size);
    }
  }
  // Budget -1 stands for the plain constructor.
  for (const std::int64_t budget : {std::int64_t{-1}, std::int64_t{0}, largest}) {
    SCOPED_TRACE("budget " + std::to_string(budget));
    const auto view = budget < 0 ? std::make_unique<pc::ShardedDatasetView>(dir_.string())
                                 : std::make_unique<pc::ShardedDatasetView>(dir_.string(), budget);
    constexpr int kThreads = 4;
    constexpr int kRounds = 3;
    std::vector<std::vector<ps::Csr>> got(kThreads);
    std::vector<std::string> errors(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        errors[t] = error_of([&] {
          for (int i = 0; i < kRounds; ++i) {
            got[t].push_back(view->adjacency_block_counted(0, r0, r1, c0, c1, nullptr));
            got[t].push_back(view->transposed_block_counted(0, r0, r1, c0, c1, nullptr));
          }
        });
      });
    }
    for (auto& th : threads) th.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(errors[t], "") << "thread " << t;
      ASSERT_EQ(got[t].size(), 2u * kRounds);
      for (int i = 0; i < kRounds; ++i) {
        EXPECT_TRUE(bitwise_equal(got[t][2 * i], want)) << "thread " << t;
        EXPECT_TRUE(bitwise_equal(got[t][2 * i + 1], want_t)) << "thread " << t;
      }
    }
    const auto cs = view->cache_stats();
    EXPECT_GT(cs.misses, 0);
    EXPECT_LE(cs.peak_resident_bytes, distinct);
    EXPECT_LE(cs.resident_bytes, std::max<std::int64_t>(budget, 0));
    EXPECT_EQ(view->streaming(), budget >= 0);
  }
}
