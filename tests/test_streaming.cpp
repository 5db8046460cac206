// Out-of-core streaming epochs (ROADMAP item 2): the budgeted
// ShardedDatasetView + ShardStream path must be a pure memory/scheduling
// knob — bitwise-identical losses, accuracies and simulated clocks against
// the fully resident run — while holding the block cache under the RSS
// budget, with forward and transposed windows equal to the plain view's.
// Plus the LRU BlockCache unit contract and the loader fault-
// injection seam: short reads, EINTR interruptions and mid-epoch truncation
// must surface as clean diagnostics (or, for EINTR, not at all).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/dataset_view.hpp"
#include "core/preprocess.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "loader/block_cache.hpp"
#include "loader/file_hooks.hpp"
#include "loader/shard_io.hpp"
#include "sim/machine.hpp"
#include "sparse/partition2d.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using namespace plexus;

namespace {

/// A fresh directory under the temp directory, removed with everything in it
/// when the test ends, a failed assertion included.
struct ScopedDir {
  std::string path;
  explicit ScopedDir(const std::string& tag)
      : path((fs::temp_directory_path() /
              ("plexus_streaming_" + tag + "_" + std::to_string(::getpid())))
                 .string()) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScopedDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  ScopedDir(const ScopedDir&) = delete;
  ScopedDir& operator=(const ScopedDir&) = delete;
};

/// Write a valid one-row adjacency block file of exactly `bytes` bytes (the
/// cache parses what it admits): the 48-byte header, two row pointers, then
/// eight bytes (column, value) per entry.
void write_block(const std::string& path, std::int64_t bytes) {
  const std::int64_t nnz = (bytes - 64) / 8;
  ASSERT_EQ(64 + 8 * nnz, bytes);
  const std::vector<std::int64_t> row_ptr{0, nnz};
  std::vector<std::int32_t> cols(static_cast<std::size_t>(nnz));
  for (std::int32_t c = 0; c < nnz; ++c) cols[static_cast<std::size_t>(c)] = c;
  const std::vector<float> vals(cols.size(), 1.0f);
  io::write_adjacency_block(path, 0, 0, nnz, row_ptr, cols, vals);
  ASSERT_EQ(static_cast<std::int64_t>(fs::file_size(path)), bytes);
}

graph::Graph make_graph(std::int64_t nodes) {
  return graph::make_proxy(graph::dataset_info("ogbn-products"), nodes, /*seed=*/1);
}

/// Small ogbn-products proxy preprocessed for a volume-4 grid, written as a
/// 4x4 shard directory — the shared dataset of the streaming tests.
core::PlexusDataset make_dataset(std::int64_t nodes = 4096,
                                 core::PermutationScheme scheme = core::PermutationScheme::Double) {
  return core::preprocess_graph(make_graph(nodes), scheme, /*num_layers=*/2,
                                /*pad_multiple=*/4, /*seed=*/7);
}

void write_shards(const core::PlexusDataset& ds, const ScopedDir& dir) {
  core::write_sharded_plexus_dataset(dir.path, ds, /*parts=*/4);
}

core::TrainOptions base_options() {
  core::TrainOptions opt;
  opt.grid = {2, 2, 1};
  opt.machine = &sim::Machine::test_machine();
  opt.model.hidden_dims = {16};
  opt.model.options.agg_row_blocks = 4;
  opt.epochs = 3;
  return opt;
}

void expect_csr_eq(const sparse::Csr& got, const sparse::Csr& want) {
  ASSERT_EQ(got.rows(), want.rows());
  ASSERT_EQ(got.cols(), want.cols());
  ASSERT_EQ(got.nnz(), want.nnz());
  const auto grp = got.row_ptr();
  const auto wrp = want.row_ptr();
  for (std::size_t i = 0; i < wrp.size(); ++i) ASSERT_EQ(grp[i], wrp[i]) << "row_ptr[" << i << "]";
  const auto gci = got.col_idx();
  const auto wci = want.col_idx();
  const auto gv = got.vals();
  const auto wv = want.vals();
  for (std::size_t k = 0; k < wci.size(); ++k) {
    ASSERT_EQ(gci[k], wci[k]) << "col_idx[" << k << "]";
    ASSERT_EQ(gv[k], wv[k]) << "vals[" << k << "]";  // bitwise: same file bytes
  }
}

std::int64_t adjacency_bytes_on_disk(const std::string& dir) {
  std::int64_t total = 0;
  for (const auto& e : fs::directory_iterator(dir)) {
    const auto name = e.path().filename().string();
    if (name.rfind("adj", 0) == 0) total += static_cast<std::int64_t>(e.file_size());
  }
  return total;
}

}  // namespace

// ---------------------------------------------------------------------------
// BlockCache unit contract
// ---------------------------------------------------------------------------

TEST(BlockCache, LruEvictionOrder) {
  const ScopedDir dir("lru");
  const auto a = dir.path + "/a.plx";
  const auto b = dir.path + "/b.plx";
  const auto c = dir.path + "/c.plx";
  write_block(a, 1000);
  write_block(b, 1000);
  write_block(c, 1000);

  io::BlockCache cache(2000);
  { auto p = cache.get(a); }
  { auto p = cache.get(b); }
  { auto p = cache.get(a); }  // touch a: b becomes least recently used
  { auto p = cache.get(c); }  // over budget: evicts b, not a
  auto s = cache.stats();
  EXPECT_EQ(s.misses, 3);
  EXPECT_EQ(s.hits, 1);
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.resident_bytes, 2000);
  EXPECT_EQ(s.peak_resident_bytes, 2000);  // trimmed before the peak is taken
  EXPECT_EQ(s.bytes_loaded, 3000);

  { auto p = cache.get(a); }  // survived the trim
  EXPECT_EQ(cache.stats().hits, 2);
  { auto p = cache.get(b); }  // was evicted: reload
  EXPECT_EQ(cache.stats().misses, 4);
}

TEST(BlockCache, PinnedBlocksSurviveBudgetZero) {
  const ScopedDir dir("pin");
  const auto a = dir.path + "/a.plx";
  const auto b = dir.path + "/b.plx";
  const auto c = dir.path + "/c.plx";
  write_block(a, 1000);
  write_block(b, 1000);
  write_block(c, 1000);

  io::BlockCache cache(0);
  auto pin = cache.get(a);  // held across the whole test: never evictable
  EXPECT_EQ(cache.stats().resident_bytes, 1000);
  { auto p = cache.get(b); }  // dropped after the statement
  { auto p = cache.get(c); }  // miss triggers trim: b goes, pinned a stays
  auto s = cache.stats();
  EXPECT_GE(s.evictions, 1);
  { auto p = cache.get(a); }  // still resident, still this mapping
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(pin->bytes, 1000);
}

TEST(BlockCache, BudgetZeroKeepsNothingUnpinned) {
  const ScopedDir dir("zero");
  const auto a = dir.path + "/a.plx";
  const auto b = dir.path + "/b.plx";
  write_block(a, 1000);
  write_block(b, 1000);

  io::BlockCache cache(0);
  { auto p = cache.get(a); }  // pinned by the return value during its own trim
  { auto p = cache.get(b); }  // next miss reclaims the dropped a
  auto s = cache.stats();
  EXPECT_EQ(s.evictions, 1);
  EXPECT_EQ(s.resident_bytes, 1000);  // just b, awaiting the next trim
  { auto p = cache.get(a); }          // a was reclaimed: miss again
  EXPECT_EQ(cache.stats().misses, 3);
  EXPECT_EQ(cache.stats().hits, 0);
}

TEST(BlockCache, MissBytesAccumulate) {
  const ScopedDir dir("bytes");
  const auto a = dir.path + "/a.plx";
  const auto b = dir.path + "/b.plx";
  write_block(a, 696);  // block sizes are whole 8-byte words
  write_block(b, 304);

  io::BlockCache cache(-1);  // unlimited
  std::int64_t bytes = 0;
  { auto p = cache.get(a, io::Orientation::Rows, &bytes); }
  EXPECT_EQ(bytes, 696);
  { auto p = cache.get(a, io::Orientation::Rows, &bytes); }  // hit: adds nothing
  EXPECT_EQ(bytes, 696);
  { auto p = cache.get(b, io::Orientation::Rows, &bytes); }  // accumulates, does not overwrite
  EXPECT_EQ(bytes, 1000);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 1000);
}

// ---------------------------------------------------------------------------
// Budgeted view: bitwise window equality + IO accounting
// ---------------------------------------------------------------------------

TEST(Streaming, BudgetedViewMatchesPlainViewBitwise) {
  // Under every scheme, both versions' windows are the same through the
  // in-memory view, a plain view and a budgeted view at three budgets.
  // Version 1 is the reference P_c A~ P_r^T built here, and version 0's
  // window with rows and columns swapped, transposed.
  for (const auto scheme : {core::PermutationScheme::None, core::PermutationScheme::Single,
                            core::PermutationScheme::Double}) {
    SCOPED_TRACE(core::scheme_name(scheme));
    const auto ds = make_dataset(4096, scheme);
    const ScopedDir dir("view");
    write_shards(ds, dir);
    const core::InMemoryDatasetView memory(ds);
    const core::ShardedDatasetView plain(dir.path);
    ASSERT_FALSE(plain.streaming());
    const std::int64_t n = plain.padded_nodes();
    const auto bounds = sparse::block_bounds(n, 3);  // misaligned with the 4x4 file grid

    const auto g = make_graph(4096);
    sparse::Coo edges = g.edges;
    edges.num_rows = n;
    edges.num_cols = n;
    const auto perms = util::scheme_permutations(static_cast<int>(scheme), n, /*seed=*/7);
    const auto odd =
        sparse::normalize_adjacency(sparse::Csr::from_coo(edges, false), g.num_nodes)
            .permuted(perms.cols, perms.rows);

    constexpr std::int64_t kRoomy = std::int64_t{64} << 20;  // holds every block
    for (const std::int64_t budget : {std::int64_t{0}, std::int64_t{1} << 20, kRoomy}) {
      SCOPED_TRACE("budget " + std::to_string(budget));
      const core::ShardedDatasetView budgeted(dir.path, budget);
      ASSERT_TRUE(budgeted.streaming());
      EXPECT_EQ(budgeted.adjacency_nnz(), ds.adj.nnz());
      for (const int version : {0, 1}) {
        for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
          for (std::size_t j = 0; j + 1 < bounds.size(); ++j) {
            const auto r0 = bounds[i], r1 = bounds[i + 1], c0 = bounds[j], c1 = bounds[j + 1];
            const auto want = memory.adjacency_block(version, r0, r1, c0, c1);
            if (version == 1) {
              expect_csr_eq(want, odd.block(r0, r1, c0, c1));
              expect_csr_eq(want, memory.adjacency_block(0, c0, c1, r0, r1).transposed());
            }
            expect_csr_eq(plain.adjacency_block(version, r0, r1, c0, c1), want);
            std::int64_t io_bytes = -1;
            expect_csr_eq(budgeted.adjacency_block_counted(version, r0, r1, c0, c1, &io_bytes),
                          want);
            ASSERT_GE(io_bytes, 0);
            io_bytes = -1;
            expect_csr_eq(budgeted.transposed_block_counted(version, r0, r1, c0, c1, &io_bytes),
                          want.transposed());
            ASSERT_GE(io_bytes, 0);
            // The window's blocks were just admitted in the other
            // orientation; with room for them this one derives from the
            // cache, not the disk.
            if (budget == kRoomy) {
              EXPECT_EQ(io_bytes, 0);
            }
          }
        }
      }
      if (budget != kRoomy) continue;
      // Everything fits under 64 MB: a repeat read is served from the cache
      // and reports zero bytes pulled from disk.
      std::int64_t again = 0;
      budgeted.adjacency_block_counted(0, 0, n, 0, n, &again);
      EXPECT_EQ(again, 0);
      budgeted.transposed_block_counted(1, 0, n, 0, n, &again);
      EXPECT_EQ(again, 0);
      const auto cs = budgeted.cache_stats();
      EXPECT_GT(cs.hits, 0);
      EXPECT_GT(cs.bytes_loaded, 0);
      EXPECT_EQ(cs.evictions, 0);
    }
  }
}

TEST(Streaming, OlderLayoutWithOddVersionFilesReadsTheSame) {
  // Older writers also stored the Double scheme's odd version, as "adjo"
  // blocks. A directory that still holds them reads bitwise-equal to one
  // without them, and from the same bytes: the "adjo" files are never read.
  const auto ds = make_dataset(2048);
  const ScopedDir current("layout_current");
  const ScopedDir older("layout_older");
  const ScopedDir odd("layout_odd");
  write_shards(ds, current);
  write_shards(ds, older);
  // The odd version's blocks, written as "adj" files and renamed to the
  // older "adjo" names.
  io::write_adjacency_blocks(odd.path, ds.adj.transposed(), 4, 4);
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      fs::rename(io::adjacency_block_path(odd.path, r, c),
                 older.path + "/adjo_" + std::to_string(r) + "_" + std::to_string(c) + ".plx");
    }
  }
  const core::ShardedDatasetView want(current.path, /*rss_budget_bytes=*/0);
  const core::ShardedDatasetView got(older.path, /*rss_budget_bytes=*/0);
  const auto bounds = sparse::block_bounds(want.padded_nodes(), 3);
  for (const int version : {0, 1}) {
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      for (std::size_t j = 0; j + 1 < bounds.size(); ++j) {
        const auto r0 = bounds[i], r1 = bounds[i + 1], c0 = bounds[j], c1 = bounds[j + 1];
        expect_csr_eq(got.adjacency_block_counted(version, r0, r1, c0, c1, nullptr),
                      want.adjacency_block_counted(version, r0, r1, c0, c1, nullptr));
        expect_csr_eq(got.transposed_block_counted(version, r0, r1, c0, c1, nullptr),
                      want.transposed_block_counted(version, r0, r1, c0, c1, nullptr));
      }
    }
  }
  EXPECT_EQ(got.cache_stats().bytes_loaded, want.cache_stats().bytes_loaded);
  EXPECT_EQ(got.cache_stats().misses, want.cache_stats().misses);
}

// ---------------------------------------------------------------------------
// Streaming epochs: bitwise-equal training under a budget
// ---------------------------------------------------------------------------

TEST(Streaming, TrainMatchesInMemoryBitwise) {
  // Both block sources of the one aggregation loop — the resident shard read
  // in place and the ShardStream prefetch window — across every volume-4
  // grid (so each axis plays P, Q and R) and adaptive plus fixed pipeline
  // depths.
  const auto ds = make_dataset();
  const ScopedDir dir("train");
  write_shards(ds, dir);
  const core::InMemoryDatasetView view(ds);
  const auto bitwise_eq = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (const auto shape : {sim::GridShape{2, 2, 1}, sim::GridShape{4, 1, 1},
                           sim::GridShape{1, 4, 1}, sim::GridShape{1, 1, 4},
                           sim::GridShape{1, 2, 2}, sim::GridShape{2, 1, 2}}) {
    for (const int depth : {-1, 1, 3}) {  // -1 = keep the adaptive default
      SCOPED_TRACE("grid " + std::to_string(shape.x) + "x" + std::to_string(shape.y) + "x" +
                   std::to_string(shape.z) + " depth " + std::to_string(depth));
      auto opt = base_options();
      opt.grid = shape;
      opt.pipeline_depth = depth;
      const auto resident = core::train_plexus(view, opt);

      auto sopt = opt;
      sopt.rss_budget_bytes = 1 << 20;  // well below the on-disk adjacency bytes
      const auto streamed = core::train_plexus_streaming(dir.path, sopt);

      ASSERT_EQ(streamed.epochs.size(), resident.epochs.size());
      for (std::size_t e = 0; e < resident.epochs.size(); ++e) {
        SCOPED_TRACE(e);
        const auto& r = resident.epochs[e];
        const auto& st = streamed.epochs[e];
        // Bitwise: streaming is a pure memory/scheduling knob. Even the
        // simulated clock matches — block loads charge the same SpMM shapes.
        EXPECT_TRUE(bitwise_eq(st.loss, r.loss));
        EXPECT_TRUE(bitwise_eq(st.train_accuracy, r.train_accuracy));
        EXPECT_TRUE(bitwise_eq(st.epoch_seconds, r.epoch_seconds));
        EXPECT_TRUE(bitwise_eq(st.comm_seconds, r.comm_seconds));
        EXPECT_TRUE(bitwise_eq(st.hidden_comm_seconds, r.hidden_comm_seconds));
        EXPECT_TRUE(bitwise_eq(st.comm_wire_bytes, r.comm_wire_bytes));
        // Resident mode never reports IO.
        EXPECT_EQ(r.io_bytes_streamed, 0.0);
        EXPECT_EQ(r.io_exposed_seconds, 0.0);
      }
      EXPECT_GT(streamed.epochs[0].io_bytes_streamed, 0.0);
    }
  }
}

TEST(Streaming, PeakCacheRespectsBudget) {
  const auto ds = make_dataset();
  const ScopedDir dir("budget");
  write_shards(ds, dir);
  const std::int64_t budget = 1 << 20;
  // An epoch reads every block in both orientations (rows for version 0's
  // forward and version 1's backward windows, transposed forms for the
  // other two), and a transposed form holds as many bytes as its file.
  ASSERT_GT(2 * adjacency_bytes_on_disk(dir.path), budget) << "budget must force eviction";

  // Through a named view (train_plexus_streaming builds its own) so the cache
  // high-water mark is still readable after the run.
  const core::ShardedDatasetView view(dir.path, budget);
  auto opt = base_options();
  opt.epochs = 2;
  opt.rss_budget_bytes = budget;  // lets the layers clamp their prefetch depth
  const auto result = core::train_plexus(view, opt);

  const auto cs = view.cache_stats();
  EXPECT_GT(cs.peak_resident_bytes, 0);
  EXPECT_LE(cs.peak_resident_bytes, budget);
  EXPECT_GT(cs.evictions, 0);
  EXPECT_GT(result.epochs[0].io_bytes_streamed, 0.0);
  // Evictions force re-reads: the later epoch still streams from disk.
  EXPECT_GT(result.epochs[1].io_bytes_streamed, 0.0);
}

TEST(Streaming, FixedPrefetchDepthIsStillBitwise) {
  const auto ds = make_dataset(2048);
  const ScopedDir dir("depth");
  write_shards(ds, dir);
  auto opt = base_options();
  opt.epochs = 2;

  const auto adaptive = core::train_plexus_streaming(dir.path, opt);
  auto fixed = opt;
  fixed.prefetch_depth = 1;  // fully serial IO
  const auto serial = core::train_plexus_streaming(dir.path, fixed);
  for (std::size_t e = 0; e < adaptive.epochs.size(); ++e) {
    EXPECT_EQ(adaptive.epochs[e].loss, serial.epochs[e].loss);
    EXPECT_EQ(adaptive.epochs[e].epoch_seconds, serial.epochs[e].epoch_seconds);
  }
}

// ---------------------------------------------------------------------------
// Fault injection through the loader seam (single rank: a thrown epoch has
// no peers to strand in a collective)
// ---------------------------------------------------------------------------

namespace {

core::TrainOptions single_rank_options() {
  auto opt = base_options();
  opt.grid = {1, 1, 1};
  opt.epochs = 1;
  return opt;
}

}  // namespace

TEST(Streaming, ShortReadInPrefetchPathThrowsCleanly) {
  const auto ds = make_dataset(2048);
  const ScopedDir dir("shortread");
  write_shards(ds, dir);

  // The view is built unhooked (the mask file is also a size-1 byte read, and
  // the fault must land in the streaming path, not metadata loading). Every
  // block pull after this point goes through MappedBlock, whose stdio
  // fallback reads the whole file in one size==1 call — the only such read
  // left once construction is done. Installing any hook also disables mmap,
  // so the fault is actually reachable.
  const core::ShardedDatasetView view(dir.path, /*rss_budget_bytes=*/-1);
  std::atomic<long> faults{0};
  io::FileHooks hooks;
  hooks.fread = [&](void* dst, std::size_t size, std::size_t count, std::FILE* f) {
    if (size == 1 && count > 1) {
      ++faults;
      return std::fread(dst, size, count / 2, f);  // short read, no errno story
    }
    return std::fread(dst, size, count, f);
  };
  io::ScopedFileHooks guard(std::move(hooks));

  EXPECT_THROW(core::train_plexus(view, single_rank_options()), std::runtime_error);
  EXPECT_GT(faults.load(), 0);
}

TEST(Streaming, EintrShortReadsAreRetriedTransparently) {
  const auto ds = make_dataset(2048);
  const ScopedDir dir("eintr");
  write_shards(ds, dir);
  const auto opt = single_rank_options();

  const auto clean = core::train_plexus_streaming(dir.path, opt);

  // Interrupt the first half of every multi-item read: a partial count with
  // the stream error flag set and errno == EINTR, exactly what a signal
  // during read(2) leaves behind. checked_fread must clear and resume, so
  // training completes bitwise-identically to the unhooked run.
  std::atomic<long> interruptions{0};
  io::FileHooks hooks;
  hooks.fread = [&](void* dst, std::size_t size, std::size_t count, std::FILE* f) {
    if (count > 1) {
      const std::size_t got = std::fread(dst, size, count / 2, f);
      const char junk = 0;
      std::fwrite(&junk, 1, 1, f);  // write to a read-only stream: error flag
      errno = EINTR;
      ++interruptions;
      return got;
    }
    return std::fread(dst, size, count, f);
  };
  core::TrainResult hooked;
  {
    io::ScopedFileHooks guard(std::move(hooks));
    hooked = core::train_plexus_streaming(dir.path, opt);
  }
  EXPECT_GT(interruptions.load(), 0);
  ASSERT_EQ(hooked.epochs.size(), clean.epochs.size());
  EXPECT_EQ(hooked.epochs[0].loss, clean.epochs[0].loss);
  EXPECT_EQ(hooked.epochs[0].train_accuracy, clean.epochs[0].train_accuracy);
}

TEST(Streaming, MidEpochTruncationThrowsCleanly) {
  const auto ds = make_dataset(2048);
  const ScopedDir dir("truncate");
  write_shards(ds, dir);
  const auto opt = single_rank_options();

  // Healthy directory trains fine.
  EXPECT_NO_THROW(core::train_plexus_streaming(dir.path, opt));

  // Truncate one adjacency block file to half, as a dying disk / torn copy
  // would. A budget-0 view re-reads every window, so the next epoch must
  // surface the truncation as a clean error — not a crash or silent zeros.
  const auto victim = dir.path + "/adj_0_0.plx";
  ASSERT_TRUE(fs::exists(victim));
  fs::resize_file(victim, fs::file_size(victim) / 2);
  auto bopt = opt;
  bopt.rss_budget_bytes = 0;
  EXPECT_THROW(core::train_plexus_streaming(dir.path, bopt), std::runtime_error);
}

TEST(Streaming, CorruptHeaderThrowsCleanly) {
  const auto ds = make_dataset(2048);
  const ScopedDir dir("corrupt");
  write_shards(ds, dir);

  // Stamp garbage over the nnz field of one block header (offset 40: magic,
  // row0, col0, rows, cols, then nnz). The streamed parser must reject it
  // instead of indexing out of bounds.
  const auto victim = dir.path + "/adj_0_0.plx";
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const std::int64_t bogus = -7;
    std::fseek(f, 40, SEEK_SET);
    std::fwrite(&bogus, sizeof(bogus), 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(core::train_plexus_streaming(dir.path, single_rank_options()), std::runtime_error);
}
