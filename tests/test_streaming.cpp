// Out-of-core streaming epochs (ROADMAP item 2): the budgeted
// ShardedDatasetView + ShardStream path must be a pure memory/scheduling
// knob — bitwise-identical losses, accuracies and simulated clocks against
// the fully resident run — while holding the block cache under the RSS
// budget. Plus the LRU BlockCache unit contract and the loader fault-
// injection seam: short reads, EINTR interruptions and mid-epoch truncation
// must surface as clean diagnostics (or, for EINTR, not at all).
#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <string>

#include "core/dataset_view.hpp"
#include "core/preprocess.hpp"
#include "core/trainer.hpp"
#include "graph/datasets.hpp"
#include "loader/block_cache.hpp"
#include "loader/file_hooks.hpp"
#include "sim/machine.hpp"
#include "sparse/partition2d.hpp"

namespace fs = std::filesystem;
using namespace plexus;

namespace {

std::string fresh_dir(const std::string& tag) {
  const auto dir = (fs::temp_directory_path() / ("plexus_streaming_" + tag)).string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

void write_file(const std::string& path, std::size_t bytes) {
  std::ofstream out(path, std::ios::binary);
  const std::string chunk(bytes, 'x');
  out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
}

/// Small ogbn-products proxy preprocessed for a volume-4 grid, written as a
/// 4x4 shard directory — the shared dataset of the streaming tests.
core::PlexusDataset make_dataset(std::int64_t nodes = 4096) {
  const auto& info = graph::dataset_info("ogbn-products");
  const auto g = graph::make_proxy(info, nodes, /*seed=*/1);
  return core::preprocess_graph(g, core::PermutationScheme::Double, /*num_layers=*/2,
                                /*pad_multiple=*/4, /*seed=*/7);
}

std::string write_shards(const core::PlexusDataset& ds, const std::string& tag) {
  const auto dir = fresh_dir(tag);
  core::write_sharded_plexus_dataset(dir, ds, /*parts=*/4);
  return dir;
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
  const auto dir = fresh_dir("lru");
  const auto a = dir + "/a.plx";
  const auto b = dir + "/b.plx";
  const auto c = dir + "/c.plx";
  write_file(a, 1000);
  write_file(b, 1000);
  write_file(c, 1000);

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
  const auto dir = fresh_dir("pin");
  const auto a = dir + "/a.plx";
  const auto b = dir + "/b.plx";
  const auto c = dir + "/c.plx";
  write_file(a, 1000);
  write_file(b, 1000);
  write_file(c, 1000);

  io::BlockCache cache(0);
  auto pin = cache.get(a);  // held across the whole test: never evictable
  EXPECT_EQ(cache.stats().resident_bytes, 1000);
  { auto p = cache.get(b); }  // dropped after the statement
  { auto p = cache.get(c); }  // miss triggers trim: b goes, pinned a stays
  auto s = cache.stats();
  EXPECT_GE(s.evictions, 1);
  { auto p = cache.get(a); }  // still resident, still this mapping
  EXPECT_EQ(cache.stats().hits, 1);
  EXPECT_EQ(pin->size_bytes(), 1000);
}

TEST(BlockCache, BudgetZeroKeepsNothingUnpinned) {
  const auto dir = fresh_dir("zero");
  const auto a = dir + "/a.plx";
  const auto b = dir + "/b.plx";
  write_file(a, 1000);
  write_file(b, 1000);

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
  const auto dir = fresh_dir("bytes");
  const auto a = dir + "/a.plx";
  const auto b = dir + "/b.plx";
  write_file(a, 700);
  write_file(b, 300);

  io::BlockCache cache(-1);  // unlimited
  std::int64_t bytes = 0;
  { auto p = cache.get(a, &bytes); }
  EXPECT_EQ(bytes, 700);
  { auto p = cache.get(a, &bytes); }  // hit: adds nothing
  EXPECT_EQ(bytes, 700);
  { auto p = cache.get(b, &bytes); }  // accumulates, does not overwrite
  EXPECT_EQ(bytes, 1000);
  EXPECT_EQ(cache.stats().evictions, 0);
  EXPECT_EQ(cache.stats().resident_bytes, 1000);
}

// ---------------------------------------------------------------------------
// Budgeted view: bitwise window equality + IO accounting
// ---------------------------------------------------------------------------

TEST(Streaming, BudgetedViewMatchesPlainViewBitwise) {
  const auto ds = make_dataset();
  const auto dir = write_shards(ds, "view");
  const core::ShardedDatasetView plain(dir);
  const core::ShardedDatasetView budgeted(dir, /*rss_budget_bytes=*/64 << 20);
  ASSERT_TRUE(budgeted.streaming());
  ASSERT_FALSE(plain.streaming());
  EXPECT_EQ(budgeted.adjacency_nnz(), ds.adj_even.nnz());

  const std::int64_t n = plain.padded_nodes();
  const auto bounds = sparse::block_bounds(n, 3);  // misaligned with the 4x4 file grid
  for (const int version : {0, 1}) {
    for (std::size_t i = 0; i + 1 < bounds.size(); ++i) {
      for (std::size_t j = 0; j + 1 < bounds.size(); ++j) {
        std::int64_t io_bytes = -1;
        const auto got = budgeted.adjacency_block_counted(version, bounds[i], bounds[i + 1],
                                                          bounds[j], bounds[j + 1], &io_bytes);
        const auto want = plain.adjacency_block(version, bounds[i], bounds[i + 1], bounds[j],
                                                bounds[j + 1]);
        ASSERT_GE(io_bytes, 0);
        expect_csr_eq(got, want);
      }
    }
  }
  // Everything fits under 64 MB: a repeat read is served from the cache and
  // reports zero bytes pulled from disk.
  std::int64_t again = 0;
  budgeted.adjacency_block_counted(0, 0, n, 0, n, &again);
  EXPECT_EQ(again, 0);
  const auto cs = budgeted.cache_stats();
  EXPECT_GT(cs.hits, 0);
  EXPECT_GT(cs.bytes_loaded, 0);
  EXPECT_EQ(cs.evictions, 0);
  fs::remove_all(dir);
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
  const auto dir = write_shards(ds, "train");
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
      const auto resident = core::train_plexus(ds, opt);

      auto sopt = opt;
      sopt.rss_budget_bytes = 1 << 20;  // well below the on-disk adjacency bytes
      const auto streamed = core::train_plexus_streaming(dir, sopt);

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
  fs::remove_all(dir);
}

TEST(Streaming, PeakCacheRespectsBudget) {
  const auto ds = make_dataset();
  const auto dir = write_shards(ds, "budget");
  const std::int64_t budget = 1 << 20;
  ASSERT_GT(adjacency_bytes_on_disk(dir), budget) << "budget must force eviction";

  // Through a named view (train_plexus_streaming builds its own) so the cache
  // high-water mark is still readable after the run.
  const core::ShardedDatasetView view(dir, budget);
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
  fs::remove_all(dir);
}

TEST(Streaming, FixedPrefetchDepthIsStillBitwise) {
  const auto ds = make_dataset(2048);
  const auto dir = write_shards(ds, "depth");
  auto opt = base_options();
  opt.epochs = 2;

  const auto adaptive = core::train_plexus_streaming(dir, opt);
  auto fixed = opt;
  fixed.prefetch_depth = 1;  // fully serial IO
  const auto serial = core::train_plexus_streaming(dir, fixed);
  for (std::size_t e = 0; e < adaptive.epochs.size(); ++e) {
    EXPECT_EQ(adaptive.epochs[e].loss, serial.epochs[e].loss);
    EXPECT_EQ(adaptive.epochs[e].epoch_seconds, serial.epochs[e].epoch_seconds);
  }
  fs::remove_all(dir);
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
  const auto dir = write_shards(ds, "shortread");

  // The view is built unhooked (the mask file is also a size-1 byte read, and
  // the fault must land in the streaming path, not metadata loading). Every
  // block pull after this point goes through MappedBlock, whose stdio
  // fallback reads the whole file in one size==1 call — the only such read
  // left once construction is done. Installing any hook also disables mmap,
  // so the fault is actually reachable.
  const core::ShardedDatasetView view(dir, /*rss_budget_bytes=*/-1);
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
  fs::remove_all(dir);
}

TEST(Streaming, EintrShortReadsAreRetriedTransparently) {
  const auto ds = make_dataset(2048);
  const auto dir = write_shards(ds, "eintr");
  const auto opt = single_rank_options();

  const auto clean = core::train_plexus_streaming(dir, opt);

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
    hooked = core::train_plexus_streaming(dir, opt);
  }
  EXPECT_GT(interruptions.load(), 0);
  ASSERT_EQ(hooked.epochs.size(), clean.epochs.size());
  EXPECT_EQ(hooked.epochs[0].loss, clean.epochs[0].loss);
  EXPECT_EQ(hooked.epochs[0].train_accuracy, clean.epochs[0].train_accuracy);
  fs::remove_all(dir);
}

TEST(Streaming, MidEpochTruncationThrowsCleanly) {
  const auto ds = make_dataset(2048);
  const auto dir = write_shards(ds, "truncate");
  const auto opt = single_rank_options();

  // Healthy directory trains fine.
  EXPECT_NO_THROW(core::train_plexus_streaming(dir, opt));

  // Truncate one adjacency block file to half, as a dying disk / torn copy
  // would. A budget-0 view re-reads every window, so the next epoch must
  // surface the truncation as a clean error — not a crash or silent zeros.
  const auto victim = dir + "/adj_0_0.plx";
  ASSERT_TRUE(fs::exists(victim));
  fs::resize_file(victim, fs::file_size(victim) / 2);
  auto bopt = opt;
  bopt.rss_budget_bytes = 0;
  EXPECT_THROW(core::train_plexus_streaming(dir, bopt), std::runtime_error);
  fs::remove_all(dir);
}

TEST(Streaming, CorruptHeaderThrowsCleanly) {
  const auto ds = make_dataset(2048);
  const auto dir = write_shards(ds, "corrupt");

  // Stamp garbage over the nnz field of one block header (offset 40: magic,
  // row0, col0, rows, cols, then nnz). The streamed parser must reject it
  // instead of indexing out of bounds.
  const auto victim = dir + "/adj_0_0.plx";
  {
    std::FILE* f = std::fopen(victim.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    const std::int64_t bogus = -7;
    std::fseek(f, 40, SEEK_SET);
    std::fwrite(&bogus, sizeof(bogus), 1, f);
    std::fclose(f);
  }
  EXPECT_THROW(core::train_plexus_streaming(dir, single_rank_options()), std::runtime_error);
  fs::remove_all(dir);
}
