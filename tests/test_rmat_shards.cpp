// Property tests for graph::rmat_to_shards (ROADMAP item 2): the streamed,
// out-of-core generation path must produce a shard directory byte-identical
// to the in-memory reference pipeline
//
//   write_sharded_plexus_dataset(preprocess_graph(<rmat graph>, ...), parts)
//
// across scales, permutation schemes, grid sizes and spill-chunk sizes —
// including chunk sizes that split rows and blocks mid-stream. Byte equality
// of every .plx file is the strongest possible statement: any consumer
// (ShardedDatasetView, the streaming epoch, checkpoint resume) then behaves
// bitwise identically on either directory.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/dataset_view.hpp"
#include "core/preprocess.hpp"
#include "graph/datasets.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/rmat_shards.hpp"

namespace fs = std::filesystem;
using namespace plexus;

namespace {

// Rebuild the exact in-memory graph rmat_to_shards is specified against:
// graph::rmat edges + the finalize_graph recipe (datasets.cpp) via its
// public pieces.
graph::Graph reference_graph(const graph::RmatShardsSpec& spec) {
  graph::Graph g;
  g.name = "rmat-ref";
  g.num_nodes = std::int64_t{1} << spec.scale;
  g.num_classes = spec.num_classes;
  g.edges = graph::rmat(spec.scale, spec.target_edges, spec.a, spec.b, spec.c, spec.d, spec.seed);
  const auto deg = g.degrees();
  g.labels = graph::degree_based_labels(deg, spec.num_classes, spec.seed);
  g.features =
      graph::synthetic_features(g.num_nodes, spec.feature_dim, g.labels, spec.label_signal,
                                spec.seed);
  graph::make_split_masks(g.num_nodes, 0.6, 0.2, spec.seed, g.train_mask, g.val_mask,
                          g.test_mask);
  return g;
}

std::string write_reference(const graph::Graph& g, const graph::RmatShardsSpec& spec,
                            const std::string& dir) {
  const auto ds = core::preprocess_graph(g, static_cast<core::PermutationScheme>(spec.scheme),
                                         spec.num_layers, spec.pad_multiple,
                                         spec.preprocess_seed);
  core::write_sharded_plexus_dataset(dir, ds, spec.parts);
  return dir;
}

std::map<std::string, std::vector<char>> read_dir(const std::string& dir) {
  std::map<std::string, std::vector<char>> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (!entry.is_regular_file()) continue;
    std::ifstream in(entry.path(), std::ios::binary);
    files[entry.path().filename().string()] =
        std::vector<char>(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  return files;
}

void expect_dirs_identical(const std::string& got_dir, const std::string& want_dir) {
  const auto got = read_dir(got_dir);
  const auto want = read_dir(want_dir);
  ASSERT_EQ(got.size(), want.size()) << got_dir << " vs " << want_dir;
  for (const auto& [name, bytes] : want) {
    const auto it = got.find(name);
    ASSERT_NE(it, got.end()) << "missing file " << name;
    EXPECT_EQ(it->second.size(), bytes.size()) << name;
    EXPECT_TRUE(it->second == bytes) << "byte mismatch in " << name;
  }
}

std::string fresh_dir(const std::string& tag) {
  const auto dir =
      (fs::temp_directory_path() / ("plexus_rmat_shards_" + tag + "_" + std::to_string(::getpid())))
          .string();
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

graph::RmatShardsResult run_case(const std::string& tag, const graph::RmatShardsSpec& spec) {
  SCOPED_TRACE(tag);
  const auto ref_dir = fresh_dir(tag + "_ref");
  const auto got_dir = fresh_dir(tag + "_got");
  write_reference(reference_graph(spec), spec, ref_dir);
  const auto result = graph::rmat_to_shards(got_dir, spec);
  EXPECT_EQ(result.num_nodes, std::int64_t{1} << spec.scale);
  EXPECT_GT(result.num_edges, 0);
  EXPECT_GT(result.adjacency_nnz, result.num_edges);
  EXPECT_GT(result.bytes_written, 0);
  EXPECT_LE(result.attempts, spec.target_edges * graph::RmatAttempts::kCapPerEdge);
  EXPECT_FALSE(fs::exists(got_dir + "/.spill")) << "spill dir must be removed";
  expect_dirs_identical(got_dir, ref_dir);
  fs::remove_all(ref_dir);
  fs::remove_all(got_dir);
  return result;
}

// Attempts in the first replayed prefix (rmat_to_shards' round 0).
std::int64_t first_prefix(const graph::RmatShardsSpec& spec) {
  return spec.target_edges + spec.target_edges / 4 + 64;
}

}  // namespace

// Scale 14, Double permutation, 2x2 grid, spill chunk 4097: the odd chunk
// size guarantees sorted-run boundaries fall mid-row and mid-block.
TEST(RmatShards, MatchesInMemoryScale14DoubleOddChunk) {
  graph::RmatShardsSpec spec;
  spec.scale = 14;
  spec.target_edges = (std::int64_t{1} << 14) * 4;
  spec.seed = 3;
  spec.feature_dim = 12;
  spec.num_classes = 7;
  spec.scheme = 2;
  spec.num_layers = 3;
  spec.pad_multiple = 8;
  spec.preprocess_seed = 11;
  spec.parts = 2;
  spec.chunk_edges = 4097;
  run_case("s14_double", spec);
}

// Scheme None keeps natural ordering and a single adjacency version; chunk
// 1009 exercises many tiny spill runs.
TEST(RmatShards, MatchesInMemoryScale14NoneTinyChunks) {
  graph::RmatShardsSpec spec;
  spec.scale = 14;
  spec.target_edges = (std::int64_t{1} << 14) * 3;
  spec.seed = 9;
  spec.feature_dim = 5;
  spec.num_classes = 4;
  spec.scheme = 0;
  spec.num_layers = 2;
  spec.pad_multiple = 1;
  spec.preprocess_seed = 7;
  spec.parts = 1;
  spec.chunk_edges = 1009;
  run_case("s14_none", spec);
}

// Single permutation, 4x4 grid, even-layer output permutation (num_layers 3).
TEST(RmatShards, MatchesInMemoryScale16Single) {
  graph::RmatShardsSpec spec;
  spec.scale = 16;
  spec.target_edges = (std::int64_t{1} << 16) * 4;
  spec.seed = 21;
  spec.feature_dim = 16;
  spec.num_classes = 10;
  spec.scheme = 1;
  spec.num_layers = 3;
  spec.pad_multiple = 16;
  spec.preprocess_seed = 5;
  spec.parts = 4;
  spec.chunk_edges = 1 << 16;
  run_case("s16_single", spec);
}

// proxy_shards_spec must reproduce make_proxy bit for bit: same generator
// parameters, label signal and finalize recipe.
TEST(RmatShards, ProxySpecMatchesMakeProxy) {
  const auto& info = graph::dataset_info("ogbn-products");
  const std::int64_t target_nodes = 16384;
  const std::uint64_t seed = 1234;
  auto spec = graph::proxy_shards_spec(info, target_nodes, seed);
  spec.scheme = 2;
  spec.num_layers = 3;
  spec.pad_multiple = 8;
  spec.preprocess_seed = 7;
  spec.parts = 2;
  spec.chunk_edges = 1 << 15;

  const auto ref_dir = fresh_dir("proxy_ref");
  const auto got_dir = fresh_dir("proxy_got");
  const auto g = graph::make_proxy(info, target_nodes, seed);
  write_reference(g, spec, ref_dir);
  const auto result = graph::rmat_to_shards(got_dir, spec);
  expect_dirs_identical(got_dir, ref_dir);
  // The accepted edges end early in the attempt stream; replaying the whole
  // 8x cap would be about 6x the work.
  EXPECT_LT(result.attempts, spec.target_edges * 3 / 2);

  // The directory must load through the existing sharded view.
  core::ShardedDatasetView view(got_dir);
  EXPECT_EQ(view.num_nodes(), g.num_nodes);
  EXPECT_EQ(view.feature_dim(), info.feature_dim);
  fs::remove_all(ref_dir);
  fs::remove_all(got_dir);
}

// Scale 18: the size the CI streaming-smoke job trains at.
TEST(RmatShards, MatchesInMemoryScale18) {
  graph::RmatShardsSpec spec;
  spec.scale = 18;
  spec.target_edges = (std::int64_t{1} << 18) * 4;
  spec.seed = 2;
  spec.feature_dim = 8;
  spec.num_classes = 8;
  spec.scheme = 2;
  spec.num_layers = 3;
  spec.pad_multiple = 8;
  spec.preprocess_seed = 7;
  spec.parts = 4;
  spec.chunk_edges = 1 << 18;
  run_case("s18_double", spec);
}

// A dense small graph whose first prefix holds fewer than target_edges
// distinct keys, so the replay grows twice (rounds of 5,064, 10,128 and
// 20,256 attempts) and each round re-sorts the previous survivors with the
// new records. Chunk 509 spills every sorter; 1 << 20 spills none.
TEST(RmatShards, GrowsThePrefixUntilTargetEdgesAreDistinct) {
  for (const std::int64_t chunk : {std::int64_t{509}, std::int64_t{1} << 20}) {
    graph::RmatShardsSpec spec;
    spec.scale = 8;
    spec.target_edges = 4000;
    spec.seed = 4;
    spec.feature_dim = 6;
    spec.num_classes = 5;
    spec.scheme = 2;
    spec.num_layers = 3;
    spec.pad_multiple = 4;
    spec.preprocess_seed = 3;
    spec.parts = 2;
    spec.chunk_edges = chunk;
    const auto result = run_case("grow_" + std::to_string(chunk), spec);
    EXPECT_EQ(result.num_edges, spec.target_edges);
    EXPECT_GT(result.attempts, 2 * first_prefix(spec)) << "expected a third round";
    EXPECT_LT(result.attempts, spec.target_edges * graph::RmatAttempts::kCapPerEdge);
  }
}

// Scale 5 has 32 * 31 / 2 = 496 possible edges, so 600 cannot all be
// distinct: the replay must run to the 8x cap and keep every distinct key,
// as graph::rmat does.
TEST(RmatShards, ShortfallReplaysTheWholeCap) {
  for (const std::int64_t chunk : {std::int64_t{97}, std::int64_t{1} << 20}) {
    graph::RmatShardsSpec spec;
    spec.scale = 5;
    spec.target_edges = 600;
    spec.seed = 1;
    spec.feature_dim = 4;
    spec.num_classes = 3;
    spec.scheme = 1;
    spec.num_layers = 2;
    spec.pad_multiple = 2;
    spec.preprocess_seed = 9;
    spec.parts = 2;
    spec.chunk_edges = chunk;
    const auto result = run_case("short_" + std::to_string(chunk), spec);
    EXPECT_EQ(result.attempts, spec.target_edges * graph::RmatAttempts::kCapPerEdge);
    EXPECT_LT(result.num_edges, spec.target_edges);
    EXPECT_LE(result.num_edges, 496);
  }
}

// peak_buffer_bytes counts what the sorters and the block writer held, not
// what they reserved. With the default chunk every record stays in memory,
// so the figure is at most the bytes of all the records pushed: 16-byte
// (key, attempt) records into the by-key and survivor sorters, and 12-byte
// adjacency records. Each sorter reserves a whole chunk, 64 MiB of the
// former, which is far more. It is at least what was held together: every
// accepted edge in both dedup sorters, or every adjacency record.
TEST(RmatShards, PeakBufferCountsHeldRecords) {
  graph::RmatShardsSpec spec;
  spec.scale = 12;
  spec.target_edges = (std::int64_t{1} << 12) * 4;
  spec.seed = 6;
  spec.feature_dim = 4;
  spec.num_classes = 3;
  spec.pad_multiple = 4;
  spec.parts = 4;
  const auto result = run_case("peak", spec);
  ASSERT_LT(std::max(result.attempts, result.adjacency_nnz), spec.chunk_edges)
      << "every sorter must fit one chunk";
  constexpr std::int64_t kDedupRecordBytes = 16;
  constexpr std::int64_t kEdgeRecordBytes = 12;
  EXPECT_GE(result.peak_buffer_bytes, 2 * kDedupRecordBytes * result.num_edges);
  EXPECT_GE(result.peak_buffer_bytes, kEdgeRecordBytes * result.adjacency_nnz);
  EXPECT_LE(result.peak_buffer_bytes, 2 * kDedupRecordBytes * result.attempts +
                                          kEdgeRecordBytes * result.adjacency_nnz);
}
