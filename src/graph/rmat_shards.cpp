#include "graph/rmat_shards.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "loader/file_io.hpp"
#include "loader/shard_io.hpp"
#include "sparse/partition2d.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace plexus::graph {

namespace {

namespace fs = std::filesystem;

std::int64_t round_up(std::int64_t v, std::int64_t multiple) {
  return (v + multiple - 1) / multiple * multiple;
}

/// One candidate edge: its dedup key and the attempt index that produced it.
/// Keeping the index is what makes external dedup order-exact: the accepted
/// set is the first `target_edges` distinct keys in attempt order, the same
/// set the in-memory hash-set loop accepts.
struct DedupRec {
  std::uint64_t key = 0;
  std::uint64_t idx = 0;
};

struct DedupByKey {
  bool operator()(const DedupRec& x, const DedupRec& y) const {
    return x.key != y.key ? x.key < y.key : x.idx < y.idx;
  }
};

struct DedupByIdx {
  bool operator()(const DedupRec& x, const DedupRec& y) const { return x.idx < y.idx; }
};

/// One entry of the normalised, permuted adjacency: its sort key (BlockKey)
/// in two 32-bit halves, so the record stays 12 bytes, and its value.
struct EdgeRec {
  std::uint32_t key_hi = 0;
  std::uint32_t key_lo = 0;
  float val = 0.0f;
  std::uint64_t key() const { return std::uint64_t{key_hi} << 32 | key_lo; }
};

struct EdgeRecLess {
  bool operator()(const EdgeRec& x, const EdgeRec& y) const { return x.key() < y.key(); }
};

/// Sort key of an adjacency entry, computed once when the entry is pushed:
/// column block, row, and column within the block, packed from high bits to
/// low. Keys order entries as the parts x parts block files concatenate in
/// column-block-major order, each block holding its rows in order with
/// columns ascending: exactly the canonical CSR block layout
/// io::write_adjacency_blocks produces.
struct BlockKey {
  std::int64_t width;  ///< rows and columns per block
  int col_bits;        ///< bits of a column within its block
  int row_bits;        ///< bits of a row

  BlockKey(std::int64_t padded, int parts)
      : width(padded / parts),
        col_bits(std::bit_width(static_cast<std::uint64_t>(width - 1))),
        row_bits(std::bit_width(static_cast<std::uint64_t>(padded - 1))) {
    const int block_bits = std::bit_width(static_cast<std::uint64_t>(parts - 1));
    PLEXUS_CHECK(block_bits + row_bits + col_bits <= 64,
                 "rmat_to_shards: block key does not fit 64 bits");
  }

  EdgeRec rec(std::int64_t row, std::int64_t col, float val) const {
    const std::int64_t cblk = col / width;
    const std::uint64_t key = static_cast<std::uint64_t>(cblk) << (row_bits + col_bits) |
                              static_cast<std::uint64_t>(row) << col_bits |
                              static_cast<std::uint64_t>(col - cblk * width);
    return EdgeRec{static_cast<std::uint32_t>(key >> 32), static_cast<std::uint32_t>(key), val};
  }
  std::int64_t col_block(std::uint64_t key) const {
    return static_cast<std::int64_t>(key >> (row_bits + col_bits));
  }
  std::int64_t row(std::uint64_t key) const {
    return static_cast<std::int64_t>((key >> col_bits) & ((std::uint64_t{1} << row_bits) - 1));
  }
  std::int64_t col_in_block(std::uint64_t key) const {
    return static_cast<std::int64_t>(key & ((std::uint64_t{1} << col_bits) - 1));
  }
};

/// Spill-to-disk sorter: buffer up to `max_buffered` records, sort + spill
/// sorted runs, k-way merge on the final sweep. Runs entirely in memory when
/// everything fits in one buffer. Every spilled run stays open during merge,
/// so callers should keep total records / max_buffered comfortably below the
/// process fd limit.
template <typename Rec, typename Less>
class ExternalSorter {
 public:
  ExternalSorter(std::string run_prefix, std::size_t max_buffered, Less less)
      : prefix_(std::move(run_prefix)),
        max_buffered_(std::max<std::size_t>(max_buffered, 2)),
        less_(less) {
    buf_.reserve(max_buffered_);
  }
  ~ExternalSorter() {
    for (std::size_t i = 0; i < num_runs_; ++i) {
      std::error_code ec;
      fs::remove(run_path(i), ec);
    }
  }
  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  void push(const Rec& r) {
    buf_.push_back(r);
    if (buf_.size() >= max_buffered_) spill();
  }

  /// Most bytes of records the sorter has held at once: its fullest buffer,
  /// plus the run read buffers once merge() reads spilled runs. Only these
  /// pages are touched; the buffer's reserved capacity is not counted.
  std::int64_t peak_bytes() const {
    const std::size_t held = std::max(held_peak_, buf_.size()) + merge_held_;
    return static_cast<std::int64_t>(held * sizeof(Rec));
  }

  /// Single sorted sweep over everything pushed; fn returning false stops
  /// early. The sorter is consumed.
  template <typename Fn>
  void merge(Fn&& fn) {
    if (num_runs_ == 0) {
      held_peak_ = std::max(held_peak_, buf_.size());
      std::sort(buf_.begin(), buf_.end(), less_);
      for (const auto& r : buf_) {
        if (!fn(r)) break;
      }
      buf_.clear();
      buf_.shrink_to_fit();
      return;
    }
    spill();  // the last records become one more sorted run
    struct Run {
      io::File file;
      std::vector<Rec> buf;
      std::size_t pos = 0;
      std::size_t len = 0;
    };
    std::vector<Run> runs;
    runs.reserve(num_runs_);
    for (std::size_t i = 0; i < num_runs_; ++i) {
      runs.push_back(Run{io::open_file(run_path(i), "rb"),
                         std::vector<Rec>(std::size_t{1} << 13), 0, 0});
      merge_held_ += runs.back().buf.size();
    }
    auto refill = [](Run& run) {
      run.len = io::checked_fread(run.buf.data(), sizeof(Rec), run.buf.size(), run.file.get());
      run.pos = 0;
      return run.len > 0;
    };
    struct Head {
      Rec rec;
      std::size_t run;
    };
    // std::push_heap builds a max-heap, so "after" = strictly greater under
    // less_, ties broken toward the earlier run (= push order).
    auto heap_after = [this](const Head& x, const Head& y) {
      if (less_(y.rec, x.rec)) return true;
      if (less_(x.rec, y.rec)) return false;
      return x.run > y.run;
    };
    std::vector<Head> heap;
    for (std::size_t i = 0; i < runs.size(); ++i) {
      if (refill(runs[i])) heap.push_back(Head{runs[i].buf[runs[i].pos++], i});
    }
    std::make_heap(heap.begin(), heap.end(), heap_after);
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_after);
      Head h = heap.back();
      heap.pop_back();
      if (!fn(h.rec)) break;
      Run& run = runs[h.run];
      if (run.pos < run.len || refill(run)) {
        heap.push_back(Head{run.buf[run.pos++], h.run});
        std::push_heap(heap.begin(), heap.end(), heap_after);
      }
    }
  }

 private:
  std::string run_path(std::size_t i) const {
    return prefix_ + "_" + std::to_string(i) + ".run";
  }
  void spill() {
    if (buf_.empty()) return;
    held_peak_ = std::max(held_peak_, buf_.size());
    std::sort(buf_.begin(), buf_.end(), less_);
    auto f = io::open_file(run_path(num_runs_), "wb");
    io::write_array(f.get(), buf_.data(), buf_.size());
    f.close();
    ++num_runs_;
    buf_.clear();
  }

  std::string prefix_;
  std::size_t max_buffered_;
  Less less_;
  std::vector<Rec> buf_;
  std::size_t num_runs_ = 0;
  std::size_t held_peak_ = 0;   ///< most records buffered at once
  std::size_t merge_held_ = 0;  ///< records in merge()'s run read buffers
};

/// The spill directory, created on construction and removed with everything
/// in it on every exit path, a throw included.
struct SpillDir {
  std::string path;
  explicit SpillDir(std::string p) : path(std::move(p)) { fs::create_directories(path); }
  ~SpillDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  SpillDir(const SpillDir&) = delete;
  SpillDir& operator=(const SpillDir&) = delete;
};

/// Stream-write the adjacency as a parts x parts grid of "adj" block files,
/// byte-identical to io::write_adjacency_blocks over the assembled CSR.
/// `sorter` holds the EdgeRecs in BlockKey order, i.e. exactly one block
/// file's content at a time. `block_bytes` receives the most bytes one
/// block's arrays held.
std::int64_t write_blocks_streamed(const std::string& dir, int parts, const BlockKey& layout,
                                   ExternalSorter<EdgeRec, EdgeRecLess>& sorter,
                                   std::int64_t* block_bytes) {
  const std::int64_t w = layout.width;
  const std::int64_t total_blocks = static_cast<std::int64_t>(parts) * parts;

  std::vector<std::int64_t> counts(static_cast<std::size_t>(w), 0);
  std::vector<std::int32_t> col_idx;
  std::vector<float> vals;
  std::int64_t nnz_total = 0;
  // Stream order is column-block major (the sort key), so the linear block
  // index is cblk * parts + rblk; decode r/c from it when flushing.
  std::int64_t cur = 0;

  auto flush_current = [&] {
    const std::int64_t r = cur % parts;
    const std::int64_t c = cur / parts;
    std::vector<std::int64_t> row_ptr(static_cast<std::size_t>(w) + 1, 0);
    for (std::int64_t i = 0; i < w; ++i) {
      row_ptr[static_cast<std::size_t>(i) + 1] =
          row_ptr[static_cast<std::size_t>(i)] + counts[static_cast<std::size_t>(i)];
    }
    io::write_adjacency_block(io::adjacency_block_path(dir, static_cast<int>(r),
                                                       static_cast<int>(c)),
                              r * w, c * w, w, row_ptr, col_idx, vals);
    nnz_total += static_cast<std::int64_t>(col_idx.size());
    *block_bytes = std::max(*block_bytes,
                            static_cast<std::int64_t>(col_idx.size() * 8 + row_ptr.size() * 8));
    std::fill(counts.begin(), counts.end(), 0);
    col_idx.clear();
    vals.clear();
    ++cur;
  };

  sorter.merge([&](const EdgeRec& e) {
    const std::uint64_t key = e.key();
    const std::int64_t row = layout.row(key);
    const std::int64_t rblk = row / w;
    const std::int64_t blk = layout.col_block(key) * parts + rblk;
    while (cur < blk) flush_current();
    counts[static_cast<std::size_t>(row - rblk * w)]++;
    col_idx.push_back(static_cast<std::int32_t>(layout.col_in_block(key)));
    vals.push_back(e.val);
    return true;
  });
  while (cur < total_blocks) flush_current();
  return nnz_total;
}

}  // namespace

RmatShardsSpec proxy_shards_spec(const DatasetInfo& info, std::int64_t target_nodes,
                                 std::uint64_t seed) {
  PLEXUS_CHECK(target_nodes >= 64, "proxy too small");
  PLEXUS_CHECK(info.kind == GraphClass::Social || info.kind == GraphClass::CoPurchase ||
                   info.kind == GraphClass::Citation,
               "proxy_shards_spec: only the power-law (RMAT) dataset classes stream to disk");
  const double avg_deg = info.avg_degree();
  RmatShardsSpec spec;
  spec.scale = static_cast<int>(std::ceil(std::log2(static_cast<double>(target_nodes))));
  const auto n = std::int64_t{1} << spec.scale;
  spec.target_edges = static_cast<std::int64_t>(static_cast<double>(n) * avg_deg / 2.0);
  spec.a = info.kind == GraphClass::Social ? 0.55 : 0.57;
  spec.b = 0.19;
  spec.c = 0.19;
  spec.d = 1.0 - spec.a - 0.38;
  spec.seed = seed;
  spec.feature_dim = info.feature_dim;
  spec.num_classes = info.num_classes;
  spec.label_signal = 0.5f;
  return spec;
}

RmatShardsResult rmat_to_shards(const std::string& dir, const RmatShardsSpec& spec) {
  PLEXUS_CHECK(spec.scale >= 1 && spec.scale < 31, "rmat scale out of range");
  PLEXUS_CHECK(std::abs(spec.a + spec.b + spec.c + spec.d - 1.0) < 1e-9,
               "rmat probabilities must sum to 1");
  PLEXUS_CHECK(spec.target_edges > 0, "rmat_to_shards: target_edges must be positive");
  PLEXUS_CHECK(spec.parts > 0, "rmat_to_shards: parts must be positive");
  PLEXUS_CHECK(spec.num_layers >= 1, "need at least one layer");
  PLEXUS_CHECK(spec.scheme >= 0 && spec.scheme <= 2, "rmat_to_shards: bad scheme");
  PLEXUS_CHECK(spec.feature_dim >= 1 && spec.num_classes >= 1, "rmat_to_shards: bad dims");

  const std::int64_t n = std::int64_t{1} << spec.scale;
  const std::int64_t padded = round_up(n, std::max<std::int64_t>(1, spec.pad_multiple));
  const std::int64_t padded_dim =
      round_up(spec.feature_dim, std::max<std::int64_t>(1, spec.pad_multiple));
  PLEXUS_CHECK(padded % spec.parts == 0,
               "rmat_to_shards: parts must divide padded nodes (set pad_multiple to the grid "
               "volume)");

  fs::create_directories(dir);
  const SpillDir spill_dir(spec.tmp_dir.empty() ? dir + "/.spill" : spec.tmp_dir);
  const std::string& spill = spill_dir.path;
  const auto chunk_records =
      static_cast<std::size_t>(std::max<std::int64_t>(spec.chunk_edges, 16));

  RmatShardsResult result;
  result.num_nodes = n;
  result.padded_nodes = padded;

  // ---- Phase A: the accepted edges are the first target_edges distinct
  // keys of the RmatAttempts stream within its cap (graph::rmat's hash-set
  // loop). Find them by external sort over a prefix of the stream. Each
  // round replays attempts up to `end` as (key, attempt index) records into
  // a by-key sorter and keeps the first record per key: the survivors, each
  // distinct key of [0, end) at its first attempt. Round 0 ends at about
  // 1.25 * target_edges. A round with fewer than target_edges survivors
  // continues the same stream to min(cap, 2 * end) and sorts its survivors
  // together with the new records; every survivor's index is below every
  // new attempt's, so the first record per key is still the key's first
  // attempt in [0, end).
  //
  // Why a prefix is exact: with at least target_edges survivors, the
  // target_edges-th distinct key of the stream first appears before `end`,
  // so the first target_edges survivors in attempt order (Phase B) are
  // exactly the keys graph::rmat accepts; later attempts cannot change them.
  // A stream with fewer distinct keys than that within the cap stops at the
  // cap, as graph::rmat does, and both keep every distinct key.
  const std::string edges_path = spill + "/edges.bin";
  std::vector<std::int64_t> deg(static_cast<std::size_t>(n), 0);
  {
    RmatAttempts stream(spec.scale, spec.a, spec.b, spec.c, spec.seed);
    const std::int64_t cap = spec.target_edges * RmatAttempts::kCapPerEdge;
    std::int64_t end = std::min(cap, spec.target_edges + spec.target_edges / 4 + 64);
    std::optional<ExternalSorter<DedupRec, DedupByIdx>> survivors;
    for (int round = 0;; ++round) {
      const std::string tag = std::to_string(round);
      ExternalSorter<DedupRec, DedupByKey> by_key(spill + "/bykey" + tag, chunk_records,
                                                  DedupByKey{});
      std::int64_t carried_bytes = 0;  // the previous survivors, alive during the carry-over
      if (survivors) {
        survivors->merge([&](const DedupRec& r) {
          by_key.push(r);
          return true;
        });
        carried_bytes = survivors->peak_bytes();
        survivors.reset();
      }
      for (; result.attempts < end; ++result.attempts) {
        const auto [u, v] = stream.next();
        if (u == v) continue;  // the draws are consumed, exactly like graph::rmat
        by_key.push(DedupRec{edge_key(u, v), static_cast<std::uint64_t>(result.attempts)});
      }
      survivors.emplace(spill + "/byidx" + tag, chunk_records, DedupByIdx{});
      std::int64_t distinct = 0;
      std::uint64_t prev_key = 0;
      by_key.merge([&](const DedupRec& r) {
        if (distinct == 0 || r.key != prev_key) {
          survivors->push(r);
          prev_key = r.key;
          ++distinct;
        }
        return true;
      });
      result.peak_buffer_bytes =
          std::max(result.peak_buffer_bytes,
                   by_key.peak_bytes() + std::max(carried_bytes, survivors->peak_bytes()));
      if (distinct >= spec.target_edges || end == cap) break;
      end = std::min(cap, 2 * end);
    }

    // ---- Phase B: the survivors in attempt order; the first target_edges
    // become the accepted edge list, streamed to a flat file while node
    // degrees accumulate.
    auto out = io::open_file(edges_path, "wb");
    std::vector<std::int32_t> wbuf;
    wbuf.reserve(std::size_t{1} << 16);
    std::int64_t accepted = 0;
    survivors->merge([&](const DedupRec& r) {
      const auto u = static_cast<std::int64_t>(r.key >> 32);
      const auto v = static_cast<std::int64_t>(r.key & 0xffffffffULL);
      deg[static_cast<std::size_t>(u)]++;
      deg[static_cast<std::size_t>(v)]++;
      wbuf.push_back(static_cast<std::int32_t>(u));
      wbuf.push_back(static_cast<std::int32_t>(v));
      if (wbuf.size() == wbuf.capacity()) {
        io::write_array(out.get(), wbuf.data(), wbuf.size());
        wbuf.clear();
      }
      ++accepted;
      return accepted < spec.target_edges;
    });
    io::write_array(out.get(), wbuf.data(), wbuf.size());
    out.close();
    result.num_edges = accepted;
  }

  // ---- Phase C: node-level derivations, exactly the finalize_graph +
  // preprocess_graph recipes (datasets.cpp / preprocess.cpp).
  const auto labels = degree_based_labels(deg, spec.num_classes, spec.seed);
  std::vector<double> inv_sqrt(static_cast<std::size_t>(n));
  for (std::int64_t r = 0; r < n; ++r) {
    // normalize_adjacency's degree of (A + I): 1.0 for the active row plus
    // 1.0 per off-diagonal entry, accumulated in double.
    const double degree = 1.0 + static_cast<double>(deg[static_cast<std::size_t>(r)]);
    inv_sqrt[static_cast<std::size_t>(r)] = 1.0 / std::sqrt(degree);
  }

  const auto perms = util::scheme_permutations(spec.scheme, padded, spec.preprocess_seed);
  const auto& p_r = perms.rows;
  const auto& p_c = perms.cols;
  const auto p_c_inv = util::invert_permutation(p_c);

  std::vector<std::uint8_t> train;
  std::vector<std::uint8_t> val;
  std::vector<std::uint8_t> test;
  make_split_masks(n, 0.6, 0.2, spec.seed, train, val, test);
  std::int64_t train_total = 0;
  for (const auto m : train) train_total += m != 0 ? 1 : 0;

  // ---- Phase D: the adjacency streams edges.bin through an external sort
  // into block files. Both directions of every edge plus the self-loop row
  // get the normalize_adjacency value, computed with the same
  // double-precision expression so the floats match bit for bit. The Double
  // scheme's odd version is this matrix's transpose, which readers derive.
  const BlockKey layout(padded, spec.parts);
  {
    ExternalSorter<EdgeRec, EdgeRecLess> sorter(spill + "/adj", chunk_records, EdgeRecLess{});
    {
      auto in = io::open_file(edges_path, "rb");
      std::vector<std::int32_t> rbuf(std::size_t{1} << 16);
      for (;;) {
        const std::size_t got =
            io::checked_fread(rbuf.data(), sizeof(std::int32_t), rbuf.size(), in.get());
        if (got == 0) break;
        PLEXUS_CHECK(got % 2 == 0, "rmat_to_shards: odd edge record in " + edges_path);
        for (std::size_t i = 0; i < got; i += 2) {
          const auto u = static_cast<std::size_t>(rbuf[i]);
          const auto v = static_cast<std::size_t>(rbuf[i + 1]);
          const auto w = static_cast<float>(inv_sqrt[u] * inv_sqrt[v]);
          sorter.push(layout.rec(p_r[u], p_c[v], w));
          sorter.push(layout.rec(p_r[v], p_c[u], w));
        }
      }
    }
    for (std::size_t r = 0; r < inv_sqrt.size(); ++r) {
      const auto w = static_cast<float>(inv_sqrt[r] * inv_sqrt[r]);
      sorter.push(layout.rec(p_r[r], p_c[r], w));
    }
    std::int64_t block_bytes = 0;
    result.adjacency_nnz = write_blocks_streamed(dir, spec.parts, layout, sorter, &block_bytes);
    result.peak_buffer_bytes =
        std::max(result.peak_buffer_bytes, sorter.peak_bytes() + block_bytes);
  }

  // ---- Phase E: metadata, labels, masks, features — small or streamed.
  io::write_meta(dir, io::ShardedMeta{padded, padded_dim, spec.num_classes, spec.parts,
                                      spec.parts, result.adjacency_nnz});
  {
    // Labels and masks live in the final layer's output permutation.
    const auto& p_out = perms.output(spec.num_layers);
    std::vector<std::int32_t> labels_out(static_cast<std::size_t>(padded), 0);
    io::ShardedMasks masks;
    masks.train.assign(static_cast<std::size_t>(padded), 0);
    masks.val.assign(static_cast<std::size_t>(padded), 0);
    masks.test.assign(static_cast<std::size_t>(padded), 0);
    for (std::int64_t u = 0; u < n; ++u) {
      const auto dst = static_cast<std::size_t>(p_out[static_cast<std::size_t>(u)]);
      labels_out[dst] = labels[static_cast<std::size_t>(u)];
      masks.train[dst] = train[static_cast<std::size_t>(u)];
      masks.val[dst] = val[static_cast<std::size_t>(u)];
      masks.test[dst] = test[static_cast<std::size_t>(u)];
    }
    io::write_labels(dir, labels_out);
    io::write_masks(dir, masks);
  }
  {
    io::PlexusShardMeta pm;
    pm.valid_nodes = n;
    pm.valid_feature_dim = spec.feature_dim;
    pm.train_total = train_total;
    pm.scheme = static_cast<std::int32_t>(spec.scheme);
    pm.adjacency_versions = spec.scheme == 2 ? 2 : 1;
    io::write_plexus_meta(dir, pm);
  }
  {
    // Feature row stripes, one row at a time: row p_c[u] carries node u's
    // synthetic features (graph.cpp recipe), padding rows stay zero.
    const util::CounterRng rng(util::hash_combine(spec.seed, 0xfea7));
    const auto rb = sparse::block_bounds(padded, spec.parts);
    std::vector<float> row(static_cast<std::size_t>(padded_dim), 0.0f);
    const auto row_at = [&](std::int64_t dst) {
      std::fill(row.begin(), row.end(), 0.0f);
      const auto u = p_c_inv[static_cast<std::size_t>(dst)];
      if (u < n) {
        for (std::int64_t k = 0; k < spec.feature_dim; ++k) {
          row[static_cast<std::size_t>(k)] =
              rng.uniform_at(static_cast<std::uint64_t>(u * spec.feature_dim + k), -1.0f, 1.0f);
        }
        if (spec.label_signal != 0.0f) {
          row[static_cast<std::size_t>(labels[static_cast<std::size_t>(u)] %
                                       spec.feature_dim)] += spec.label_signal;
        }
      }
      return row.data();
    };
    for (int r = 0; r < spec.parts; ++r) {
      const auto r0 = rb[static_cast<std::size_t>(r)];
      io::write_feature_block(io::feature_block_path(dir, r), r0,
                              rb[static_cast<std::size_t>(r) + 1] - r0, padded_dim, row_at);
    }
  }

  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      result.bytes_written += static_cast<std::int64_t>(entry.file_size());
    }
  }
  return result;
}

}  // namespace plexus::graph
