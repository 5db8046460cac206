#pragma once
/// \file block_cache.hpp
/// LRU cache of parsed adjacency blocks, bounded by the training RSS budget
/// (TrainOptions::rss_budget_bytes / --rss-budget). The
/// cache is what turns "stream every block from disk" into "stream each
/// block once per eviction window": a streaming epoch touches the same
/// adjacency blocks every layer and every epoch, and whatever fits under
/// the budget stays resident.
///
/// Entries are keyed by (path, orientation). A block is mapped, parsed and
/// validated once, when it is admitted (a block that breaks the format is
/// never admitted; the error names its file), so window requests only copy
/// rows out of it. A Rows entry is the file mapping plus views into it and
/// counts the file size against the budget; a Transposed entry owns the
/// arrays transposition built and counts those. The Transposed form is
/// derived from the Rows form fetched through the cache, so a resident Rows
/// form costs no second disk read.
///
/// Pinning: the shared_ptr returned by get() doubles as a pin. trim never
/// drops a block something else still references, so a prefetch in flight
/// (or a window mid-assembly) keeps its bytes even at budget 0; the entry is
/// reclaimed on the next trim after the last external reference dies.

#include <array>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "loader/shard_io.hpp"

namespace plexus::io {

class BlockCache {
 public:
  /// budget_bytes >= 0 bounds resident (unpinned) bytes; 0 keeps nothing
  /// once callers drop their references. budget_bytes < 0 is unlimited.
  explicit BlockCache(std::int64_t budget_bytes) : budget_(budget_bytes) {}

  /// Fetch the validated block at `path` in `orientation`, admitting it (a
  /// miss) if absent. Thread-safe; reading, parsing and transposing run
  /// outside the lock so rank threads stream concurrently. `miss_bytes`,
  /// when given, accumulates the bytes this call read from disk (0 on a hit,
  /// and for a Transposed miss whose Rows form was resident) — the
  /// EpochStats::io_bytes_streamed feed.
  std::shared_ptr<const AdjacencyBlock> get(const std::string& path,
                                            Orientation orientation = Orientation::Rows,
                                            std::int64_t* miss_bytes = nullptr);

  /// Drop least-recently-used unpinned entries until resident <= budget.
  /// Admission trims by itself; a caller that has just dropped its pins
  /// calls this so their bytes do not wait for the next admission.
  void trim();

  struct Stats {
    std::int64_t hits = 0;
    std::int64_t misses = 0;
    std::int64_t bytes_loaded = 0;         // total bytes read from disk
    std::int64_t evictions = 0;
    std::int64_t resident_bytes = 0;       // currently held by the cache
    std::int64_t peak_resident_bytes = 0;  // high-water mark after trimming
  };
  Stats stats() const;
  std::int64_t budget_bytes() const { return budget_; }

 private:
  struct Entry {
    std::string path;
    Orientation orientation;
    std::shared_ptr<const AdjacencyBlock> block;
  };
  using LruList = std::list<Entry>;
  using Index = std::unordered_map<std::string, LruList::iterator>;

  Index& index(Orientation o) { return index_[static_cast<std::size_t>(o)]; }
  void trim_locked();

  const std::int64_t budget_;
  mutable std::mutex mutex_;
  LruList lru_;  // front = most recently used
  std::array<Index, 2> index_;  // by path, one per orientation
  Stats stats_;
};

}  // namespace plexus::io
