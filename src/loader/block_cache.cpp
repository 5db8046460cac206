#include "loader/block_cache.hpp"

#include <algorithm>
#include <utility>

namespace plexus::io {

std::shared_ptr<const AdjacencyBlock> BlockCache::get(const std::string& path,
                                                      Orientation orientation,
                                                      std::int64_t* miss_bytes) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index(orientation).find(path); it != index(orientation).end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch: move to front
      ++stats_.hits;
      return lru_.front().block;
    }
  }
  // Admit outside the lock so rank threads overlap their reads and parses.
  // Two threads racing on the same key both pay the admission; the first
  // insert wins and the loser adopts it, so the cache never holds
  // duplicates. A Transposed miss reads no file of its own: its Rows form
  // comes through the cache (counting its own hit or miss and disk bytes)
  // and stays pinned until the transpose is built.
  std::shared_ptr<const AdjacencyBlock> block;
  std::int64_t read = 0;
  if (orientation == Orientation::Rows) {
    auto file = MappedBlock::open(path);
    read = file->size_bytes();
    block = parse_adjacency_block(std::move(file));
  } else {
    block = transpose_adjacency_block(*get(path, Orientation::Rows, miss_bytes));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.misses;
  stats_.bytes_loaded += read;
  if (miss_bytes != nullptr) *miss_bytes += read;
  if (const auto it = index(orientation).find(path); it != index(orientation).end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return lru_.front().block;
  }
  // Insert a second reference and keep `block` as the caller's pin: trim
  // must see use_count > 1 so the entry being handed out is never evicted
  // out from under its own get() (budget 0 would otherwise drop it here).
  lru_.push_front(Entry{path, orientation, block});
  index(orientation).emplace(path, lru_.begin());
  stats_.resident_bytes += block->bytes;
  trim_locked();
  stats_.peak_resident_bytes = std::max(stats_.peak_resident_bytes, stats_.resident_bytes);
  return block;
}

void BlockCache::trim() {
  std::lock_guard<std::mutex> lock(mutex_);
  trim_locked();
}

void BlockCache::trim_locked() {
  if (budget_ < 0) return;  // unlimited
  auto it = lru_.end();
  while (stats_.resident_bytes > budget_ && it != lru_.begin()) {
    --it;
    // use_count() == 1 means only the cache holds it; anything higher is a
    // pinned in-flight block that must survive the trim.
    if (it->block.use_count() > 1) continue;
    stats_.resident_bytes -= it->block->bytes;
    ++stats_.evictions;
    index(it->orientation).erase(it->path);
    it = lru_.erase(it);
  }
}

BlockCache::Stats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

}  // namespace plexus::io
