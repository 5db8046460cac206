#pragma once
/// \file mapped_block.hpp
/// Memory-mapped .plx shard block files: every adjacency block read, blocking
/// or streamed, opens its file through here. A MappedBlock is one block file
/// held read-only in memory — mmap with a MADV_WILLNEED hint where the
/// platform has it, a plain (hookable) stdio read everywhere else. Blocks
/// are immutable once opened and reference counted: the parsed
/// io::AdjacencyBlock viewing one holds a reference, so a block the
/// BlockCache still pins, or a window is still being assembled from, can
/// never be unmapped underneath it.
///
/// ByteReader is the sequential typed cursor io::parse_adjacency_block reads
/// headers and arrays with; every advance is bounds-checked against the
/// file size captured at open, so a block truncated on disk surfaces as a
/// clean "truncated block file" error instead of a fault.

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "util/error.hpp"

namespace plexus::io {

class MappedBlock {
 public:
  /// Open (and fully fault in, on the fallback path) one block file.
  /// mmap is skipped when FileHooks are installed or PLEXUS_NO_MMAP is set,
  /// so fault injection and the portable path cover the same consumers.
  static std::shared_ptr<const MappedBlock> open(const std::string& path);

  ~MappedBlock();
  MappedBlock(const MappedBlock&) = delete;
  MappedBlock& operator=(const MappedBlock&) = delete;

  std::span<const std::byte> bytes() const { return {data_, size_}; }
  std::int64_t size_bytes() const { return static_cast<std::int64_t>(size_); }
  const std::string& path() const { return path_; }
  bool mapped() const { return map_ != nullptr; }

 private:
  MappedBlock() = default;

  std::string path_;
  void* map_ = nullptr;  // mmap base, nullptr on the heap fallback
  std::size_t map_len_ = 0;
  std::vector<std::uint64_t> heap_;  // fallback storage, 8-byte aligned
  const std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

class ByteReader {
 public:
  explicit ByteReader(const MappedBlock& block)
      : data_(block.bytes().data()), size_(block.bytes().size()), path_(&block.path()) {}

  template <typename T>
  T pod() {
    need(sizeof(T));
    T v{};
    std::memcpy(&v, data_ + off_, sizeof(T));
    off_ += sizeof(T);
    return v;
  }

  /// Zero-copy view of the next `count` elements. The .plx layouts keep
  /// every array aligned to its element size (48-byte header, then i64 /
  /// i32 / f32 runs), which the alignment check enforces.
  template <typename T>
  std::span<const T> array(std::size_t count) {
    // Divide rather than multiply: count comes from the file and
    // count * sizeof(T) can wrap.
    PLEXUS_CHECK(count <= remaining() / sizeof(T), "truncated block file " + *path_);
    const std::byte* p = data_ + off_;
    PLEXUS_CHECK(reinterpret_cast<std::uintptr_t>(p) % alignof(T) == 0,
                 "misaligned array in " + *path_);
    off_ += count * sizeof(T);
    return {reinterpret_cast<const T*>(p), count};
  }

  std::size_t offset() const { return off_; }
  std::size_t remaining() const { return size_ - off_; }

 private:
  void need(std::size_t n) {
    PLEXUS_CHECK(n <= size_ - off_, "truncated block file " + *path_);
  }

  const std::byte* data_;
  std::size_t size_;
  std::size_t off_ = 0;
  const std::string* path_;
};

}  // namespace plexus::io
