// Block-granular allocator over a bdev's LBA space.
//
// The VOS data path places large extents on NVMe; this allocator hands out
// LBA-aligned regions from a best-fit, coalescing free-extent list (a
// simplified SPDK blobstore cluster allocator).
#pragma once

#include <cstdint>
#include <map>

#include "common/free_extents.h"
#include "common/status.h"

namespace ros2::daos {

class NvmeAllocator {
 public:
  /// Manages [base, base + capacity) in units of `block_size` bytes.
  /// A non-zero base lets several targets partition one shared device.
  NvmeAllocator(std::uint64_t base, std::uint64_t capacity,
                std::uint32_t block_size);

  /// Allocates >= `size` bytes (rounded up to blocks). Returns byte offset.
  Result<std::uint64_t> Alloc(std::uint64_t size);

  /// Frees a previous allocation by offset.
  Status Free(std::uint64_t offset);

  std::uint64_t used_bytes() const { return space_.used_bytes(); }
  std::uint64_t capacity() const { return capacity_; }

 private:
  std::uint64_t capacity_;
  std::uint32_t block_size_;
  common::FreeExtents space_;
  std::map<std::uint64_t, std::uint64_t> allocated_;  // offset -> size
};

}  // namespace ros2::daos
