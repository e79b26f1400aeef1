// First-fit free-extent list shared by the two storage tiers: the SCM pool
// carves allocations out of its arena with it and the NVMe allocator out of
// a target's LBA range. Freed extents merge with free neighbours, so freeing
// everything leaves the one extent the list started with.
#pragma once

#include <cstdint>
#include <map>
#include <optional>

namespace ros2::common {

class FreeExtents {
 public:
  /// Starts with [base, base + capacity) free.
  FreeExtents(std::uint64_t base, std::uint64_t capacity) {
    if (capacity > 0) free_[base] = capacity;
  }

  /// Takes `size` (> 0) bytes from the lowest free extent that fits and
  /// returns their offset; nullopt when no extent is large enough.
  std::optional<std::uint64_t> Take(std::uint64_t size);
  /// Returns [offset, offset + size), which Take handed out, merging it
  /// with the free extents on either side.
  void Give(std::uint64_t offset, std::uint64_t size);

  /// Bytes taken and not given back.
  std::uint64_t used_bytes() const { return used_; }

 private:
  std::map<std::uint64_t, std::uint64_t> free_;  // offset -> size
  std::uint64_t used_ = 0;
};

}  // namespace ros2::common
