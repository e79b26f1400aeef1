// Best-fit free-extent list shared by the two storage tiers: an engine's
// SCM arena carves its pools' blocks out with it and the NVMe allocator a
// target's LBA range. Free extents are indexed by offset, so a freed
// extent merges with its free neighbours and freeing everything leaves
// the one extent the list started with, and by size, so Take is O(log n)
// however fragmented the space is (an engine's 16 targets share one
// arena, and a walk over every fragment grew with the run).
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <utility>

namespace ros2::common {

class FreeExtents {
 public:
  /// Starts with [base, base + capacity) free.
  FreeExtents(std::uint64_t base, std::uint64_t capacity) {
    if (capacity > 0) Insert(base, capacity);
  }

  /// Takes `size` (> 0) bytes from the smallest free extent that fits, the
  /// lowest of equal ones, and returns their offset; nullopt when no
  /// extent is large enough.
  std::optional<std::uint64_t> Take(std::uint64_t size);
  /// Returns [offset, offset + size), which Take handed out, merging it
  /// with the free extents on either side.
  void Give(std::uint64_t offset, std::uint64_t size);

  /// Bytes taken and not given back.
  std::uint64_t used_bytes() const { return used_; }

 private:
  void Insert(std::uint64_t offset, std::uint64_t size);
  /// Removes the extent at `at` from both indexes.
  void Erase(std::map<std::uint64_t, std::uint64_t>::iterator at);

  std::map<std::uint64_t, std::uint64_t> by_offset_;  // offset -> size
  std::set<std::pair<std::uint64_t, std::uint64_t>> by_size_;  // (size, offset)
  std::uint64_t used_ = 0;
};

}  // namespace ros2::common
