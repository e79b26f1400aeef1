#include "common/free_extents.h"

#include <iterator>

namespace ros2::common {

std::optional<std::uint64_t> FreeExtents::Take(std::uint64_t size) {
  for (auto it = free_.begin(); it != free_.end(); ++it) {
    if (it->second < size) continue;
    const std::uint64_t offset = it->first;
    const std::uint64_t remaining = it->second - size;
    free_.erase(it);
    if (remaining > 0) free_[offset + size] = remaining;
    used_ += size;
    return offset;
  }
  return std::nullopt;
}

void FreeExtents::Give(std::uint64_t offset, std::uint64_t size) {
  used_ -= size;
  auto inserted = free_.emplace(offset, size).first;
  if (inserted != free_.begin()) {
    auto prev = std::prev(inserted);
    if (prev->first + prev->second == inserted->first) {
      prev->second += inserted->second;
      free_.erase(inserted);
      inserted = prev;
    }
  }
  auto next = std::next(inserted);
  if (next != free_.end() &&
      inserted->first + inserted->second == next->first) {
    inserted->second += next->second;
    free_.erase(next);
  }
}

}  // namespace ros2::common
