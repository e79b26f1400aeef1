#include "common/free_extents.h"

#include <iterator>

namespace ros2::common {

void FreeExtents::Insert(std::uint64_t offset, std::uint64_t size) {
  by_offset_.emplace(offset, size);
  by_size_.emplace(size, offset);
}

void FreeExtents::Erase(std::map<std::uint64_t, std::uint64_t>::iterator at) {
  by_size_.erase({at->second, at->first});
  by_offset_.erase(at);
}

std::optional<std::uint64_t> FreeExtents::Take(std::uint64_t size) {
  const auto fit = by_size_.lower_bound({size, 0});
  if (fit == by_size_.end()) return std::nullopt;
  const auto [extent, offset] = *fit;
  Erase(by_offset_.find(offset));
  if (extent > size) Insert(offset + size, extent - size);
  used_ += size;
  return offset;
}

void FreeExtents::Give(std::uint64_t offset, std::uint64_t size) {
  used_ -= size;
  auto next = by_offset_.lower_bound(offset);
  if (next != by_offset_.begin()) {
    const auto prev = std::prev(next);
    if (prev->first + prev->second == offset) {
      offset = prev->first;
      size += prev->second;
      Erase(prev);
    }
  }
  if (next != by_offset_.end() && offset + size == next->first) {
    size += next->second;
    Erase(next);
  }
  Insert(offset, size);
}

}  // namespace ros2::common
