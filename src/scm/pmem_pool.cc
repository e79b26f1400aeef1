#include "scm/pmem_pool.h"

#include <algorithm>
#include <cstring>

namespace ros2::scm {

ScmArena::ScmArena(std::uint64_t capacity)
    : capacity_(capacity),
      bytes_(std::make_unique_for_overwrite<std::byte[]>(capacity)),
      space_(0, capacity) {}

std::optional<std::uint64_t> ScmArena::Take(std::uint64_t size) {
  common::MutexLock lk(mu_);
  const std::optional<std::uint64_t> offset = space_.Take(size);
  if (offset) high_water_ = std::max(high_water_, *offset + size);
  return offset;
}

void ScmArena::Give(std::uint64_t offset, std::uint64_t size) {
  common::MutexLock lk(mu_);
  space_.Give(offset, size);
}

std::uint64_t ScmArena::high_water() const {
  common::MutexLock lk(mu_);
  return high_water_;
}

PmemPool::PmemPool(std::uint64_t capacity)
    : own_arena_(std::make_unique<ScmArena>(capacity)),
      arena_(own_arena_.get()),
      quota_(capacity) {}

PmemPool::PmemPool(ScmArena* arena, std::uint64_t quota)
    : arena_(arena), quota_(quota) {}

PmemPool::~PmemPool() {
  for (const Slot& slot : slots_) {
    if (slot.live) arena_->Give(slot.offset, slot.size);
  }
}

Result<PmemHandle> PmemPool::Alloc(std::uint64_t size) {
  if (size == 0) return InvalidArgument("zero-size allocation");
  if (size > quota_ - used_) return ResourceExhausted("pmem pool exhausted");
  const std::optional<std::uint64_t> offset = arena_->Take(size);
  if (!offset) return ResourceExhausted("pmem pool exhausted");
  std::uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.offset = *offset;
  slot.size = size;
  slot.live = true;
  used_ += size;
  std::memset(arena_->bytes() + *offset, 0, size);
  return PmemHandle(slot.generation) << 32 | (PmemHandle(index) + 1);
}

std::size_t PmemPool::Find(PmemHandle handle) const {
  // The null handle's index wraps to 2^64 - 1, past any table.
  const std::uint64_t index = (handle & 0xffffffffu) - 1;
  if (index >= slots_.size()) return slots_.size();
  const Slot& slot = slots_[index];
  if (!slot.live || slot.generation != handle >> 32) return slots_.size();
  return index;
}

Status PmemPool::Free(PmemHandle handle) {
  const std::size_t index = Find(handle);
  if (index == slots_.size()) return NotFound("unknown pmem handle");
  Slot& slot = slots_[index];
  arena_->Give(slot.offset, slot.size);
  used_ -= slot.size;
  slot.live = false;
  ++slot.generation;
  free_slots_.push_back(static_cast<std::uint32_t>(index));
  return Status::Ok();
}

Result<std::span<std::byte>> PmemPool::Deref(PmemHandle handle) {
  const std::size_t index = Find(handle);
  if (index == slots_.size()) return NotFound("unknown pmem handle");
  return std::span<std::byte>(arena_->bytes() + slots_[index].offset,
                              slots_[index].size);
}

Result<std::span<const std::byte>> PmemPool::Deref(PmemHandle handle) const {
  const std::size_t index = Find(handle);
  if (index == slots_.size()) return NotFound("unknown pmem handle");
  return std::span<const std::byte>(arena_->bytes() + slots_[index].offset,
                                    slots_[index].size);
}

}  // namespace ros2::scm
