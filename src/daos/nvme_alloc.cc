#include "daos/nvme_alloc.h"

namespace ros2::daos {

NvmeAllocator::NvmeAllocator(std::uint64_t base, std::uint64_t capacity,
                             std::uint32_t block_size)
    : capacity_(capacity), block_size_(block_size), space_(base, capacity) {}

Result<std::uint64_t> NvmeAllocator::Alloc(std::uint64_t size) {
  if (size == 0) return InvalidArgument("zero-size allocation");
  const std::uint64_t rounded =
      (size + block_size_ - 1) / block_size_ * block_size_;
  const std::optional<std::uint64_t> offset = space_.Take(rounded);
  if (!offset) return ResourceExhausted("nvme space exhausted");
  allocated_[*offset] = rounded;
  return *offset;
}

Status NvmeAllocator::Free(std::uint64_t offset) {
  auto it = allocated_.find(offset);
  if (it == allocated_.end()) return NotFound("unknown allocation");
  space_.Give(offset, it->second);
  allocated_.erase(it);
  return Status::Ok();
}

}  // namespace ros2::daos
