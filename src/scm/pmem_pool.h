// PMDK-like persistent-memory pool (§2.4, §3.3).
//
// The DAOS engine keeps metadata and small records in SCM through PMDK;
// this model provides the same contract: byte-addressable allocation from a
// fixed pool. "Persistence" is simulated, and there is no undo log: no
// caller updates SCM in place under a transaction.
//
// The arena is allocated without being initialised, the way PMDK maps a
// pool without zeroing it, so a large pool costs address space but no
// time or resident memory until Alloc zeroes a block on a page. A handle
// names a slot in a table that records the block's offset and size:
// `generation << 32 | (slot index + 1)`, so 0 is never a handle, and Deref
// and Free are O(1) (index arithmetic, like DAOS's umem_off2ptr). Free
// bumps the slot's generation before the slot is reused, so a stale handle
// fails with NOT_FOUND instead of naming the slot's next block.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/free_extents.h"
#include "common/status.h"

namespace ros2::scm {

/// Pool-relative handle to an allocation (PMEMoid stand-in).
using PmemHandle = std::uint64_t;
inline constexpr PmemHandle kNullHandle = 0;

class PmemPool {
 public:
  explicit PmemPool(std::uint64_t capacity);

  /// Allocates `size` zeroed bytes; returns a stable handle. First-fit
  /// over a free-extent list, like pmemobj's allocator (simplified).
  Result<PmemHandle> Alloc(std::uint64_t size);
  Status Free(PmemHandle handle);

  /// Direct access to an allocation's bytes. The span is invalidated by
  /// Free of the same handle (never by other allocations).
  Result<std::span<std::byte>> Deref(PmemHandle handle);
  Result<std::span<const std::byte>> Deref(PmemHandle handle) const;

  std::uint64_t capacity() const { return capacity_; }
  std::uint64_t used_bytes() const { return space_.used_bytes(); }

 private:
  struct Slot {
    std::uint64_t offset = 0;
    std::uint64_t size = 0;
    std::uint32_t generation = 0;
    bool live = false;
  };

  /// Index of the live slot `handle` names; slots_.size() for a null,
  /// stale or foreign handle.
  std::size_t Find(PmemHandle handle) const;

  std::uint64_t capacity_;
  std::unique_ptr<std::byte[]> arena_;  // uninitialised until Alloc
  common::FreeExtents space_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  // indexes of dead slots
};

}  // namespace ros2::scm
