// PMDK-like persistent-memory pool (§2.4, §3.3).
//
// The DAOS engine keeps metadata and small records in SCM through PMDK;
// this model provides the same contract: byte-addressable allocation from a
// fixed pool. "Persistence" is simulated, and there is no undo log: no
// caller updates SCM in place under a transaction.
//
// An engine's SCM is one ScmArena shared by its targets. The arena is
// allocated without being initialised, the way PMDK maps a pool without
// zeroing it, so it costs address space but no time or resident memory
// until Alloc zeroes a block on a page. Its free-extent list is shared, so
// a block one target frees can hold the next target's record: the
// engine's resident SCM follows what its targets hold at once, not the sum
// of each target's own worst moment.
//
// Each target's PmemPool carves its blocks out of the arena up to a quota
// (its capacity): a pool at its quota answers RESOURCE_EXHAUSTED even when
// the arena has room, exactly as a private pool of that size would, so
// VOS's spill-to-NVMe rule sees the same pool sizes. A handle names a slot
// in the pool's own table that records the block's offset and size:
// `generation << 32 | (slot index + 1)`, so 0 is never a handle, and Deref
// and Free are O(1) (index arithmetic, like DAOS's umem_off2ptr). Free
// bumps the slot's generation before the slot is reused, so a stale handle
// fails with NOT_FOUND instead of naming the slot's next block.
//
// Threading: targets allocate from their own xstreams, so the arena's free
// list takes a mutex — a leaf lock, since nothing else is locked under it.
// A pool itself belongs to one target and is not locked.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "common/free_extents.h"
#include "common/status.h"
#include "common/thread_annotations.h"

namespace ros2::scm {

/// Pool-relative handle to an allocation (PMEMoid stand-in).
using PmemHandle = std::uint64_t;
inline constexpr PmemHandle kNullHandle = 0;

/// The bytes of one engine's SCM and the best-fit free-extent list its
/// pools share. Thread-safe.
class ScmArena {
 public:
  explicit ScmArena(std::uint64_t capacity);

  /// Offset of `size` free bytes (best fit); nullopt when none fit.
  std::optional<std::uint64_t> Take(std::uint64_t size) ROS2_EXCLUDES(mu_);
  /// Returns [offset, offset + size), which Take handed out.
  void Give(std::uint64_t offset, std::uint64_t size) ROS2_EXCLUDES(mu_);

  std::byte* bytes() const { return bytes_.get(); }
  std::uint64_t capacity() const { return capacity_; }
  /// End of the highest block ever handed out: the arena's pages past it
  /// were never touched.
  std::uint64_t high_water() const ROS2_EXCLUDES(mu_);

 private:
  const std::uint64_t capacity_;
  const std::unique_ptr<std::byte[]> bytes_;  // uninitialised until Alloc
  /// Leaf lock: held only inside Take/Give/high_water.
  mutable common::Mutex mu_;
  common::FreeExtents space_ ROS2_GUARDED_BY(mu_);
  std::uint64_t high_water_ ROS2_GUARDED_BY(mu_) = 0;
};

class PmemPool {
 public:
  /// A pool with an arena of its own, `capacity` bytes.
  explicit PmemPool(std::uint64_t capacity);
  /// A pool of at most `quota` bytes of `arena`, which must outlive it.
  PmemPool(ScmArena* arena, std::uint64_t quota);
  /// Returns the pool's live blocks to the arena.
  ~PmemPool();
  PmemPool(const PmemPool&) = delete;
  PmemPool& operator=(const PmemPool&) = delete;

  /// Allocates `size` zeroed bytes; returns a stable handle.
  /// RESOURCE_EXHAUSTED past the quota or when no arena extent fits.
  Result<PmemHandle> Alloc(std::uint64_t size);
  Status Free(PmemHandle handle);

  /// Direct access to an allocation's bytes. The span is invalidated by
  /// Free of the same handle (never by other allocations).
  Result<std::span<std::byte>> Deref(PmemHandle handle);
  Result<std::span<const std::byte>> Deref(PmemHandle handle) const;

  /// The pool's quota.
  std::uint64_t capacity() const { return quota_; }
  std::uint64_t used_bytes() const { return used_; }

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

  std::unique_ptr<ScmArena> own_arena_;  // the one-argument form only
  ScmArena* arena_;
  std::uint64_t quota_;
  std::uint64_t used_ = 0;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;  // indexes of dead slots
};

}  // namespace ros2::scm
