#include "scm/pmem_pool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/bytes.h"
#include "common/units.h"
#include "support/test_support.h"

namespace ros2::scm {
namespace {

TEST(PmemPoolTest, AllocDerefFree) {
  PmemPool pool(4096);
  auto h = pool.Alloc(100);
  ASSERT_TRUE(h.ok());
  auto span = pool.Deref(*h);
  ASSERT_TRUE(span.ok());
  EXPECT_EQ(span->size(), 100u);
  EXPECT_EQ(pool.used_bytes(), 100u);
  ASSERT_TRUE(pool.Free(*h).ok());
  EXPECT_EQ(pool.used_bytes(), 0u);
  EXPECT_EQ(pool.Deref(*h).status().code(), ErrorCode::kNotFound);
}

TEST(PmemPoolTest, FreshAllocationIsZeroed) {
  PmemPool pool(4096);
  auto h1 = pool.Alloc(64);
  ASSERT_TRUE(h1.ok());
  auto s1 = pool.Deref(*h1);
  ASSERT_TRUE(s1.ok());
  std::memset(s1->data(), 0xAB, 64);
  ASSERT_TRUE(pool.Free(*h1).ok());
  auto h2 = pool.Alloc(64);
  ASSERT_TRUE(h2.ok());
  auto view = pool.Deref(*h2);
  ASSERT_TRUE(view.ok());
  for (std::byte b : *view) {
    EXPECT_EQ(b, std::byte(0));
  }
}

TEST(PmemPoolTest, ExhaustionReported) {
  PmemPool pool(256);
  auto h = pool.Alloc(200);
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(pool.Alloc(100).status().code(), ErrorCode::kResourceExhausted);
  ASSERT_TRUE(pool.Free(*h).ok());
  EXPECT_TRUE(pool.Alloc(100).ok());
}

TEST(PmemPoolTest, FreeListCoalesces) {
  PmemPool pool(300);
  auto a = pool.Alloc(100);
  auto b = pool.Alloc(100);
  auto c = pool.Alloc(100);
  ASSERT_TRUE(a.ok() && b.ok() && c.ok());
  // Free in an order that requires both-side coalescing.
  ASSERT_TRUE(pool.Free(*a).ok());
  ASSERT_TRUE(pool.Free(*c).ok());
  ASSERT_TRUE(pool.Free(*b).ok());
  // Whole pool must be one block again.
  EXPECT_TRUE(pool.Alloc(300).ok());
}

TEST(PmemPoolTest, ZeroSizeAllocRejected) {
  PmemPool pool(64);
  EXPECT_EQ(pool.Alloc(0).status().code(), ErrorCode::kInvalidArgument);
}

TEST(PmemPoolTest, DoubleFreeRejected) {
  PmemPool pool(64);
  auto h = pool.Alloc(10);
  ASSERT_TRUE(h.ok());
  ASSERT_TRUE(pool.Free(*h).ok());
  EXPECT_EQ(pool.Free(*h).code(), ErrorCode::kNotFound);
}

TEST(PmemPoolTest, StaleHandleFailsAfterSlotReuse) {
  PmemPool pool(4096);
  auto old_handle = pool.Alloc(32);
  ASSERT_TRUE(old_handle.ok());
  ASSERT_TRUE(pool.Free(*old_handle).ok());
  auto new_handle = pool.Alloc(32);  // reuses the freed slot
  ASSERT_TRUE(new_handle.ok());
  EXPECT_NE(*new_handle, *old_handle);
  EXPECT_EQ(pool.Deref(*old_handle).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(pool.Free(*old_handle).code(), ErrorCode::kNotFound);
  auto view = pool.Deref(*new_handle);
  ASSERT_TRUE(view.ok());
  EXPECT_EQ(view->size(), 32u);
  EXPECT_TRUE(pool.Free(*new_handle).ok());
}

TEST(PmemPoolTest, ForeignHandlesRejected) {
  PmemPool pool(4096);
  auto h = pool.Alloc(16);
  ASSERT_TRUE(h.ok());
  const PmemHandle past_end = *h + 1;  // the next slot was never used
  const PmemHandle wrong_generation = *h + (PmemHandle(1) << 32);
  for (PmemHandle bad : {kNullHandle, past_end, wrong_generation}) {
    EXPECT_EQ(pool.Deref(bad).status().code(), ErrorCode::kNotFound) << bad;
    EXPECT_EQ(pool.Free(bad).code(), ErrorCode::kNotFound) << bad;
  }
  EXPECT_TRUE(pool.Deref(*h).ok());
  EXPECT_EQ(pool.used_bytes(), 16u);
}

/// Resident pages of this process (second field of /proc/self/statm).
std::uint64_t ResidentBytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size = 0;
  std::uint64_t resident = 0;
  statm >> size >> resident;
  return resident * std::uint64_t(sysconf(_SC_PAGESIZE));
}

TEST(PmemPoolTest, ArenaIsNotResidentUntilUsed) {
  constexpr std::uint64_t kCapacity = 256 * kMiB;
  const std::uint64_t before = ResidentBytes();
  ASSERT_GT(before, 0u);
  PmemPool pool(kCapacity);
  auto h = pool.Alloc(kKiB);
  ASSERT_TRUE(h.ok());
  // A quarter of the capacity leaves room for sanitizer shadow memory.
  EXPECT_LT(ResidentBytes(), before + kCapacity / 4);
}

// ------------------------------------------- pools sharing one arena

TEST(ScmArenaTest, QuotaExhaustionLeavesTheArenaToOtherPools) {
  ScmArena arena(kMiB);
  PmemPool full(&arena, 100 * kKiB);
  PmemPool other(&arena, 512 * kKiB);
  ASSERT_TRUE(full.Alloc(64 * kKiB).ok());
  // The quota answers exactly as a private 100 KiB pool would.
  EXPECT_EQ(full.Alloc(64 * kKiB).status().code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(full.used_bytes(), 64 * kKiB);
  EXPECT_EQ(full.capacity(), 100 * kKiB);
  EXPECT_TRUE(other.Alloc(64 * kKiB).ok());
}

TEST(ScmArenaTest, FullArenaExhaustsAPoolBelowItsQuota) {
  ScmArena arena(128 * kKiB);
  PmemPool a(&arena, kMiB);
  PmemPool b(&arena, kMiB);
  ASSERT_TRUE(a.Alloc(100 * kKiB).ok());
  EXPECT_EQ(b.Alloc(64 * kKiB).status().code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(b.used_bytes(), 0u);
  EXPECT_TRUE(b.Alloc(28 * kKiB).ok());
}

struct LiveBlock {
  PmemPool* pool;
  PmemHandle handle;
  std::uint64_t tag;
};

/// True when `block` still holds the pattern it was filled with.
bool Intact(const LiveBlock& block) {
  auto view = block.pool->Deref(block.handle);
  return view.ok() && VerifyPattern(*view, block.tag, 0) == -1;
}

TEST(ScmArenaTest, RandomizedPoolsNeverOverlapAndKeepTheirBytes) {
  constexpr int kPools = 4;
  // The quotas add up to more than the arena, so both limits are hit.
  ScmArena arena(kMiB);
  std::vector<std::unique_ptr<PmemPool>> pools;
  for (int p = 0; p < kPools; ++p) {
    pools.push_back(std::make_unique<PmemPool>(&arena, 384 * kKiB));
  }
  Rng rng = test::MakeTestRng();
  std::vector<LiveBlock> live;
  for (std::uint64_t step = 1; step <= 20000; ++step) {
    if (live.empty() || rng.Below(100) < 55) {
      PmemPool* pool = pools[rng.Below(kPools)].get();
      auto handle = pool->Alloc(1 + rng.Below(16 * kKiB));
      if (!handle.ok()) {
        ASSERT_EQ(handle.status().code(), ErrorCode::kResourceExhausted);
        continue;
      }
      FillPattern(*pool->Deref(*handle), step, 0);
      live.push_back({pool, *handle, step});
    } else {
      const std::size_t i = rng.Below(live.size());
      ASSERT_TRUE(Intact(live[i])) << "step " << step;
      ASSERT_TRUE(live[i].pool->Free(live[i].handle).ok());
      live[i] = live.back();
      live.pop_back();
    }
    if (step % 1000 != 0) continue;
    std::vector<std::pair<const std::byte*, const std::byte*>> ranges;
    for (const LiveBlock& block : live) {
      ASSERT_TRUE(Intact(block)) << "step " << step;
      auto view = block.pool->Deref(block.handle);
      ranges.emplace_back(view->data(), view->data() + view->size());
    }
    std::sort(ranges.begin(), ranges.end());
    for (std::size_t i = 1; i < ranges.size(); ++i) {
      ASSERT_LE(ranges[i - 1].second, ranges[i].first) << "step " << step;
    }
  }
  for (const LiveBlock& block : live) {
    ASSERT_TRUE(block.pool->Free(block.handle).ok());
  }
  for (const auto& pool : pools) EXPECT_EQ(pool->used_bytes(), 0u);
  // Everything freed coalesces back into one arena-sized extent.
  PmemPool whole(&arena, kMiB);
  EXPECT_TRUE(whole.Alloc(kMiB).ok());
}

TEST(ScmArenaTest, StaleAndForeignHandlesStayNotFound) {
  ScmArena arena(64 * kKiB);
  PmemPool a(&arena, 32 * kKiB);
  PmemPool b(&arena, 32 * kKiB);
  auto a1 = a.Alloc(16);
  auto a2 = a.Alloc(16);
  auto b1 = b.Alloc(16);
  ASSERT_TRUE(a1.ok() && a2.ok() && b1.ok());
  // a2 names a slot b never issued: the arena is shared, the tables not.
  EXPECT_EQ(b.Deref(*a2).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(b.Free(*a2).code(), ErrorCode::kNotFound);
  // a1's bytes go back to the arena, and b's next block may take them;
  // a1 stays stale in a even after a reuses its slot.
  ASSERT_TRUE(a.Free(*a1).ok());
  auto b2 = b.Alloc(16);
  auto a3 = a.Alloc(16);
  ASSERT_TRUE(b2.ok() && a3.ok());
  const PmemHandle wrong_generation = *a3 + (PmemHandle(1) << 32);
  for (PmemHandle bad : {*a1, kNullHandle, wrong_generation}) {
    EXPECT_EQ(a.Deref(bad).status().code(), ErrorCode::kNotFound) << bad;
    EXPECT_EQ(a.Free(bad).code(), ErrorCode::kNotFound) << bad;
  }
  EXPECT_TRUE(a.Deref(*a3).ok());
  EXPECT_TRUE(b.Deref(*b1).ok());
  EXPECT_EQ(a.used_bytes(), 32u);
  EXPECT_EQ(b.used_bytes(), 32u);
}

TEST(ScmArenaTest, ConcurrentPoolsAllocAndFreeOneArena) {
  // One pool per thread, as each target allocates from its own xstream;
  // only the arena is shared.
  constexpr int kThreads = 4;
  constexpr std::size_t kHeld = 16;
  ScmArena arena(4 * kMiB);
  std::vector<std::unique_ptr<PmemPool>> pools;
  for (int t = 0; t < kThreads; ++t) {
    pools.push_back(std::make_unique<PmemPool>(&arena, kMiB));
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      PmemPool& pool = *pools[std::size_t(t)];
      Rng rng(test::kDefaultTestSeed + std::uint64_t(t));
      std::vector<LiveBlock> held;
      for (std::uint64_t i = 1; i <= 3000; ++i) {
        if (held.size() == kHeld) {
          if (!Intact(held.front()) || !pool.Free(held.front().handle).ok()) {
            failures.fetch_add(1);
          }
          held.erase(held.begin());
        }
        auto handle = pool.Alloc(1 + rng.Below(8 * kKiB));
        if (!handle.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const std::uint64_t tag = std::uint64_t(t) << 32 | i;
        FillPattern(*pool.Deref(*handle), tag, 0);
        held.push_back({&pool, *handle, tag});
      }
      for (const LiveBlock& block : held) {
        if (!Intact(block) || !pool.Free(block.handle).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
  for (const auto& pool : pools) EXPECT_EQ(pool->used_bytes(), 0u);
  EXPECT_LE(arena.high_water(), arena.capacity());
}

}  // namespace
}  // namespace ros2::scm
