#include "scm/pmem_pool.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>

#include <unistd.h>

#include "common/bytes.h"
#include "common/units.h"

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

}  // namespace
}  // namespace ros2::scm
