// Registered-memory pool tests: LRU bounds, lease pinning, hit/miss
// accounting, revocation interplay, and the owned (unpooled) lease path.
#include "net/mr_cache.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "net/fabric.h"

namespace ros2::net {
namespace {

class MrCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto ep = fabric_.CreateEndpoint("fabric://pool");
    ASSERT_TRUE(ep.ok());
    ep_ = *ep;
    pd_ = ep_->AllocPd();
  }

  MrCache& cache() { return ep_->mr_cache(); }

  net::Fabric fabric_;
  Endpoint* ep_ = nullptr;
  PdId pd_ = 0;
};

TEST_F(MrCacheTest, HitOnSameKeyMissOnDifferent) {
  Buffer a(4096);
  Buffer b(4096);
  {
    auto l1 = cache().Acquire(pd_, a, kRemoteRead);
    ASSERT_TRUE(l1.ok());
    EXPECT_EQ(cache().misses(), 1u);
    EXPECT_EQ(cache().hits(), 0u);
    EXPECT_EQ(cache().leased(), 1u);
  }
  EXPECT_EQ(cache().leased(), 0u);

  auto l2 = cache().Acquire(pd_, a, kRemoteRead);
  ASSERT_TRUE(l2.ok());
  EXPECT_EQ(cache().hits(), 1u);
  EXPECT_EQ(cache().misses(), 1u);

  // Different buffer, different access, different length => misses.
  auto l3 = cache().Acquire(pd_, b, kRemoteRead);
  auto l4 = cache().Acquire(pd_, a, kRemoteWrite);
  auto l5 = cache().Acquire(
      pd_, std::span<std::byte>(a.data(), a.size() / 2), kRemoteRead);
  ASSERT_TRUE(l3.ok() && l4.ok() && l5.ok());
  EXPECT_EQ(cache().misses(), 4u);
  EXPECT_EQ(ep_->mr_count(), 4u);
}

TEST_F(MrCacheTest, SameRkeyAcrossHits) {
  Buffer a(1024);
  RKey first = 0;
  {
    auto l = cache().Acquire(pd_, a, kRemoteRead);
    ASSERT_TRUE(l.ok());
    first = l->rkey();
  }
  auto l = cache().Acquire(pd_, a, kRemoteRead);
  ASSERT_TRUE(l.ok());
  EXPECT_EQ(l->rkey(), first) << "hit must reuse the registration";
  EXPECT_EQ(ep_->mr_count(), 1u);
}

TEST_F(MrCacheTest, LruEvictionBeyondCapacity) {
  cache().set_capacity(4);
  std::vector<Buffer> buffers;
  for (int i = 0; i < 6; ++i) {
    buffers.emplace_back(512);
    auto l = cache().Acquire(pd_, buffers.back(), kRemoteRead);
    ASSERT_TRUE(l.ok());
  }
  EXPECT_EQ(cache().size(), 4u);
  EXPECT_EQ(cache().evictions(), 2u);
  EXPECT_EQ(ep_->mr_count(), 4u);
  // The oldest two were evicted: re-acquiring buffer 0 is a miss,
  // buffer 5 (most recent) is a hit.
  const auto misses = cache().misses();
  auto l0 = cache().Acquire(pd_, buffers[0], kRemoteRead);
  ASSERT_TRUE(l0.ok());
  EXPECT_EQ(cache().misses(), misses + 1);
  auto l5 = cache().Acquire(pd_, buffers[5], kRemoteRead);
  ASSERT_TRUE(l5.ok());
  EXPECT_EQ(cache().misses(), misses + 1);
}

TEST_F(MrCacheTest, LeasedEntriesAreNotEvicted) {
  cache().set_capacity(2);
  Buffer pinned(256);
  auto hold = cache().Acquire(pd_, pinned, kRemoteRead);
  ASSERT_TRUE(hold.ok());
  std::vector<Buffer> churn;
  for (int i = 0; i < 5; ++i) {
    churn.emplace_back(256);
    auto l = cache().Acquire(pd_, churn.back(), kRemoteRead);
    ASSERT_TRUE(l.ok());
  }
  // The pinned entry survived the churn and is still a hit.
  const auto hits = cache().hits();
  auto again = cache().Acquire(pd_, pinned, kRemoteRead);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(cache().hits(), hits + 1);
  EXPECT_EQ(again->rkey(), hold->rkey());
}

TEST_F(MrCacheTest, ClearSkipsLeasedEntries) {
  Buffer a(128);
  Buffer b(128);
  auto held = cache().Acquire(pd_, a, kRemoteRead);
  ASSERT_TRUE(held.ok());
  { auto tmp = cache().Acquire(pd_, b, kRemoteRead); ASSERT_TRUE(tmp.ok()); }
  EXPECT_EQ(cache().Clear(), 1u);  // b dropped, a pinned by the lease
  EXPECT_EQ(cache().size(), 1u);
  EXPECT_EQ(ep_->mr_count(), 1u);
  held->Release();
  EXPECT_EQ(cache().Clear(), 1u);
  EXPECT_EQ(ep_->mr_count(), 0u);
}

TEST_F(MrCacheTest, RevokedEntryIsReRegisteredOnNextAcquire) {
  Buffer a(512);
  RKey first = 0;
  {
    auto l = cache().Acquire(pd_, a, kRemoteRead);
    ASSERT_TRUE(l.ok());
    first = l->rkey();
  }
  ASSERT_TRUE(ep_->RevokeMemory(first).ok());
  auto l = cache().Acquire(pd_, a, kRemoteRead);
  ASSERT_TRUE(l.ok());
  EXPECT_NE(l->rkey(), first) << "revoked capability must not be reused";
  EXPECT_EQ(cache().misses(), 2u);
  EXPECT_EQ(ep_->mr_count(), 1u) << "stale registration dropped";
}

TEST_F(MrCacheTest, RevocationWithLiveLeaseParksEntryUntilRelease) {
  Buffer a(512);
  auto held = cache().Acquire(pd_, a, kRemoteRead);
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(ep_->RevokeMemory(held->rkey()).ok());
  // Re-acquiring must mint a fresh registration while the stale entry —
  // still pinned by `held` — is parked, NOT freed under the lease.
  auto fresh = cache().Acquire(pd_, a, kRemoteRead);
  ASSERT_TRUE(fresh.ok());
  EXPECT_NE(fresh->rkey(), held->rkey());
  EXPECT_EQ(cache().leased(), 2u);
  // Releasing the stale lease must be safe (no dangling entry) and the
  // accounting must drain to zero.
  held->Release();
  EXPECT_EQ(cache().leased(), 1u);
  fresh->Release();
  EXPECT_EQ(cache().leased(), 0u);
  EXPECT_EQ(cache().size(), 1u) << "only the fresh entry remains cached";
  EXPECT_EQ(ep_->mr_count(), 1u);
}

TEST_F(MrCacheTest, OverlappingRegistrationsDeregisterIndependently) {
  // ibv_reg_mr semantics: two MRs over the same bytes each hold their
  // pages; dropping one must not invalidate the other.
  Buffer a(8192);
  auto read_mr = *ep_->RegisterMemory(pd_, a, kRemoteRead);
  auto write_mr = *ep_->RegisterMemory(pd_, a, kRemoteWrite);
  ASSERT_TRUE(ep_->DeregisterMemory(read_mr.rkey).ok());
  EXPECT_EQ(ep_->mr_count(), 1u);
  ASSERT_TRUE(ep_->DeregisterMemory(write_mr.rkey).ok());
  EXPECT_EQ(ep_->mr_count(), 0u);
}

TEST_F(MrCacheTest, RegistrationFailurePropagates) {
  Buffer a(64);
  ep_->fault_plan().Arm(common::FaultPoint::kNetRegister,
                        {/*skip=*/0, /*count=*/1});
  EXPECT_EQ(cache().Acquire(pd_, a, kRemoteRead).status().code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(cache().size(), 0u);
  EXPECT_EQ(cache().leased(), 0u);
}

TEST_F(MrCacheTest, OwnedLeaseDeregistersOnRelease) {
  Buffer a(256);
  {
    auto lease = MrLease::Register(ep_, pd_, a, kRemoteWrite);
    ASSERT_TRUE(lease.ok());
    EXPECT_EQ(ep_->mr_count(), 1u);
  }
  EXPECT_EQ(ep_->mr_count(), 0u);
  EXPECT_EQ(cache().size(), 0u) << "owned leases bypass the cache";
}

TEST_F(MrCacheTest, MoveTransfersOwnership) {
  Buffer a(256);
  auto lease = cache().Acquire(pd_, a, kRemoteRead);
  ASSERT_TRUE(lease.ok());
  MrLease moved = std::move(*lease);
  EXPECT_TRUE(moved.valid());
  EXPECT_EQ(cache().leased(), 1u);
  moved.Release();
  EXPECT_EQ(cache().leased(), 0u);
  moved.Release();  // idempotent
  EXPECT_EQ(cache().leased(), 0u);
}

TEST_F(MrCacheTest, SetCapacityEvictsDown) {
  std::vector<Buffer> buffers;
  for (int i = 0; i < 8; ++i) {
    buffers.emplace_back(64);
    auto l = cache().Acquire(pd_, buffers.back(), kRemoteRead);
    ASSERT_TRUE(l.ok());
  }
  EXPECT_EQ(cache().size(), 8u);
  cache().set_capacity(3);
  EXPECT_EQ(cache().size(), 3u);
  EXPECT_EQ(ep_->mr_count(), 3u);
}

TEST_F(MrCacheTest, ConcurrentAcquireReleaseKeepsAccountsConsistent) {
  // Contention storm: several threads acquire/release overlapping buffer
  // sets through one cache while capacity pressure forces evictions. The
  // invariants — every lease's MR is live while held, counters balance,
  // no entry double-freed — must survive; TSan keeps the locking honest.
  cache().set_capacity(4);
  constexpr int kThreads = 4;
  constexpr int kBuffersPerThread = 6;
  constexpr int kRounds = 200;
  std::vector<std::vector<Buffer>> buffers(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kBuffersPerThread; ++i) {
      // Overlapping working sets: thread t uses buffers [t, t+3).
      buffers[std::size_t(t)].emplace_back(64 * (std::size_t(i) + 1));
    }
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      auto& mine = buffers[std::size_t(t)];
      for (int r = 0; r < kRounds; ++r) {
        auto lease = cache().Acquire(
            pd_, mine[std::size_t(r) % mine.size()], kRemoteRead);
        if (!lease.ok()) {
          failures.fetch_add(1);
          continue;
        }
        // While held, the lease's registration must be live: a pinned
        // entry is never evicted out from under its holder.
        MemoryRegion live;
        if (!ep_->FindMr(lease->rkey(), &live) || live.revoked) {
          failures.fetch_add(1);
        }
      }  // lease releases here
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(cache().leased(), 0u);
  EXPECT_LE(cache().size(), 4u);
  EXPECT_EQ(cache().hits() + cache().misses(),
            std::uint64_t(kThreads) * kRounds);
  // Every cached entry still registered exactly once.
  EXPECT_EQ(ep_->mr_count(), cache().size());
}

}  // namespace
}  // namespace ros2::net
