// End-to-end engine + client tests over both transports: pool auth,
// containers, object I/O with bulk transfer, epochs, punch, enumeration.
#include "daos/client.h"

#include <gtest/gtest.h>

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/cluster.h"

namespace ros2::daos {
namespace {

class DaosClientTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  void SetUp() override {
    ClusterSpec spec;
    spec.engine.access_token = "secret";
    spec.engine.targets = 8;
    spec.engine.scm_per_target = 8 * kMiB;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    engine_ = cluster_->engine(0);

    DaosClient::ConnectOptions options;
    options.transport = GetParam();
    options.access_token = "secret";
    auto client = cluster_->Connect(options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
    auto cont = client_->ContainerCreate("c0");
    ASSERT_TRUE(cont.ok());
    cont_ = *cont;
  }

  std::unique_ptr<Cluster> cluster_;
  DaosEngine* engine_ = nullptr;
  std::unique_ptr<DaosClient> client_;
  ContainerId cont_ = 0;
};

TEST_P(DaosClientTest, PoolAuthRejectsBadToken) {
  DaosClient::ConnectOptions options;
  options.transport = GetParam();
  options.client_address = "fabric://bad-client";
  options.access_token = "wrong";
  EXPECT_EQ(cluster_->Connect(options).status().code(),
            ErrorCode::kPermissionDenied);
}

TEST_P(DaosClientTest, PoolConnectReportsTargets) {
  EXPECT_EQ(client_->pool_targets(), 8u);
}

TEST_P(DaosClientTest, ContainerLifecycle) {
  EXPECT_EQ(client_->ContainerCreate("c0").status().code(),
            ErrorCode::kAlreadyExists);
  auto opened = client_->ContainerOpen("c0");
  ASSERT_TRUE(opened.ok());
  EXPECT_EQ(*opened, cont_);
  EXPECT_EQ(client_->ContainerOpen("missing").status().code(),
            ErrorCode::kNotFound);
}

TEST_P(DaosClientTest, OidAllocationUniqueAndNamespaced) {
  auto a = client_->AllocOid(cont_);
  auto b = client_->AllocOid(cont_);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_NE(*a, *b);
  EXPECT_EQ(a->hi, cont_);
}

TEST_P(DaosClientTest, UpdateFetchRoundTripSmall) {
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  Buffer data = MakePatternBuffer(4096, 1);
  auto epoch = client_->Update(cont_, *oid, "dk", "ak", 0, data);
  ASSERT_TRUE(epoch.ok());
  EXPECT_GT(*epoch, 0u);
  Buffer out(4096);
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "dk", "ak", 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_P(DaosClientTest, UpdateFetchRoundTripLargeBulk) {
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  Buffer data = MakePatternBuffer(4 * kMiB, 2);
  ASSERT_TRUE(client_->Update(cont_, *oid, "dk", "ak", 0, data).ok());
  Buffer out(4 * kMiB);
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "dk", "ak", 0, out).ok());
  EXPECT_EQ(out, data);
  // Bulk bytes really moved through the engine.
  EXPECT_GE(engine_->server()->bulk_bytes_in(), data.size());
  EXPECT_GE(engine_->server()->bulk_bytes_out(), data.size());
}

TEST_P(DaosClientTest, EpochSnapshotFetch) {
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  Buffer v1 = MakePatternBuffer(100, 1);
  Buffer v2 = MakePatternBuffer(100, 2);
  auto e1 = client_->Update(cont_, *oid, "dk", "ak", 0, v1);
  ASSERT_TRUE(e1.ok());
  auto e2 = client_->Update(cont_, *oid, "dk", "ak", 0, v2);
  ASSERT_TRUE(e2.ok());
  Buffer out(100);
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "dk", "ak", 0, out, *e1).ok());
  EXPECT_EQ(out, v1);
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "dk", "ak", 0, out).ok());
  EXPECT_EQ(out, v2);
}

TEST_P(DaosClientTest, SingleValueRoundTrip) {
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  Buffer meta = MakePatternBuffer(32, 5);
  ASSERT_TRUE(client_->UpdateSingle(cont_, *oid, "m", "size", meta).ok());
  auto fetched = client_->FetchSingle(cont_, *oid, "m", "size");
  ASSERT_TRUE(fetched.ok());
  EXPECT_EQ(*fetched, meta);
}

TEST_P(DaosClientTest, DkeysSpreadOverEngineTargets) {
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  Buffer data(256);
  for (int i = 0; i < 64; ++i) {
    ASSERT_TRUE(client_
                    ->Update(cont_, *oid, "chunk" + std::to_string(i), "d",
                             0, data)
                    .ok());
  }
  // At least half the targets must hold something (placement works).
  int populated = 0;
  for (std::uint32_t t = 0; t < engine_->num_targets(); ++t) {
    if (!engine_->target_vos(t)->ListDkeys(*oid).empty()) ++populated;
  }
  EXPECT_GE(populated, 4);
  // And enumeration through the client sees all dkeys across targets.
  auto dkeys = client_->ListEntriesPage(cont_, *oid, "", "", 0);
  ASSERT_TRUE(dkeys.ok());
  EXPECT_EQ(dkeys->entries.size(), 64u);
}

TEST_P(DaosClientTest, PunchScopes) {
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  Buffer data = MakePatternBuffer(64, 1);
  ASSERT_TRUE(client_->Update(cont_, *oid, "d1", "a1", 0, data).ok());
  ASSERT_TRUE(client_->Update(cont_, *oid, "d1", "a2", 0, data).ok());
  ASSERT_TRUE(client_->Update(cont_, *oid, "d2", "a1", 0, data).ok());

  ASSERT_TRUE(client_->PunchAkey(cont_, *oid, "d1", "a1").ok());
  Buffer out(64);
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "d1", "a1", 0, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "d1", "a2", 0, out).ok());
  EXPECT_EQ(out, data);

  ASSERT_TRUE(client_->PunchDkey(cont_, *oid, "d1").ok());
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "d1", "a2", 0, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));

  ASSERT_TRUE(client_->PunchObject(cont_, *oid).ok());
  auto dkeys = client_->ListEntriesPage(cont_, *oid, "", "", 0);
  ASSERT_TRUE(dkeys.ok());
  EXPECT_TRUE(dkeys->entries.empty());
}

TEST_P(DaosClientTest, FetchZeroesHolesAndPunchedRanges) {
  // The engine stages a fetch in uninitialized memory, so every byte of
  // the reply, zeros included, must come from VOS. A full 1 MiB fetch
  // first leaves non-zero bytes in the allocator; a window with
  // never-written holes, or with punched ranges, must still read them as
  // zeros.
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  Buffer full = MakePatternBuffer(kMiB, 1);
  ASSERT_TRUE(client_->Update(cont_, *oid, "dk", "full", 0, full).ok());

  // Both akeys end up with data at [16 KiB, 256 KiB) and [512 KiB, 1 MiB).
  // In "sparse" the rest was never written; in "punched" all of it was,
  // before a punch of the akey.
  Buffer head = MakePatternBuffer(240 * kKiB, 3);
  Buffer tail = MakePatternBuffer(512 * kKiB, 4);
  ASSERT_TRUE(client_->Update(cont_, *oid, "dk", "punched", 0,
                              MakePatternBuffer(kMiB, 2))
                  .ok());
  ASSERT_TRUE(client_->PunchAkey(cont_, *oid, "dk", "punched").ok());
  for (const char* akey : {"sparse", "punched"}) {
    ASSERT_TRUE(
        client_->Update(cont_, *oid, "dk", akey, 16 * kKiB, head).ok());
    ASSERT_TRUE(
        client_->Update(cont_, *oid, "dk", akey, 512 * kKiB, tail).ok());
  }
  Buffer expect(kMiB);
  std::copy(head.begin(), head.end(), expect.begin() + 16 * kKiB);
  std::copy(tail.begin(), tail.end(), expect.begin() + 512 * kKiB);

  // Each window is read into the buffer the full fetch just filled, so its
  // staging buffer reuses memory the full fetch's staging buffer held
  // (after the first large free, the allocator serves 1 MiB from the heap
  // rather than from fresh zero pages).
  for (int round = 0; round < 2; ++round) {
    for (const char* akey : {"sparse", "punched"}) {
      Buffer got(kMiB);
      ASSERT_TRUE(client_->Fetch(cont_, *oid, "dk", "full", 0, got).ok());
      EXPECT_EQ(got, full);
      ASSERT_TRUE(client_->Fetch(cont_, *oid, "dk", akey, 0, got).ok());
      EXPECT_EQ(got, expect) << akey << " round " << round;
    }
  }
}

TEST_P(DaosClientTest, WindowsThatWrapPast64BitsAreRejected) {
  // The offset and length of an update or fetch come off the wire; a
  // window whose end wraps past 2^64 is refused rather than half-served.
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  const std::uint64_t offset = ~std::uint64_t(0) - 99;
  Buffer data = MakePatternBuffer(4 * kKiB, 1);
  EXPECT_EQ(client_->Update(cont_, *oid, "dk", "ak", offset, data)
                .status()
                .code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(client_->Update(cont_, *oid, "dk", "ak", 0, data).ok());
  Buffer out(4 * kKiB);
  EXPECT_EQ(client_->Fetch(cont_, *oid, "dk", "ak", offset, out).code(),
            ErrorCode::kInvalidArgument);
}

TEST_P(DaosClientTest, ArraySizeAndAggregate) {
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  for (int i = 0; i < 20; ++i) {
    Buffer data = MakePatternBuffer(1000, std::uint64_t(i));
    ASSERT_TRUE(
        client_->Update(cont_, *oid, "dk", "ak", (i % 5) * 500, data).ok());
  }
  auto size = client_->ArraySize(cont_, *oid, "dk", "ak");
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4u * 500 + 1000);
  Buffer before(*size);
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "dk", "ak", 0, before).ok());
  ASSERT_TRUE(client_->Aggregate(cont_, *oid, "dk", "ak", kEpochHead).ok());
  Buffer after(*size);
  ASSERT_TRUE(client_->Fetch(cont_, *oid, "dk", "ak", 0, after).ok());
  EXPECT_EQ(after, before);
}

TEST_P(DaosClientTest, UnknownContainerRejected) {
  Buffer data(16);
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  EXPECT_EQ(client_->Update(999, *oid, "d", "a", 0, data).status().code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(client_->AllocOid(999).status().code(), ErrorCode::kNotFound);
}

TEST_P(DaosClientTest, ListAkeys) {
  auto oid = client_->AllocOid(cont_);
  ASSERT_TRUE(oid.ok());
  Buffer data(16);
  ASSERT_TRUE(client_->Update(cont_, *oid, "d", "a1", 0, data).ok());
  ASSERT_TRUE(client_->Update(cont_, *oid, "d", "a2", 0, data).ok());
  auto akeys = client_->ListAkeys(cont_, *oid, "d");
  ASSERT_TRUE(akeys.ok());
  EXPECT_EQ(akeys->size(), 2u);
}

long MinorFaults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

TEST(DkeyListingTest, PagesReportMoreEvenWhenOneTargetHoldsThemAll) {
  // With one target the page is that target's run alone, so `more` must
  // come from the run itself, not from the merge overshooting `limit`.
  for (std::uint32_t targets : {1u, 4u}) {
    ClusterSpec spec;
    spec.engine.targets = targets;
    spec.engine.scm_per_target = 4 * kMiB;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    auto client = (*cluster)->Connect({});
    ASSERT_TRUE(client.ok());
    DaosClient& c = **client;
    auto cont = c.ContainerCreate("c");
    ASSERT_TRUE(cont.ok());
    const ObjectId oid{*cont, 7};
    for (const char* dkey : {"a", "b", "c", "d", "e", "f"}) {
      ASSERT_TRUE(c.UpdateSingle(*cont, oid, dkey, "e",
                                 MakePatternBuffer(4, std::uint64_t(*dkey)))
                      .ok());
    }
    ASSERT_TRUE(c.PunchDkey(*cont, oid, "f").ok());  // listed by name only

    std::vector<std::size_t> name_pages;
    std::vector<std::size_t> entry_pages;
    std::string name_marker;
    std::string entry_marker;
    for (int page = 0; page < 8; ++page) {
      auto names = c.ListEntriesPage(*cont, oid, "", name_marker, 2);
      ASSERT_TRUE(names.ok());
      name_pages.push_back(names->entries.size());
      if (!names->more) break;
      EXPECT_EQ(names->next_marker, names->entries.back().dkey);
      name_marker = names->next_marker;
    }
    for (int page = 0; page < 8; ++page) {
      auto entries = c.ListEntriesPage(*cont, oid, "e", entry_marker, 2);
      ASSERT_TRUE(entries.ok());
      entry_pages.push_back(entries->entries.size());
      for (const auto& entry : entries->entries) {
        EXPECT_EQ(entry.value,
                  MakePatternBuffer(4, std::uint64_t(entry.dkey[0])));
      }
      if (!entries->more) break;
      EXPECT_EQ(entries->next_marker, entries->entries.back().dkey);
      entry_marker = entries->next_marker;
    }
    EXPECT_EQ(name_pages, (std::vector<std::size_t>{2, 2, 2}))
        << targets << " target(s)";
    EXPECT_EQ(entry_pages, (std::vector<std::size_t>{2, 2, 1}))
        << targets << " target(s)";
  }
}

#if defined(__GLIBC__) && !defined(__SANITIZE_ADDRESS__) && \
    !defined(__SANITIZE_THREAD__)
constexpr bool kGlibcHeap = true;
#else
constexpr bool kGlibcHeap = false;  // a sanitizer's allocator, or no glibc
#endif

TEST(ClusterHeapTest, BootKeepsFreedMemoryResident) {
  if (!kGlibcHeap) GTEST_SKIP() << "heap policy applies to glibc malloc";
  ASSERT_TRUE(Cluster::Boot(ClusterSpec{}).ok());
  // Five 16 MiB blocks freed together leave 80 MiB at the heap top, past
  // the largest trim threshold glibc picks on its own (64 MiB). Without
  // the policy each cycle returns them to the kernel and faults all
  // 20 480 pages back in.
  auto cycle = [](int round) {
    std::vector<std::unique_ptr<std::byte[]>> blocks;
    for (int i = 0; i < 5; ++i) {
      blocks.push_back(std::make_unique_for_overwrite<std::byte[]>(16 * kMiB));
      volatile std::byte* bytes = blocks.back().get();
      for (std::uint64_t off = 0; off < 16 * kMiB; off += 4 * kKiB) {
        bytes[off] = std::byte(round);
      }
    }
  };
  cycle(0);
  const long before = MinorFaults();
  for (int round = 1; round <= 4; ++round) cycle(round);
  EXPECT_LT(MinorFaults() - before, 256);
}

INSTANTIATE_TEST_SUITE_P(Transports, DaosClientTest,
                         ::testing::Values(net::Transport::kTcp,
                                           net::Transport::kRdma),
                         [](const auto& info) {
                           return std::string(
                               perf::TransportName(info.param));
                         });

}  // namespace
}  // namespace ros2::daos
