// End-to-end engine + client tests over both transports: pool auth,
// containers, object I/O with bulk transfer, epochs, punch, enumeration.
#include "daos/client.h"

#include <gtest/gtest.h>

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
  auto dkeys = client_->ListDkeys(cont_, *oid);
  ASSERT_TRUE(dkeys.ok());
  EXPECT_EQ(dkeys->size(), 64u);
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
  auto dkeys = client_->ListDkeys(cont_, *oid);
  ASSERT_TRUE(dkeys.ok());
  EXPECT_TRUE(dkeys->empty());
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

INSTANTIATE_TEST_SUITE_P(Transports, DaosClientTest,
                         ::testing::Values(net::Transport::kTcp,
                                           net::Transport::kRdma),
                         [](const auto& info) {
                           return std::string(
                               perf::TransportName(info.param));
                         });

}  // namespace
}  // namespace ros2::daos
