// Pipelined DaosClient batch APIs (UpdateBatch/FetchBatch) and the
// concurrent replica fan-out: correctness across engines, degraded-write
// semantics with down engines (survivors land, misses journal), HEAD
// failover, in-flight-window backpressure on batches larger than the
// window, and same-dkey ordering inside one batch.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/placement.h"

namespace ros2::daos {
namespace {

class DaosBatchTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  static constexpr int kEngines = 3;

  void SetUp() override {
    ClusterSpec spec;
    spec.engines = kEngines;
    spec.engine.address = "fabric://batch-engine";
    spec.engine.targets = 4;
    spec.engine.scm_per_target = 16 * kMiB;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
  }

  Result<std::unique_ptr<DaosClient>> Connect(std::uint32_t replicas) {
    DaosClient::ConnectOptions options;
    options.transport = GetParam();
    options.client_address = "fabric://batch-client";
    options.replicas = replicas;
    return cluster_->Connect(options);
  }

  std::uint64_t TotalUpdates() const {
    std::uint64_t n = 0;
    for (const auto& engine : cluster_->engines()) {
      n += engine->updates();
    }
    return n;
  }

  std::unique_ptr<Cluster> cluster_;
};

TEST_P(DaosBatchTest, BatchRoundTripAcrossEnginesAndTargets) {
  auto client = Connect(1);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto cont = (*client)->ContainerCreate("batch");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());

  constexpr int kOps = 24;
  std::vector<Buffer> payloads;
  std::vector<DaosClient::UpdateOp> updates;
  for (int i = 0; i < kOps; ++i) {
    payloads.push_back(MakePatternBuffer(2048, std::uint64_t(i) + 1));
    DaosClient::UpdateOp op;
    op.cont = *cont;
    op.oid = *oid;
    op.dkey = "dkey-" + std::to_string(i);  // spreads engines AND targets
    op.akey = "a";
    op.offset = 0;
    op.data = payloads.back();
    updates.push_back(std::move(op));
  }
  auto epochs = (*client)->UpdateBatch(updates);
  ASSERT_TRUE(epochs.ok()) << epochs.status().ToString();
  ASSERT_EQ(epochs->size(), std::size_t(kOps));
  for (Epoch e : *epochs) EXPECT_GT(e, 0u);
  EXPECT_EQ(TotalUpdates(), std::uint64_t(kOps));

  std::vector<Buffer> outs(kOps);
  std::vector<DaosClient::FetchOp> fetches;
  for (int i = 0; i < kOps; ++i) {
    outs[std::size_t(i)].resize(2048);
    DaosClient::FetchOp op;
    op.cont = *cont;
    op.oid = *oid;
    op.dkey = "dkey-" + std::to_string(i);
    op.akey = "a";
    op.offset = 0;
    op.out = outs[std::size_t(i)];
    fetches.push_back(std::move(op));
  }
  ASSERT_TRUE((*client)->FetchBatch(fetches).ok());
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(outs[std::size_t(i)], payloads[std::size_t(i)])
        << "fetch " << i << " returned the wrong op's bytes";
  }
}

TEST_P(DaosBatchTest, BatchLargerThanInFlightWindowStreamsThrough) {
  auto client = Connect(1);
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("big-batch");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());

  // Default rpc window is 32 in-flight; 100 ops must stream through via
  // backpressure pumping, not fail or deadlock.
  constexpr int kOps = 100;
  std::vector<Buffer> payloads;
  std::vector<DaosClient::UpdateOp> updates;
  for (int i = 0; i < kOps; ++i) {
    payloads.push_back(MakePatternBuffer(256, std::uint64_t(i) + 1));
    updates.push_back({*cont, *oid, "wide-" + std::to_string(i), "a", 0,
                       payloads.back()});
  }
  auto epochs = (*client)->UpdateBatch(updates);
  ASSERT_TRUE(epochs.ok()) << epochs.status().ToString();
  EXPECT_EQ(TotalUpdates(), std::uint64_t(kOps));
}

TEST_P(DaosBatchTest, SameDkeyKeepsBatchOrder) {
  auto client = Connect(1);
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("order");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());

  // Same (dkey, akey, offset) five times in one batch: per-target FIFO
  // means the LAST op's bytes win and epochs increase in batch order.
  constexpr int kOps = 5;
  std::vector<Buffer> payloads;
  std::vector<DaosClient::UpdateOp> updates;
  for (int i = 0; i < kOps; ++i) {
    payloads.push_back(MakePatternBuffer(512, std::uint64_t(i) + 10));
    updates.push_back({*cont, *oid, "same-dkey", "a", 0, payloads.back()});
  }
  auto epochs = (*client)->UpdateBatch(updates);
  ASSERT_TRUE(epochs.ok());
  for (int i = 1; i < kOps; ++i) {
    EXPECT_GT((*epochs)[std::size_t(i)], (*epochs)[std::size_t(i) - 1])
        << "batch order not FIFO on the shared dkey";
  }
  Buffer out(512);
  ASSERT_TRUE((*client)
                  ->Fetch(*cont, *oid, "same-dkey", "a", 0, out)
                  .ok());
  EXPECT_EQ(out, payloads.back());
}

TEST_P(DaosBatchTest, ReplicatedBatchWritesEveryReplicaConcurrently) {
  auto client = Connect(2);
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("replicated");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());

  constexpr int kOps = 12;
  std::vector<Buffer> payloads;
  std::vector<DaosClient::UpdateOp> updates;
  for (int i = 0; i < kOps; ++i) {
    payloads.push_back(MakePatternBuffer(1024, std::uint64_t(i) + 3));
    updates.push_back({*cont, *oid, "rep-" + std::to_string(i), "a", 0,
                       payloads.back()});
  }
  auto epochs = (*client)->UpdateBatch(updates);
  ASSERT_TRUE(epochs.ok()) << epochs.status().ToString();
  // Write-all x 2 replicas: every op updated exactly two engines.
  EXPECT_EQ(TotalUpdates(), std::uint64_t(kOps) * 2);

  // Failover readback: down one engine, every op remains fetchable at
  // HEAD from its surviving replica.
  ASSERT_TRUE((*client)->SetEngineDown(0, true).ok());
  std::vector<Buffer> outs(kOps);
  std::vector<DaosClient::FetchOp> fetches;
  for (int i = 0; i < kOps; ++i) {
    outs[std::size_t(i)].resize(1024);
    DaosClient::FetchOp op;
    op.cont = *cont;
    op.oid = *oid;
    op.dkey = "rep-" + std::to_string(i);
    op.akey = "a";
    op.out = outs[std::size_t(i)];
    fetches.push_back(std::move(op));
  }
  ASSERT_TRUE((*client)->FetchBatch(fetches).ok());
  for (int i = 0; i < kOps; ++i) {
    EXPECT_EQ(outs[std::size_t(i)], payloads[std::size_t(i)]);
  }
}

TEST_P(DaosBatchTest, DownEngineDegradesBatchWritesAndJournals) {
  auto client = Connect(2);
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("down");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());

  ASSERT_TRUE((*client)->SetEngineDown(1, true).ok());
  const std::uint64_t updates_before = TotalUpdates();
  Buffer payload = MakePatternBuffer(1024, 5);
  std::vector<DaosClient::UpdateOp> updates;
  // Enough dkeys that SOME op's replica set includes engine 1 for sure
  // (replica sets are {primary, primary+1} over 3 engines).
  for (int i = 0; i < 8; ++i) {
    updates.push_back({*cont, *oid, "d" + std::to_string(i), "a", 0,
                       payload});
  }
  auto epochs = (*client)->UpdateBatch(updates);
  ASSERT_TRUE(epochs.ok()) << epochs.status().ToString();
  ASSERT_EQ(epochs->size(), updates.size());

  // Degraded-write accounting: copies owed to the DOWN engine are
  // skipped and journaled; every other copy lands.
  std::uint64_t expect_landed = 0;
  std::size_t expect_journaled = 0;
  for (const auto& op : updates) {
    const std::uint32_t primary = PlaceEngine(op.oid, op.dkey, kEngines);
    const bool hits_down =
        primary == 1 || (primary + 1) % kEngines == 1;
    expect_landed += hits_down ? 1 : 2;
    if (hits_down) ++expect_journaled;
  }
  EXPECT_GT(expect_journaled, 0u) << "8 dkeys must touch engine 1";
  EXPECT_EQ(TotalUpdates() - updates_before, expect_landed);
  EXPECT_EQ((*client)->pool_map()->journal().depth(1), expect_journaled);

  // Every op stays readable at HEAD from its surviving replica.
  for (const auto& op : updates) {
    Buffer out(payload.size());
    ASSERT_TRUE(
        (*client)->Fetch(*cont, *oid, op.dkey, "a", 0, out).ok());
    EXPECT_EQ(out, payload);
  }
}

TEST_P(DaosBatchTest, SynchronousUpdateDegradesAroundDownReplica) {
  // The unary Update's concurrent replica fan-out keeps the serial
  // path's degraded contract (multiengine_test covers it broadly; this
  // pins the post-pipeline behavior on a single op): a DOWN replica-set
  // member never fails the write — the survivors land it and the miss is
  // journaled for rebuild.
  auto client = Connect(2);
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("sync-rep");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  Buffer payload = MakePatternBuffer(4096, 11);
  auto epoch = (*client)->Update(*cont, *oid, "k", "a", 0, payload);
  ASSERT_TRUE(epoch.ok()) << epoch.status().ToString();
  EXPECT_EQ(TotalUpdates(), 2u);

  // The dkey's replica set is exactly 2 of the 3 engines: downing a
  // replica member degrades the update (it still succeeds, journaling
  // the miss); downing the third engine leaves the update unaffected.
  // HEAD reads survive any single down engine via failover.
  ResyncJournal& journal = (*client)->pool_map()->journal();
  int journaled_downs = 0;
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    ASSERT_TRUE((*client)->SetEngineDown(e, true).ok());
    const std::size_t depth_before = journal.depth(e);
    ASSERT_TRUE((*client)->Update(*cont, *oid, "k", "a", 0, payload).ok())
        << "degraded write must succeed with engine " << e << " down";
    if (journal.depth(e) > depth_before) ++journaled_downs;
    Buffer out(4096);
    ASSERT_TRUE((*client)->Fetch(*cont, *oid, "k", "a", 0, out).ok())
        << "HEAD fetch must fail over around down engine " << e;
    EXPECT_EQ(out, payload);
    ASSERT_TRUE((*client)->SetEngineDown(e, false).ok());
  }
  EXPECT_EQ(journaled_downs, 2) << "exactly the replica-set members must "
                                   "journal a missed copy";
}

INSTANTIATE_TEST_SUITE_P(Transports, DaosBatchTest,
                         ::testing::Values(net::Transport::kTcp,
                                           net::Transport::kRdma),
                         [](const auto& info) {
                           return std::string(
                               perf::TransportName(info.param));
                         });

}  // namespace
}  // namespace ros2::daos
