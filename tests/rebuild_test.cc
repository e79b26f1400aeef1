// Self-healing redundancy, serial + deterministic: pool-map versioning,
// degraded writes feeding the resync journal, the background rebuild
// restoring full redundancy byte-exactly, and the reply-time degraded
// path (a send that raced the down-transition, the CheckReplicasUp
// TOCTOU the pool map closed).
#include "daos/rebuild.h"

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "common/bytes.h"
#include "common/fault.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/placement.h"

namespace ros2::daos {
namespace {

class RebuildTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kEngines = 3;
  static constexpr std::uint32_t kReplicas = 2;
  static constexpr std::uint32_t kVictim = 1;

  void SetUp() override {
    ClusterSpec spec;
    spec.engines = kEngines;
    spec.engine.address = "fabric://rebuild-engine";
    spec.engine.targets = 4;
    spec.engine.scm_per_target = 16 * kMiB;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    engines_ = cluster_->engines();
    map_ = cluster_->pool_map();

    DaosClient::ConnectOptions options;
    options.client_address = "fabric://rebuild-client";
    options.replicas = kReplicas;
    auto client = cluster_->Connect(options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);

    DaosClient::ConnectOptions ropts;
    ropts.client_address = "fabric://rebuild-mgr";
    ropts.replicas = kReplicas;
    auto mgr = cluster_->NewRebuildManager(ropts);
    ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
    mgr_ = std::move(*mgr);
  }

  /// True when `engine` is in the dkey's replica ring.
  bool OwesCopy(const ObjectId& oid, const std::string& dkey,
                std::uint32_t engine) const {
    const std::uint32_t primary = PlaceEngine(oid, dkey, kEngines);
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      if ((primary + r) % kEngines == engine) return true;
    }
    return false;
  }

  /// Reads every dkey in `expected` with ONLY `engine` up, comparing
  /// bytes — proof the rebuilt engine alone can serve its share.
  void VerifyAlone(ContainerId cont, const ObjectId& oid,
                   std::uint32_t engine,
                   const std::map<std::string, Buffer>& expected) {
    for (std::uint32_t e = 0; e < kEngines; ++e) {
      if (e != engine) {
        ASSERT_TRUE(client_->SetEngineDown(e, true).ok());
      }
    }
    for (const auto& [dkey, want] : expected) {
      if (!OwesCopy(oid, dkey, engine)) continue;
      Buffer out(want.size());
      ASSERT_TRUE(client_->Fetch(cont, oid, dkey, "a", 0, out).ok())
          << dkey << " unreadable from rebuilt engine alone";
      EXPECT_EQ(out, want) << dkey << " diverged on the rebuilt engine";
    }
    for (std::uint32_t e = 0; e < kEngines; ++e) {
      if (e != engine) {
        ASSERT_TRUE(client_->SetEngineDown(e, false).ok());
      }
    }
  }

  std::unique_ptr<Cluster> cluster_;
  std::span<DaosEngine* const> engines_;
  PoolMap* map_ = nullptr;
  std::unique_ptr<DaosClient> client_;
  std::unique_ptr<RebuildManager> mgr_;
};

TEST_F(RebuildTest, PoolMapVersionsEveryTransition) {
  EXPECT_EQ(map_->version(), 1u);
  EXPECT_EQ(map_->state(kVictim), EngineState::kUp);
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kDown).ok());
  EXPECT_EQ(map_->version(), 2u);
  EXPECT_FALSE(map_->readable(kVictim));
  EXPECT_FALSE(map_->writable(kVictim));
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kRebuilding).ok());
  EXPECT_EQ(map_->version(), 3u);
  EXPECT_FALSE(map_->readable(kVictim));
  EXPECT_TRUE(map_->writable(kVictim));
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kUp).ok());
  EXPECT_EQ(map_->version(), 4u);
  EXPECT_EQ(map_->transitions(), 3u);
  EXPECT_EQ(map_->SetState(99, EngineState::kDown).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(RebuildTest, SharedMapPropagatesToClientRouting) {
  // One SetState on the shared map redirects the client immediately: no
  // per-client flag, one authority.
  auto cont = client_->ContainerCreate("shared");
  ASSERT_TRUE(cont.ok());
  auto oid = client_->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  Buffer data = MakePatternBuffer(512, 1);
  ASSERT_TRUE(client_->Update(*cont, *oid, "dk", "a", 0, data).ok());
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kDown).ok());
  Buffer out(data.size());
  EXPECT_TRUE(client_->Fetch(*cont, *oid, "dk", "a", 0, out).ok());
  EXPECT_EQ(out, data);
  EXPECT_EQ(client_->pool_map(), map_);
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kUp).ok());
}

TEST_F(RebuildTest, DegradedWriteJournalsThenRebuildRestoresByteExact) {
  auto cont = client_->ContainerCreate("degraded");
  ASSERT_TRUE(cont.ok());
  auto oid = client_->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());

  // Healthy phase: arrays and singles, some of which the victim holds.
  std::map<std::string, Buffer> arrays;
  std::map<std::string, Buffer> singles;
  for (int i = 0; i < 24; ++i) {
    const std::string dkey = "d" + std::to_string(i);
    Buffer data = MakePatternBuffer(2048, std::uint64_t(i) + 1);
    ASSERT_TRUE(client_->Update(*cont, *oid, dkey, "a", 0, data).ok());
    arrays[dkey] = std::move(data);
    const std::string skey = "s" + std::to_string(i);
    Buffer value = MakePatternBuffer(96, std::uint64_t(i) + 100);
    ASSERT_TRUE(
        client_->UpdateSingle(*cont, *oid, skey, "a", value).ok());
    singles[skey] = std::move(value);
  }

  // Failure: every write from here on degrades around the victim.
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kDown).ok());
  for (int i = 0; i < 24; i += 3) {
    const std::string dkey = "d" + std::to_string(i);
    Buffer data = MakePatternBuffer(2048, std::uint64_t(i) + 500);
    ASSERT_TRUE(client_->Update(*cont, *oid, dkey, "a", 0, data).ok())
        << "degraded overwrite must succeed";
    arrays[dkey] = std::move(data);
  }
  for (int i = 24; i < 32; ++i) {  // brand-new dkeys while degraded
    const std::string dkey = "d" + std::to_string(i);
    Buffer data = MakePatternBuffer(1024, std::uint64_t(i) + 900);
    ASSERT_TRUE(client_->Update(*cont, *oid, dkey, "a", 0, data).ok());
    arrays[dkey] = std::move(data);
  }
  EXPECT_GT(map_->journal().depth(kVictim), 0u);
  EXPECT_GT(map_->journal().recorded(), 0u);

  // Rebuild: bulk scan + journal replay, then UP.
  ASSERT_TRUE(mgr_->Rebuild(kVictim).ok());
  EXPECT_EQ(map_->state(kVictim), EngineState::kUp);
  EXPECT_EQ(map_->journal().depth(kVictim), 0u);
  EXPECT_GT(mgr_->dkeys_scanned(kVictim), 0u);
  EXPECT_GT(mgr_->bytes_copied(kVictim), 0u);
  EXPECT_GT(mgr_->journal_replayed(kVictim), 0u);
  EXPECT_EQ(mgr_->progress(kVictim), 100);

  // The rebuilt engine alone serves every dkey it owes, byte-exact —
  // including the overwrites and the dkeys born while it was DOWN.
  VerifyAlone(*cont, *oid, kVictim, arrays);
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    if (e != kVictim) {
      ASSERT_TRUE(client_->SetEngineDown(e, true).ok());
    }
  }
  for (const auto& [skey, want] : singles) {
    if (!OwesCopy(*oid, skey, kVictim)) continue;
    auto got = client_->FetchSingle(*cont, *oid, skey, "a");
    ASSERT_TRUE(got.ok()) << skey;
    EXPECT_EQ(*got, want) << skey;
  }
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    if (e != kVictim) {
      ASSERT_TRUE(client_->SetEngineDown(e, false).ok());
    }
  }
}

TEST_F(RebuildTest, RebuildFromScanAloneNeedsNoJournal) {
  // No degraded writes at all: the bulk scan must discover everything
  // the victim owes from the survivors' indexes.
  auto cont = client_->ContainerCreate("scan-only");
  ASSERT_TRUE(cont.ok());
  auto oid = client_->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  std::map<std::string, Buffer> data;
  for (int i = 0; i < 16; ++i) {
    const std::string dkey = "k" + std::to_string(i);
    Buffer buf = MakePatternBuffer(4096, std::uint64_t(i) + 1);
    ASSERT_TRUE(client_->Update(*cont, *oid, dkey, "a", 0, buf).ok());
    data[dkey] = std::move(buf);
  }
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kDown).ok());
  ASSERT_EQ(map_->journal().depth(kVictim), 0u);
  ASSERT_TRUE(mgr_->Rebuild(kVictim).ok());
  EXPECT_EQ(map_->state(kVictim), EngineState::kUp);
  EXPECT_GT(mgr_->dkeys_scanned(kVictim), 0u);
  VerifyAlone(*cont, *oid, kVictim, data);
}

TEST_F(RebuildTest, RebuildRejectsUpEngineAndResyncIsIdempotent) {
  EXPECT_EQ(mgr_->Rebuild(kVictim).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(mgr_->Rebuild(99).code(), ErrorCode::kInvalidArgument);
  // Resync with an empty journal is a cheap no-op.
  EXPECT_TRUE(mgr_->Resync(kVictim).ok());
  EXPECT_EQ(mgr_->journal_replayed(kVictim), 0u);
}

/// The client call a degraded-write test goes through. Update and a
/// one-op UpdateBatch share one issue/await core, so every degraded rule
/// must hold on both.
enum class WriteCall { kUpdate, kUpdateBatch };

class RebuildWriteTest : public RebuildTest,
                         public ::testing::WithParamInterface<WriteCall> {
 protected:
  Result<Epoch> Write(ContainerId cont, const ObjectId& oid,
                      const std::string& dkey,
                      std::span<const std::byte> data) {
    if (GetParam() == WriteCall::kUpdate) {
      return client_->Update(cont, oid, dkey, "a", 0, data);
    }
    DaosClient::UpdateOp op;
    op.cont = cont;
    op.oid = oid;
    op.dkey = dkey;
    op.akey = "a";
    op.data = data;
    ROS2_ASSIGN_OR_RETURN(std::vector<Epoch> epochs,
                          client_->UpdateBatch(std::span(&op, 1)));
    EXPECT_EQ(epochs.size(), 1u);
    return epochs.at(0);
  }
};

TEST_P(RebuildWriteTest, WritesLandOnRebuildingEngineAndConverge) {
  // A write racing the REBUILDING window lands on the replacement AND
  // journals post-completion; the drain loop re-silvers survivor HEAD so
  // the final bytes match regardless of apply order.
  auto cont = client_->ContainerCreate("racing");
  ASSERT_TRUE(cont.ok());
  auto oid = client_->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  Buffer v1 = MakePatternBuffer(1024, 1);
  ASSERT_TRUE(Write(*cont, *oid, "race", v1).ok());
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kRebuilding).ok());
  Buffer v2 = MakePatternBuffer(1024, 2);
  ASSERT_TRUE(Write(*cont, *oid, "race", v2).ok());
  if (OwesCopy(*oid, "race", kVictim)) {
    EXPECT_GT(map_->journal().depth(kVictim), 0u)
        << "rebuilding-window write must journal post-completion";
  }
  ASSERT_TRUE(mgr_->Rebuild(kVictim).ok());
  std::map<std::string, Buffer> expected;
  expected["race"] = v2;
  VerifyAlone(*cont, *oid, kVictim, expected);
}

TEST_P(RebuildWriteTest, ReplyTimeUnavailableDegradesInsteadOfFailing) {
  // The TOCTOU the pool map closed: the map says UP at issue time, but
  // the copy comes back UNAVAILABLE (here: an armed kRpcDrop on the
  // victim's server). The write must still succeed on the survivors and
  // journal the miss — per-send rejection is authoritative, not the
  // pre-issue map check.
  auto cont = client_->ContainerCreate("toctou");
  ASSERT_TRUE(cont.ok());
  auto oid = client_->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  // A dkey the victim owes a copy of, so the drop hits a replica write.
  std::string dkey = "t0";
  for (int i = 0; OwesCopy(*oid, dkey, kVictim) == false; ++i) {
    dkey = "t" + std::to_string(i);
  }
  common::FaultPlan plan;
  common::FaultSpec spec;
  spec.count = 1;
  plan.Arm(common::FaultPoint::kRpcDrop, spec);
  engines_[kVictim]->server()->set_fault_plan(&plan);
  Buffer data = MakePatternBuffer(512, 7);
  ASSERT_TRUE(Write(*cont, *oid, dkey, data).ok())
      << "reply-time UNAVAILABLE must degrade, not fail";
  EXPECT_EQ(plan.fired(common::FaultPoint::kRpcDrop), 1u);
  EXPECT_EQ(map_->journal().depth(kVictim), 1u);
  engines_[kVictim]->server()->set_fault_plan(nullptr);

  // Resync (the engine is UP — no full rebuild needed) replays the miss;
  // afterwards the victim serves the dkey alone.
  ASSERT_TRUE(mgr_->Resync(kVictim).ok());
  EXPECT_EQ(map_->journal().depth(kVictim), 0u);
  std::map<std::string, Buffer> expected;
  expected[dkey] = data;
  VerifyAlone(*cont, *oid, kVictim, expected);
}

TEST_P(RebuildWriteTest, ZeroLandedCopiesIsAHardFailure) {
  // Degraded mode needs at least one survivor: with every replica
  // unwritable the update fails UNAVAILABLE and the status carries the
  // landed count instead of silently journaling everything.
  auto cont = client_->ContainerCreate("hard-err");
  ASSERT_TRUE(cont.ok());
  auto oid = client_->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  // All replicas down -> 0/N landed is UNAVAILABLE with the landed count.
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    ASSERT_TRUE(map_->SetState(e, EngineState::kDown).ok());
  }
  Buffer data(64);
  const Status st = Write(*cont, *oid, "x", data).status();
  EXPECT_EQ(st.code(), ErrorCode::kUnavailable);
  EXPECT_NE(st.message().find("no writable replica"), std::string::npos)
      << st.ToString();
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    ASSERT_TRUE(map_->SetState(e, EngineState::kUp).ok());
  }
  // A hard (non-UNAVAILABLE) replica error is not degraded away: every
  // copy to an unknown container fails, and the status says how many
  // copies landed.
  const std::uint64_t recorded = map_->journal().recorded();
  const Status hard = Write(*cont + 1000, *oid, "x", data).status();
  EXPECT_FALSE(hard.ok());
  EXPECT_NE(hard.code(), ErrorCode::kUnavailable) << hard.ToString();
  EXPECT_NE(hard.message().find("0/2 replica copies landed"),
            std::string::npos)
      << hard.ToString();
  EXPECT_EQ(map_->journal().recorded(), recorded)
      << "a hard error must not journal";
}

INSTANTIATE_TEST_SUITE_P(WriteCalls, RebuildWriteTest,
                         ::testing::Values(WriteCall::kUpdate,
                                           WriteCall::kUpdateBatch),
                         [](const auto& info) {
                           return std::string(info.param == WriteCall::kUpdate
                                                  ? "Update"
                                                  : "UpdateBatch");
                         });

}  // namespace
}  // namespace ros2::daos
