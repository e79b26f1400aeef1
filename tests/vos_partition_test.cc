// Target-partitioning tests: several VOS targets sharing one NVMe device
// must never touch each other's LBA ranges — the invariant behind the
// engine's target-per-device layout. Targets also share one SCM arena,
// each up to its own quota: a target at its quota spills to NVMe as a
// private pool would, and the engine's resident SCM follows what its
// targets hold at once, not the sum of each target's own worst round.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/vos.h"
#include "support/test_support.h"

namespace ros2::daos {
namespace {

TEST(VosPartitionTest, TwoTargetsOneDeviceDoNotCollide) {
  storage::NvmeDeviceConfig dev;
  dev.capacity_bytes = 128 * kMiB;
  storage::NvmeDevice device(dev);

  spdk::Bdev bdev_a(&device);
  spdk::Bdev bdev_b(&device);
  scm::PmemPool scm_a(8 * kMiB);
  scm::PmemPool scm_b(8 * kMiB);

  VosConfig config_a;
  config_a.nvme_base = 0;
  config_a.nvme_capacity = 64 * kMiB;
  VosConfig config_b;
  config_b.nvme_base = 64 * kMiB;
  config_b.nvme_capacity = 64 * kMiB;
  Vos a(&scm_a, &bdev_a, config_a);
  Vos b(&scm_b, &bdev_b, config_b);

  const ObjectId oid{1, 1};
  // Interleave large (NVMe-tier) writes on both targets.
  for (Epoch e = 1; e <= 20; ++e) {
    Buffer data_a = MakePatternBuffer(256 * 1024, e);
    Buffer data_b = MakePatternBuffer(256 * 1024, e + 1000);
    ASSERT_TRUE(a.UpdateArray(oid, "d", "a", e, (e - 1) * 256 * 1024,
                              data_a)
                    .ok());
    ASSERT_TRUE(b.UpdateArray(oid, "d", "a", e, (e - 1) * 256 * 1024,
                              data_b)
                    .ok());
  }
  // Every extent on both targets reads back intact (a collision would trip
  // the CRC as DATA_LOSS or return the other target's bytes).
  for (Epoch e = 1; e <= 20; ++e) {
    Buffer out(256 * 1024);
    ASSERT_TRUE(
        a.FetchArray(oid, "d", "a", kEpochHead, (e - 1) * 256 * 1024, out)
            .ok());
    EXPECT_EQ(VerifyPattern(out, e, 0), -1) << "target a extent " << e;
    ASSERT_TRUE(
        b.FetchArray(oid, "d", "a", kEpochHead, (e - 1) * 256 * 1024, out)
            .ok());
    EXPECT_EQ(VerifyPattern(out, e + 1000, 0), -1)
        << "target b extent " << e;
  }
}

TEST(VosPartitionTest, PartitionCapacityIsEnforced) {
  storage::NvmeDeviceConfig dev;
  dev.capacity_bytes = 128 * kMiB;
  storage::NvmeDevice device(dev);
  spdk::Bdev bdev(&device);
  scm::PmemPool scm(8 * kMiB);
  VosConfig config;
  config.nvme_base = 0;
  config.nvme_capacity = 1 * kMiB;  // tiny partition
  Vos vos(&scm, &bdev, config);

  const ObjectId oid{1, 1};
  // First large record fits; the partition (not the device) then fills up.
  Buffer big = MakePatternBuffer(512 * 1024, 1);
  ASSERT_TRUE(vos.UpdateArray(oid, "d", "a", 1, 0, big).ok());
  Buffer more = MakePatternBuffer(768 * 1024, 2);
  EXPECT_EQ(vos.UpdateArray(oid, "d", "a", 2, 1 << 20, more).code(),
            ErrorCode::kResourceExhausted);
}

TEST(VosPartitionTest, ReleasedSpaceIsReusableWithinPartition) {
  storage::NvmeDeviceConfig dev;
  dev.capacity_bytes = 64 * kMiB;
  storage::NvmeDevice device(dev);
  spdk::Bdev bdev(&device);
  scm::PmemPool scm(8 * kMiB);
  VosConfig config;
  config.nvme_base = 0;
  config.nvme_capacity = 2 * kMiB;
  Vos vos(&scm, &bdev, config);

  const ObjectId oid{1, 1};
  // Fill, punch (reclaims), refill — several times over.
  for (int round = 0; round < 5; ++round) {
    Buffer data = MakePatternBuffer(1 << 20, std::uint64_t(round));
    ASSERT_TRUE(
        vos.UpdateArray(oid, "d", "a", Epoch(round * 2 + 1), 0, data).ok())
        << "round " << round;
    ASSERT_TRUE(vos.PunchObject(oid, Epoch(round * 2 + 2)).ok());
  }
}

TEST(VosPartitionTest, TargetAtItsScmQuotaSpillsWhileTheArenaHasRoom) {
  storage::NvmeDeviceConfig dev;
  dev.capacity_bytes = 64 * kMiB;
  storage::NvmeDevice device(dev);
  spdk::Bdev bdev(&device);
  scm::ScmArena arena(4 * kMiB);
  scm::PmemPool quota(&arena, 100 * kKiB);
  scm::PmemPool sibling(&arena, 4 * kMiB);
  Vos vos(&quota, &bdev);

  // Room for two 48 KiB records under the quota; the third spills.
  const ObjectId oid{1, 1};
  Buffer all(3 * 48 * kKiB);
  for (std::uint64_t i = 0; i < 3; ++i) {
    Buffer part = MakePatternBuffer(48 * kKiB, i + 1);
    ASSERT_TRUE(
        vos.UpdateArray(oid, "d", "a", i + 1, i * 48 * kKiB, part).ok());
    std::copy(part.begin(), part.end(), all.begin() + i * 48 * kKiB);
  }
  EXPECT_EQ(vos.stats().scm_records, 2u);
  EXPECT_EQ(vos.stats().nvme_records, 1u);
  EXPECT_TRUE(sibling.Alloc(2 * kMiB).ok()) << "the arena had room";
  Buffer out(all.size());
  ASSERT_TRUE(vos.FetchArray(oid, "d", "a", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, all);
}

// Overwrite rounds scaled down from benchmark/'s overwrite_tcp: write
// kObjects x kBlocks 64 KiB blocks, then kRoundOps random blocks with
// three overwrites in every ten ops (VOS keeps every overwritten record),
// then punch everything. Every round holds the same bytes at its peak, but
// which targets hold them changes with the random draws. Per-target arenas
// each stayed resident up to their own worst round, so their sum grew with
// the number of rounds; one engine arena stays at one round's bytes.
TEST(VosPartitionTest, EngineArenaHighWaterIsOneRound) {
  constexpr std::uint64_t kBlock = 64 * kKiB;
  constexpr int kObjects = 8;
  constexpr int kBlocks = 8;
  constexpr int kRoundOps = 100;
  constexpr int kRounds = 4;
  constexpr std::uint64_t kRoundBytes =
      (kObjects * kBlocks + kRoundOps * 3 / 10) * kBlock;
  ClusterSpec spec;
  spec.engine.address = "fabric://arena-engine";
  spec.engine.scm_per_target = 16 * kMiB;
  auto cluster = Cluster::Boot(spec);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  DaosClient::ConnectOptions options;
  options.client_address = "fabric://arena-client";
  auto client = (*cluster)->Connect(options);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  DaosClient& daos = **client;
  auto cont = daos.ContainerCreate("overwrite");
  ASSERT_TRUE(cont.ok());
  const scm::ScmArena& arena = (*cluster)->engine(0)->scm_arena();

  Rng rng = test::MakeTestRng();
  const Buffer block = MakePatternBuffer(kBlock, 1);
  Buffer out(kBlock);
  std::vector<std::uint64_t> high_water;
  for (int round = 0; round < 2 * kRounds; ++round) {
    std::vector<ObjectId> oids;
    for (int o = 0; o < kObjects; ++o) {
      auto oid = daos.AllocOid(*cont);
      ASSERT_TRUE(oid.ok());
      oids.push_back(*oid);
      for (int b = 0; b < kBlocks; ++b) {
        ASSERT_TRUE(
            daos.Update(*cont, *oid, std::to_string(b), "a", 0, block).ok());
      }
    }
    for (int op = 0; op < kRoundOps; ++op) {
      const ObjectId& oid = oids[rng.Below(kObjects)];
      const std::string dkey = std::to_string(rng.Below(kBlocks));
      if (op % 10 < 3) {
        ASSERT_TRUE(daos.Update(*cont, oid, dkey, "a", 0, block).ok());
      } else {
        ASSERT_TRUE(daos.Fetch(*cont, oid, dkey, "a", 0, out).ok());
        ASSERT_EQ(out, block);
      }
    }
    for (const ObjectId& oid : oids) {
      ASSERT_TRUE(daos.PunchObject(*cont, oid).ok());
    }
    high_water.push_back(arena.high_water());
  }
  EXPECT_EQ(high_water[kRounds - 1], kRoundBytes);
  EXPECT_EQ(high_water[2 * kRounds - 1], high_water[kRounds - 1]);
}

}  // namespace
}  // namespace ros2::daos
