// Versioned-object-store tests: extent semantics, epochs, tiering,
// end-to-end chunk checksums, punch, and aggregation (§2.4's object model).
#include "daos/vos.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "rpc/wire.h"

namespace ros2::daos {
namespace {

class VosTest : public ::testing::Test {
 protected:
  VosTest() {
    storage::NvmeDeviceConfig config;
    config.capacity_bytes = 256 * kMiB;
    device_ = std::make_unique<storage::NvmeDevice>(config);
    bdev_ = std::make_unique<spdk::Bdev>(device_.get());
    scm_ = std::make_unique<scm::PmemPool>(32 * kMiB);
    vos_ = std::make_unique<Vos>(scm_.get(), bdev_.get());
  }

  const ObjectId oid_{1, 1};
  std::unique_ptr<storage::NvmeDevice> device_;
  std::unique_ptr<spdk::Bdev> bdev_;
  std::unique_ptr<scm::PmemPool> scm_;
  std::unique_ptr<Vos> vos_;
};

TEST_F(VosTest, ArrayUpdateFetchRoundTrip) {
  Buffer data = MakePatternBuffer(4096, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  Buffer out(4096);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VosTest, HolesReadAsZeros) {
  Buffer data = MakePatternBuffer(100, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 1000, data).ok());
  Buffer out(2000);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(out[i], std::byte(0));
  EXPECT_EQ(VerifyPattern(
                std::span<const std::byte>(out.data() + 1000, 100), 1, 0),
            -1);
  for (int i = 1100; i < 2000; ++i) ASSERT_EQ(out[i], std::byte(0));
}

TEST_F(VosTest, MissingObjectReadsAsHoles) {
  Buffer out = MakePatternBuffer(128, 9);
  ASSERT_TRUE(
      vos_->FetchArray(ObjectId{9, 9}, "d", "a", kEpochHead, 0, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
}

TEST_F(VosTest, OverlappingWritesNewestWins) {
  Buffer first = MakePatternBuffer(1000, 1);
  Buffer second = MakePatternBuffer(500, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, first).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 2, 250, second).ok());
  Buffer out(1000);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(VerifyPattern(std::span<const std::byte>(out.data(), 250), 1, 0),
            -1);
  EXPECT_EQ(VerifyPattern(
                std::span<const std::byte>(out.data() + 250, 500), 2, 0),
            -1);
  EXPECT_EQ(VerifyPattern(
                std::span<const std::byte>(out.data() + 750, 250), 1, 750),
            -1);
}

TEST_F(VosTest, EpochSnapshotReads) {
  Buffer v1 = MakePatternBuffer(100, 1);
  Buffer v2 = MakePatternBuffer(100, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 5, 0, v1).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 9, 0, v2).ok());
  Buffer out(100);
  // As of epoch 5: v1 visible.
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 5, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
  // As of epoch 8 (between updates): still v1.
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 8, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
  // HEAD: v2.
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 2, 0), -1);
  // Before any write: holes.
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 4, 0, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
}

TEST_F(VosTest, EpochMonotonicityEnforced) {
  Buffer data(16);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 5, 0, data).ok());
  EXPECT_EQ(vos_->UpdateArray(oid_, "dk", "ak", 4, 0, data).code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(VosTest, SmallRecordsLandInScm) {
  Buffer small = MakePatternBuffer(4096, 1);  // <= 64 KiB threshold
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, small).ok());
  EXPECT_EQ(vos_->stats().scm_records, 1u);
  EXPECT_EQ(vos_->stats().nvme_records, 0u);
}

TEST_F(VosTest, LargeRecordsLandOnNvme) {
  Buffer large = MakePatternBuffer(1 << 20, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, large).ok());
  EXPECT_EQ(vos_->stats().nvme_records, 1u);
  EXPECT_GT(device_->bytes_written(), 0u);
  Buffer out(1 << 20);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, large);
}

TEST_F(VosTest, UnalignedLargeRecordPaddedTransparently) {
  Buffer large = MakePatternBuffer((1 << 20) + 777, 3);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, large).ok());
  Buffer out(large.size());
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, large);
}

TEST_F(VosTest, ChecksumDetectsScmCorruption) {
  Buffer data = MakePatternBuffer(1024, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  // Corrupt the SCM arena behind the record (handle 1 is the first alloc).
  auto span = scm_->Deref(1);
  ASSERT_TRUE(span.ok());
  (*span)[100] ^= std::byte(0xFF);
  Buffer out(1024);
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).code(),
            ErrorCode::kDataLoss);
}

TEST_F(VosTest, ChecksumDetectsNvmeCorruption) {
  // A whole-record read verifies its chunks in batches; a bad block in the
  // first batch and one in the last each fail it. The record is the
  // device's first extent, so device offsets equal record offsets.
  Buffer data = MakePatternBuffer(kMiB, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  // Corrupt the device under the engine through a side-channel bdev, then
  // put the good bytes back.
  spdk::Bdev raw(device_.get());
  Buffer out(kMiB);
  for (const std::uint64_t bad : {std::uint64_t(0), kMiB - 4096}) {
    ASSERT_TRUE(raw.Write(bad, MakePatternBuffer(4096, 0xEE)).ok());
    EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).code(),
              ErrorCode::kDataLoss)
        << "bad block at " << bad;
    ASSERT_TRUE(
        raw.Write(bad, std::span<const std::byte>(data).subspan(bad, 4096))
            .ok());
    ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
    EXPECT_EQ(out, data);
  }
}

TEST_F(VosTest, SingleValueRoundTripAndVersioning) {
  Buffer v1 = MakePatternBuffer(64, 1);
  Buffer v2 = MakePatternBuffer(64, 2);
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "meta", "size", 3, v1).ok());
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "meta", "size", 7, v2).ok());
  auto head = vos_->FetchSingle(oid_, "meta", "size", kEpochHead);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, v2);
  auto old = vos_->FetchSingle(oid_, "meta", "size", 5);
  ASSERT_TRUE(old.ok());
  EXPECT_EQ(*old, v1);
  EXPECT_EQ(vos_->FetchSingle(oid_, "meta", "size", 2).status().code(),
            ErrorCode::kNotFound);
}

TEST_F(VosTest, TypeConfusionRejected) {
  Buffer data(16);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "arr", 1, 0, data).ok());
  EXPECT_EQ(vos_->UpdateSingle(oid_, "dk", "arr", 2, data).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "dk", "sv", 3, data).ok());
  EXPECT_EQ(vos_->UpdateArray(oid_, "dk", "sv", 4, 0, data).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(vos_->FetchSingle(oid_, "dk", "arr", kEpochHead).status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(VosTest, PunchAkeyMakesRangeHoles) {
  Buffer data = MakePatternBuffer(100, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  ASSERT_TRUE(vos_->PunchAkey(oid_, "dk", "ak", 2).ok());
  Buffer out(100);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
  // Pre-punch epoch still sees the data (versioned punch).
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 1, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
}

TEST_F(VosTest, WriteAfterPunchVisible) {
  Buffer data = MakePatternBuffer(100, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  ASSERT_TRUE(vos_->PunchAkey(oid_, "dk", "ak", 2).ok());
  Buffer fresh = MakePatternBuffer(50, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 3, 25, fresh).ok());
  Buffer out(100);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  for (int i = 0; i < 25; ++i) ASSERT_EQ(out[i], std::byte(0));
  EXPECT_EQ(
      VerifyPattern(std::span<const std::byte>(out.data() + 25, 50), 2, 0),
      -1);
}

TEST_F(VosTest, PunchObjectReclaimsStorage) {
  Buffer big = MakePatternBuffer(1 << 20, 1);  // NVMe-tier record
  Buffer small = MakePatternBuffer(512, 2);    // SCM-tier record
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, big).ok());
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "meta", "s", 2, small).ok());
  const auto scm_used = scm_->used_bytes();
  EXPECT_GT(scm_used, 0u);
  ASSERT_TRUE(vos_->PunchObject(oid_, 3).ok());
  EXPECT_FALSE(vos_->ObjectExists(oid_));
  EXPECT_EQ(scm_->used_bytes(), 0u);
  EXPECT_EQ(vos_->PunchObject(oid_, 4).code(), ErrorCode::kNotFound);
}

TEST_F(VosTest, ArraySizeTracksHighWaterMark) {
  Buffer data(100);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 4000, data).ok());
  auto size = vos_->ArraySize(oid_, "dk", "ak", kEpochHead);
  ASSERT_TRUE(size.ok());
  EXPECT_EQ(*size, 4100u);
  // As-of earlier epoch: nothing.
  EXPECT_EQ(vos_->ArraySize(oid_, "dk", "ak", 0).value_or(1), 4100u);
}

TEST_F(VosTest, ListKeys) {
  Buffer data(8);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "d1", "a1", 1, 0, data).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "d1", "a2", 2, 0, data).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "d2", "a1", 3, 0, data).ok());
  EXPECT_EQ(vos_->ListDkeys(oid_).size(), 2u);
  EXPECT_EQ(vos_->ListAkeys(oid_, "d1").size(), 2u);
  EXPECT_EQ(vos_->ListAkeys(oid_, "d2").size(), 1u);
  EXPECT_TRUE(vos_->ListDkeys(ObjectId{5, 5}).empty());
}

TEST_F(VosTest, EnumerateDkeysPagesLiveValuesInOrder) {
  // d0..d5 hold single "e" (d2 punched, d4 rewritten); "x" has no "e" at
  // all, "y" holds "e" as an array.
  Epoch epoch = 1;
  for (int i = 0; i < 6; ++i) {
    const std::string dkey = "d" + std::to_string(i);
    ASSERT_TRUE(vos_->UpdateSingle(oid_, dkey, "e", epoch++,
                                   MakePatternBuffer(8, std::uint64_t(i)))
                    .ok());
  }
  ASSERT_TRUE(vos_->PunchDkey(oid_, "d2", epoch++).ok());
  Buffer newer = MakePatternBuffer(5, 40);
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "d4", "e", epoch++, newer).ok());
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "x", "other", epoch++, newer).ok());
  const std::string akey = "e";

  // Reads a run back as (dkey, value) pairs.
  auto decode = [](const rpc::Encoder& run, bool values) {
    std::vector<std::pair<std::string, Buffer>> out;
    rpc::Decoder dec(run.buffer());
    while (!dec.Done()) {
      std::string dkey = dec.Str().value();
      out.emplace_back(dkey, values ? dec.Bytes().value() : Buffer{});
    }
    return out;
  };
  rpc::Encoder all;
  auto run = vos_->EnumerateDkeys(oid_, "", 0, &akey, all);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->count, 5u);
  EXPECT_FALSE(run->more);
  const auto listed = decode(all, true);
  ASSERT_EQ(listed.size(), 5u);
  const char* names[] = {"d0", "d1", "d3", "d4", "d5"};
  for (std::size_t i = 0; i < listed.size(); ++i) {
    EXPECT_EQ(listed[i].first, names[i]);
  }
  EXPECT_EQ(listed[0].second, MakePatternBuffer(8, 0));
  EXPECT_EQ(listed[3].second, newer);

  // A page counts only listed dkeys; `more` looks past skipped ones.
  rpc::Encoder page;
  run = vos_->EnumerateDkeys(oid_, "d0", 2, &akey, page);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->count, 2u);
  EXPECT_TRUE(run->more);
  EXPECT_EQ(decode(page, true).back().first, "d3");
  rpc::Encoder tail;
  run = vos_->EnumerateDkeys(oid_, "d4", 1, &akey, tail);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->count, 1u);
  EXPECT_FALSE(run->more) << "only dkeys without a live \"e\" remain";

  // Names only: every dkey, punched ones included.
  rpc::Encoder names_only;
  run = vos_->EnumerateDkeys(oid_, "", 0, nullptr, names_only);
  ASSERT_TRUE(run.ok());
  EXPECT_EQ(run->count, 7u);
  EXPECT_EQ(decode(names_only, false).size(), 7u);

  // An array under the akey is an error, not a skipped dkey — unless it
  // lies past a full page.
  Buffer arr(4);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "y", "e", epoch++, 0, arr).ok());
  rpc::Encoder bad;
  EXPECT_EQ(vos_->EnumerateDkeys(oid_, "d5", 0, &akey, bad).status().code(),
            ErrorCode::kInvalidArgument);
  rpc::Encoder before_bad;
  run = vos_->EnumerateDkeys(oid_, "d4", 1, &akey, before_bad);
  ASSERT_TRUE(run.ok());
  EXPECT_TRUE(run->more);

  // A failed checksum fails the run.
  auto stored = vos_->ScmBytesForTest(oid_, "d1", "e");
  ASSERT_TRUE(stored.ok());
  (*stored)[3] ^= std::byte{0x5A};
  rpc::Encoder corrupt;
  EXPECT_EQ(vos_->EnumerateDkeys(oid_, "", 3, &akey, corrupt).status().code(),
            ErrorCode::kDataLoss);
  EXPECT_TRUE(vos_->EnumerateDkeys(ObjectId{5, 5}, "", 0, &akey, corrupt)
                  .ok());
}

TEST_F(VosTest, AggregationCollapsesRecordLog) {
  // Many small overlapping writes, then aggregate: content preserved,
  // superseded SCM space reclaimed.
  for (Epoch e = 1; e <= 50; ++e) {
    Buffer data = MakePatternBuffer(1000, e);
    ASSERT_TRUE(
        vos_->UpdateArray(oid_, "dk", "ak", e, (e % 10) * 500, data).ok());
  }
  Buffer before(10 * 500 + 1000);
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, before).ok());
  const auto scm_before = scm_->used_bytes();

  ASSERT_TRUE(vos_->AggregateArray(oid_, "dk", "ak", kEpochHead).ok());
  EXPECT_LT(scm_->used_bytes(), scm_before);

  Buffer after(before.size());
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, after).ok());
  EXPECT_EQ(after, before);
}

TEST_F(VosTest, AggregationPreservesNewerEpochs) {
  Buffer v1 = MakePatternBuffer(100, 1);
  Buffer v2 = MakePatternBuffer(100, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, v1).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 10, 0, v2).ok());
  // Aggregate only up to epoch 5: the epoch-10 record must survive.
  ASSERT_TRUE(vos_->AggregateArray(oid_, "dk", "ak", 5).ok());
  Buffer out(100);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 2, 0), -1);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 5, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
}

TEST_F(VosTest, ChecksumsOffSkipsVerification) {
  VosConfig config;
  config.checksums = false;
  Vos vos(scm_.get(), bdev_.get(), config);
  Buffer data = MakePatternBuffer(512, 1);
  ASSERT_TRUE(vos.UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  Buffer out(512);
  ASSERT_TRUE(vos.FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_F(VosTest, EmptyUpdateRejected) {
  EXPECT_EQ(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, {}).code(),
            ErrorCode::kInvalidArgument);
  EXPECT_EQ(vos_->UpdateArray(ObjectId{}, "dk", "ak", 1, 0,
                              MakePatternBuffer(8, 1))
                .code(),
            ErrorCode::kInvalidArgument);
}

TEST_F(VosTest, EmptySingleValueRoundTrip) {
  ASSERT_TRUE(vos_->UpdateSingle(oid_, "meta", "empty", 1, {}).ok());
  auto back = vos_->FetchSingle(oid_, "meta", "empty", kEpochHead);
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
}

TEST_F(VosTest, FailedAggregationKeepsAcknowledgedData) {
  // Two small SCM records whose merged 1 MiB record cannot fit the
  // target's NVMe partition: aggregation fails, and both writes must
  // still read back.
  VosConfig config;
  config.nvme_capacity = 512 * kKiB;
  Vos vos(scm_.get(), bdev_.get(), config);
  const std::uint64_t far = kMiB - 8 * kKiB;
  Buffer head = MakePatternBuffer(8 * kKiB, 1);
  Buffer tail = MakePatternBuffer(8 * kKiB, 2);
  ASSERT_TRUE(vos.UpdateArray(oid_, "dk", "ak", 1, 0, head).ok());
  ASSERT_TRUE(vos.UpdateArray(oid_, "dk", "ak", 2, far, tail).ok());
  EXPECT_EQ(vos.AggregateArray(oid_, "dk", "ak", kEpochHead).code(),
            ErrorCode::kResourceExhausted);
  Buffer out(8 * kKiB);
  ASSERT_TRUE(vos.FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, head);
  ASSERT_TRUE(vos.FetchArray(oid_, "dk", "ak", kEpochHead, far, out).ok());
  EXPECT_EQ(out, tail);
}

TEST_F(VosTest, FailedNvmeWriteFreesItsExtent) {
  // The partition claims 1 MiB but only its first 512 KiB lie on the
  // device, so a 1 MiB record's write fails after its extent is allocated.
  VosConfig config;
  config.nvme_base = device_->config().capacity_bytes - 512 * kKiB;
  config.nvme_capacity = kMiB;
  Vos vos(scm_.get(), bdev_.get(), config);
  EXPECT_FALSE(
      vos.UpdateArray(oid_, "dk", "ak", 1, 0, MakePatternBuffer(kMiB, 1))
          .ok());
  EXPECT_EQ(vos.stats().nvme_records, 0u);
  // Only an extent freed by the failed write leaves room for this one.
  Buffer fits = MakePatternBuffer(512 * kKiB, 2);
  ASSERT_TRUE(vos.UpdateArray(oid_, "dk", "ak", 2, 0, fits).ok());
  Buffer out(fits.size());
  ASSERT_TRUE(vos.FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, fits);
}

TEST_F(VosTest, FullScmPoolSpillsRecordsToNvme) {
  // Room for two 48 KiB SCM records: the third and a single value that
  // follow go to NVMe instead of failing, and everything reads back.
  scm::PmemPool small_pool(100 * kKiB);
  Vos vos(&small_pool, bdev_.get());
  Buffer all(3 * 48 * kKiB);
  for (std::uint64_t i = 0; i < 3; ++i) {
    Buffer part = MakePatternBuffer(48 * kKiB, i + 1);
    ASSERT_TRUE(
        vos.UpdateArray(oid_, "dk", "ak", i + 1, i * 48 * kKiB, part).ok());
    std::copy(part.begin(), part.end(), all.begin() + i * 48 * kKiB);
  }
  Buffer value = MakePatternBuffer(8 * kKiB, 9);
  ASSERT_TRUE(vos.UpdateSingle(oid_, "meta", "v", 4, value).ok());
  EXPECT_EQ(vos.stats().scm_records, 2u);
  EXPECT_EQ(vos.stats().nvme_records, 2u);

  Buffer out(all.size());
  ASSERT_TRUE(vos.FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, all);
  auto back = vos.FetchSingle(oid_, "meta", "v", kEpochHead);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, value);

  // A spilled record is released like any NVMe record: after the punch
  // the pool is empty and the next SCM-sized write lands in SCM again.
  ASSERT_TRUE(vos.PunchObject(oid_, 5).ok());
  EXPECT_EQ(small_pool.used_bytes(), 0u);
  ASSERT_TRUE(vos.UpdateArray(oid_, "dk", "ak", 6, 0, value).ok());
  EXPECT_EQ(vos.stats().scm_records, 1u);
  EXPECT_EQ(vos.stats().nvme_records, 0u);
}

// Chunk granularity: `data` is stored at array offset 0 and the 4 KiB
// checksum chunk [bad_lo, bad_hi), bad_lo > 0, has been corrupted on its
// tier. Reads below it and of each neighbouring block are byte-exact;
// every read that touches one of its bytes, inside it or straddling one
// of its edges, is DATA_LOSS.
void ExpectOnlyChunkLost(const Vos& vos, const ObjectId& oid,
                         const Buffer& data, std::uint64_t bad_lo,
                         std::uint64_t bad_hi) {
  auto fetch = [&](std::uint64_t offset, std::uint64_t size) {
    Buffer out(size);
    const Status s = vos.FetchArray(oid, "dk", "ak", kEpochHead, offset, out);
    if (s.ok()) {
      EXPECT_TRUE(std::equal(out.begin(), out.end(),
                             data.begin() + std::ptrdiff_t(offset)))
          << "offset " << offset << " size " << size;
    }
    return s.code();
  };
  EXPECT_EQ(
      fetch(0, std::min<std::uint64_t>(bad_lo, 3 * Vos::kCsumChunk + 100)),
      ErrorCode::kOk);
  EXPECT_EQ(fetch(bad_lo - Vos::kCsumChunk, Vos::kCsumChunk), ErrorCode::kOk);
  EXPECT_EQ(fetch(bad_lo, bad_hi - bad_lo), ErrorCode::kDataLoss);
  EXPECT_EQ(
      fetch(bad_lo + 1, std::min<std::uint64_t>(100, bad_hi - bad_lo - 1)),
      ErrorCode::kDataLoss);
  EXPECT_EQ(fetch(bad_lo - 1, 2), ErrorCode::kDataLoss);
  EXPECT_EQ(fetch(bad_lo - 4 * kKiB, 8 * kKiB), ErrorCode::kDataLoss);
  if (bad_hi + Vos::kCsumChunk <= data.size()) {
    EXPECT_EQ(fetch(bad_hi, Vos::kCsumChunk), ErrorCode::kOk);
    EXPECT_EQ(fetch(bad_hi - 1, 2), ErrorCode::kDataLoss);
  }
}

TEST_F(VosTest, ScmCorruptionIsConfinedToItsChunk) {
  Buffer data = MakePatternBuffer(3 * Vos::kCsumChunk, 4);  // SCM, 3 chunks
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  ASSERT_EQ(vos_->stats().scm_records, 1u);
  auto span = scm_->Deref(1);
  ASSERT_TRUE(span.ok());
  (*span)[Vos::kCsumChunk + 5] ^= std::byte(0xFF);
  ExpectOnlyChunkLost(*vos_, oid_, data, Vos::kCsumChunk,
                      2 * Vos::kCsumChunk);
}

TEST_F(VosTest, NvmeCorruptionIsConfinedToItsChunk) {
  // A partial, LBA-padded last chunk; the record is the device's first
  // extent, so device offsets equal record offsets.
  Buffer data = MakePatternBuffer(kMiB + 777, 5);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  ASSERT_EQ(vos_->stats().nvme_records, 1u);
  spdk::Bdev raw(device_.get());
  ASSERT_TRUE(raw.Write(kMiB, MakePatternBuffer(4096, 0xEE)).ok());
  ExpectOnlyChunkLost(*vos_, oid_, data, kMiB, data.size());
  // A middle chunk too, seen from both of its neighbours.
  const std::uint64_t mid = 10 * Vos::kCsumChunk;
  ASSERT_TRUE(raw.Write(mid, MakePatternBuffer(4096, 0xEF)).ok());
  ExpectOnlyChunkLost(*vos_, oid_, data, mid, mid + Vos::kCsumChunk);
}

TEST_F(VosTest, SnapshotReadAcrossChunkStraddlingRecords) {
  // Epoch 1: an NVMe record over [0, 96 KiB), chunks every 4 KiB. Epoch 2:
  // an SCM record over [10 KiB, 50 KiB), which starts and ends inside
  // chunks of the first and whose own chunk boundaries (14 KiB, 18 KiB,
  // ...) fall mid-chunk of it. Epoch 3: an NVMe record over
  // [62 KiB, 142 KiB), again off the first record's 4 KiB grid.
  struct Write {
    Epoch epoch;
    std::uint64_t offset;
    std::uint64_t size;
  };
  const Write writes[] = {
      {1, 0, 96 * kKiB}, {2, 10 * kKiB, 40 * kKiB}, {3, 62 * kKiB, 80 * kKiB}};
  std::vector<Buffer> model;  // expected array contents as of each epoch
  Buffer state(142 * kKiB);
  for (const Write& w : writes) {
    Buffer data = MakePatternBuffer(w.size, w.epoch);
    ASSERT_TRUE(
        vos_->UpdateArray(oid_, "dk", "ak", w.epoch, w.offset, data).ok());
    std::copy(data.begin(), data.end(),
              state.begin() + std::ptrdiff_t(w.offset));
    model.push_back(state);
  }
  EXPECT_EQ(vos_->stats().nvme_records, 2u);
  for (Epoch epoch = 1; epoch <= 3; ++epoch) {
    const std::uint64_t lo = 5 * kKiB + 3;
    Buffer out(100 * kKiB);
    ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", epoch, lo, out).ok());
    EXPECT_TRUE(std::equal(out.begin(), out.end(),
                           model[epoch - 1].begin() + std::ptrdiff_t(lo)))
        << "epoch " << epoch;
  }
}

TEST_F(VosTest, AlignedSubReadMovesOneChunkOffTheDevice) {
  Buffer data = MakePatternBuffer(kMiB, 6);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  Buffer out(4 * kKiB);
  const std::uint64_t before = device_->bytes_read();
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 300 * kKiB, out).ok());
  EXPECT_EQ(device_->bytes_read() - before, 4096u);
  EXPECT_TRUE(std::equal(out.begin(), out.end(),
                         data.begin() + std::ptrdiff_t(300 * kKiB)));
  Buffer whole(kMiB);
  const std::uint64_t mid = device_->bytes_read();
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, whole).ok());
  EXPECT_EQ(device_->bytes_read() - mid, kMiB);
  EXPECT_EQ(whole, data);
}

TEST_F(VosTest, UnalignedSubReadStraddlingOneLbaMovesTwoBlocks) {
  // 4 KiB starting 1000 bytes into a block: the tail of one 4 KiB block
  // and the head of the next, each loaded and verified whole.
  Buffer data = MakePatternBuffer(kMiB, 6);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  const std::uint64_t at = 300 * kKiB + 1000;
  Buffer out(4 * kKiB);
  const std::uint64_t before = device_->bytes_read();
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, at, out).ok());
  EXPECT_EQ(device_->bytes_read() - before, 8192u);
  EXPECT_TRUE(std::equal(out.begin(), out.end(),
                         data.begin() + std::ptrdiff_t(at)));
}

TEST_F(VosTest, HiddenRecordCorruptionOnlySurfacesAtItsEpoch) {
  // Epoch 1's SCM record (handle 1) is completely hidden at HEAD by epoch
  // 2's write of the same extent. A HEAD read never loads it, so its
  // corruption does not fail the read; a snapshot read at epoch 1 does.
  Buffer old_data = MakePatternBuffer(8 * kKiB, 1);
  Buffer new_data = MakePatternBuffer(8 * kKiB, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, old_data).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 2, 0, new_data).ok());
  auto span = scm_->Deref(1);
  ASSERT_TRUE(span.ok());
  (*span)[100] ^= std::byte(0xFF);
  Buffer out(8 * kKiB);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(out, new_data);
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", 1, 0, out).code(),
            ErrorCode::kDataLoss);
}

TEST_F(VosTest, PartlyHiddenChunkIsVerifiedOnlyWhenItsVisiblePartIsRead) {
  // Epoch 1: a two-chunk SCM record over [0, 8 KiB). Epoch 2 hides the
  // first 1 KiB of its first chunk; the corrupted byte lies in that
  // hidden part, but the chunk's checksum covers its visible rest too.
  Buffer old_data = MakePatternBuffer(2 * Vos::kCsumChunk, 1);
  Buffer new_data = MakePatternBuffer(Vos::kCsumChunk / 4, 2);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, old_data).ok());
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 2, 0, new_data).ok());
  auto span = scm_->Deref(1);
  ASSERT_TRUE(span.ok());
  (*span)[100] ^= std::byte(0xFF);
  Buffer visible(Vos::kCsumChunk / 4);
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead,
                             Vos::kCsumChunk / 2, visible)
                .code(),
            ErrorCode::kDataLoss);
  Buffer hidden(Vos::kCsumChunk / 4);
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, hidden).ok());
  EXPECT_EQ(hidden, new_data);
  // The second chunk is intact and reads cleanly.
  Buffer second(Vos::kCsumChunk);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead,
                               Vos::kCsumChunk, second)
                  .ok());
  EXPECT_TRUE(std::equal(second.begin(), second.end(),
                         old_data.begin() + std::ptrdiff_t(Vos::kCsumChunk)));
}

TEST_F(VosTest, ScatteredNewerRecordsOverOneOlderRecord) {
  // One wide record, then 40 small newer ones spread over it with a punch
  // in the middle of the log: the window fragments into more pieces than a
  // fetch keeps on the stack, and each piece resolves to its newest writer.
  constexpr std::uint64_t kSpan = 200 * kKiB;
  Buffer model(kSpan);
  Epoch epoch = 1;
  auto write = [&](std::uint64_t offset, std::uint64_t size) {
    Buffer data = MakePatternBuffer(size, epoch, offset);
    ASSERT_TRUE(
        vos_->UpdateArray(oid_, "dk", "ak", epoch++, offset, data).ok());
    std::copy(data.begin(), data.end(),
              model.begin() + std::ptrdiff_t(offset));
  };
  write(8 * kKiB, 100 * kKiB);
  const Buffer at_first = model;
  ASSERT_TRUE(vos_->PunchAkey(oid_, "dk", "ak", epoch++).ok());
  std::fill(model.begin(), model.end(), std::byte(0));
  write(0, 150 * kKiB);  // NVMe tier
  for (std::uint64_t i = 0; i < 40; ++i) write(i * 5 * kKiB + 1, 3 * kKiB);
  for (const std::uint64_t lo : {std::uint64_t(0), std::uint64_t(7777)}) {
    Buffer out = MakePatternBuffer(kSpan - lo, 0xAB);
    ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, lo, out).ok());
    EXPECT_TRUE(
        std::equal(out.begin(), out.end(), model.begin() + std::ptrdiff_t(lo)))
        << "lo " << lo;
  }
  // Before the punch only the first record is visible.
  Buffer before = MakePatternBuffer(kSpan, 0xAB);
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", 1, 0, before).ok());
  EXPECT_EQ(before, at_first);
}

TEST_F(VosTest, ScatteredSmallOverwritesReadEachOlderChunkOnce) {
  // A 1 MiB NVMe record with a 512 B SCM overwrite in every second 512 B:
  // the old record fills 1024 separate gaps, four inside each of its
  // checksum chunks. The pieces of one chunk share one read and one check,
  // so the whole-window fetch moves the record's 1 MiB off the device
  // once, as a single-record read would.
  constexpr std::uint64_t kPiece = Vos::kCsumChunk / 8;
  Buffer model = MakePatternBuffer(kMiB, 1);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, model).ok());
  for (std::uint64_t at = kPiece; at < kMiB; at += 2 * kPiece) {
    Buffer data = MakePatternBuffer(kPiece, 2, at);
    ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 2, at, data).ok());
    std::copy(data.begin(), data.end(), model.begin() + std::ptrdiff_t(at));
  }
  EXPECT_EQ(vos_->stats().nvme_records, 1u);
  Buffer out(kMiB);
  const std::uint64_t before = device_->bytes_read();
  ASSERT_TRUE(vos_->FetchArray(oid_, "dk", "ak", kEpochHead, 0, out).ok());
  EXPECT_EQ(device_->bytes_read() - before, kMiB);
  EXPECT_EQ(out, model);
}

TEST_F(VosTest, WindowsThatWrapPast64BitsAreRejected) {
  const std::uint64_t top = ~std::uint64_t(0);
  Buffer data = MakePatternBuffer(4 * kKiB, 1);
  EXPECT_EQ(vos_->UpdateArray(oid_, "dk", "ak", 1, top - 99, data).code(),
            ErrorCode::kInvalidArgument);
  ASSERT_TRUE(vos_->UpdateArray(oid_, "dk", "ak", 1, 0, data).ok());
  Buffer out = MakePatternBuffer(4 * kKiB, 7);
  EXPECT_EQ(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, top - 99, out).code(),
      ErrorCode::kInvalidArgument);
  // One past the window's last byte must fit in 64 bits too.
  EXPECT_EQ(vos_->FetchArray(oid_, "dk", "ak", kEpochHead,
                             top - 4 * kKiB + 1, out)
                .code(),
            ErrorCode::kInvalidArgument);
  // The highest window that fits reads as a hole.
  ASSERT_TRUE(
      vos_->FetchArray(oid_, "dk", "ak", kEpochHead, top - 4 * kKiB, out)
          .ok());
  EXPECT_EQ(out, Buffer(4 * kKiB));
}

}  // namespace
}  // namespace ros2::daos
