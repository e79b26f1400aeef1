// Property/fuzz test: the versioned object store against a reference
// model. Thousands of randomized updates/fetches/punches/aggregations on
// one array must always agree with a plain byte-map that applies the same
// operations — across seeds (TEST_P) and at historical epochs.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/units.h"
#include "daos/vos.h"

namespace ros2::daos {
namespace {

/// Reference: full array materialized per retained epoch.
class ReferenceArray {
 public:
  void Update(Epoch epoch, std::uint64_t offset,
              std::span<const std::byte> data) {
    Buffer& head = HeadFor(epoch);
    if (head.size() < offset + data.size()) {
      head.resize(offset + data.size(), std::byte(0));
    }
    std::copy(data.begin(), data.end(),
              head.begin() + std::ptrdiff_t(offset));
  }

  void Punch(Epoch epoch) { HeadFor(epoch).clear(); }

  /// Content visible at `epoch` (kEpochHead = latest).
  Buffer At(Epoch epoch) const {
    if (versions_.empty()) return {};
    if (epoch == kEpochHead) return versions_.rbegin()->second;
    auto it = versions_.upper_bound(epoch);
    if (it == versions_.begin()) return {};
    return std::prev(it)->second;
  }

 private:
  Buffer& HeadFor(Epoch epoch) {
    Buffer head = At(kEpochHead);
    return versions_[epoch] = std::move(head);
  }

  std::map<Epoch, Buffer> versions_;
};

class VosFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  VosFuzzTest() {
    storage::NvmeDeviceConfig config;
    config.capacity_bytes = 512 * kMiB;
    device_ = std::make_unique<storage::NvmeDevice>(config);
    bdev_ = std::make_unique<spdk::Bdev>(device_.get());
    scm_ = std::make_unique<scm::PmemPool>(64 * kMiB);
    vos_ = std::make_unique<Vos>(scm_.get(), bdev_.get());
  }

  /// Checks the whole array as of `epoch`, then one random sub-window of
  /// it: a window that starts and ends inside records splits the fetch's
  /// uncovered ranges against partial overlaps and punches.
  void CheckAgainstReference(const ReferenceArray& ref, Epoch epoch,
                             Rng& rng) {
    const Buffer expect = ref.At(epoch);
    // Read a window larger than the reference to also check the tail hole.
    Buffer got(expect.size() + 64);
    ASSERT_TRUE(
        vos_->FetchArray(oid_, "dk", "ak", epoch, 0, got).ok());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      ASSERT_EQ(got[i], expect[i]) << "epoch " << epoch << " byte " << i;
    }
    for (std::size_t i = expect.size(); i < got.size(); ++i) {
      ASSERT_EQ(got[i], std::byte(0)) << "tail byte " << i;
    }
    const std::uint64_t offset = rng.Below(expect.size() + 1);
    Buffer window(1 + rng.Below(130 * 1024));
    ASSERT_TRUE(
        vos_->FetchArray(oid_, "dk", "ak", epoch, offset, window).ok());
    for (std::size_t i = 0; i < window.size(); ++i) {
      const std::uint64_t pos = offset + i;
      ASSERT_EQ(window[i], pos < expect.size() ? expect[pos] : std::byte(0))
          << "epoch " << epoch << " window at " << offset << " byte " << i;
    }
  }

  const ObjectId oid_{1, 1};
  std::unique_ptr<storage::NvmeDevice> device_;
  std::unique_ptr<spdk::Bdev> bdev_;
  std::unique_ptr<scm::PmemPool> scm_;
  std::unique_ptr<Vos> vos_;
};

TEST_P(VosFuzzTest, RandomOpsMatchReference) {
  Rng rng(GetParam());
  ReferenceArray ref;
  Epoch epoch = 0;
  std::vector<Epoch> checkpoints;

  constexpr std::uint64_t kArraySpan = 256 * 1024;
  for (int step = 0; step < 400; ++step) {
    const std::uint64_t dice = rng.Below(100);
    if (dice < 70) {
      // Update: random offset/length (spans SCM and NVMe tiers).
      const std::uint64_t offset = rng.Below(kArraySpan);
      const std::uint64_t length = 1 + rng.Below(130 * 1024);
      Buffer data = MakePatternBuffer(length, rng.Next(), offset);
      ++epoch;
      ASSERT_TRUE(
          vos_->UpdateArray(oid_, "dk", "ak", epoch, offset, data).ok());
      ref.Update(epoch, offset, data);
    } else if (dice < 78) {
      // Punch the akey.
      ++epoch;
      Status punched = vos_->PunchAkey(oid_, "dk", "ak", epoch);
      if (punched.ok()) ref.Punch(epoch);
    } else if (dice < 85 && epoch > 0) {
      // Aggregate up to a random past epoch; visibility must not change
      // at or above the aggregation point.
      const Epoch upto = 1 + rng.Below(epoch);
      Status agg = vos_->AggregateArray(oid_, "dk", "ak", upto);
      if (agg.ok()) {
        // Checkpoints below `upto` collapse to the aggregated state; drop
        // them from the set we verify at historical epochs.
        std::erase_if(checkpoints,
                      [upto](Epoch e) { return e < upto; });
      }
    } else if (dice < 95) {
      // Random-window fetch against the reference head.
      const Buffer head = ref.At(kEpochHead);
      const std::uint64_t offset = rng.Below(kArraySpan);
      const std::uint64_t length = 1 + rng.Below(8192);
      Buffer got(length);
      ASSERT_TRUE(vos_
                      ->FetchArray(oid_, "dk", "ak", kEpochHead, offset,
                                   got)
                      .ok());
      for (std::uint64_t i = 0; i < length; ++i) {
        const std::uint64_t pos = offset + i;
        const std::byte expect =
            pos < head.size() ? head[pos] : std::byte(0);
        ASSERT_EQ(got[i], expect) << "step " << step << " pos " << pos;
      }
    } else {
      checkpoints.push_back(epoch);
    }
  }

  // Full verification at HEAD and at every retained checkpoint epoch.
  CheckAgainstReference(ref, kEpochHead, rng);
  for (Epoch checkpoint : checkpoints) {
    if (checkpoint == 0) continue;
    CheckAgainstReference(ref, checkpoint, rng);
  }
}

TEST_P(VosFuzzTest, SingleValuesMatchLastWriterPerEpoch) {
  Rng rng(GetParam() ^ 0xABCD);
  std::map<Epoch, Buffer> reference;
  Epoch epoch = 0;
  for (int step = 0; step < 200; ++step) {
    ++epoch;
    Buffer value = MakePatternBuffer(1 + rng.Below(512), rng.Next());
    ASSERT_TRUE(
        vos_->UpdateSingle(oid_, "meta", "kv", epoch, value).ok());
    reference[epoch] = std::move(value);
  }
  // Spot-check 50 random historical epochs plus HEAD.
  for (int check = 0; check < 50; ++check) {
    const Epoch at = 1 + rng.Below(epoch);
    auto got = vos_->FetchSingle(oid_, "meta", "kv", at);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, reference.at(at));
  }
  auto head = vos_->FetchSingle(oid_, "meta", "kv", kEpochHead);
  ASSERT_TRUE(head.ok());
  EXPECT_EQ(*head, reference.rbegin()->second);
}

INSTANTIATE_TEST_SUITE_P(Seeds, VosFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace ros2::daos
