// Heap allocations of the steady-state data path. A 64 KiB fetch or
// update through a booted cluster should allocate only the one buffer its
// transport must hold the payload in: on TCP the message that carries it
// (an update's request frame, a fetch's reply segment), on RDMA the
// engine's staging buffer. This binary replaces the
// global operator new to count every allocation larger than 4 KiB, runs
// 1 000 updates and 1 000 fetches after a warm-up, and prints and bounds
// the count per op.
//
// Steady state means the storage tier's own tables do not grow: VOS keeps
// every overwritten record, so the warm-up writes more records than the
// measured phase will and then punches them, leaving each target's SCM
// slot table large enough for what follows.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "perf/types.h"

namespace {

constexpr std::size_t kLargeAllocation = 4 * 1024;
std::atomic<std::uint64_t> large_allocations{0};

void* Allocate(std::size_t size) {
  if (size > kLargeAllocation) {
    large_allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return Allocate(size); }
void* operator new[](std::size_t size) { return Allocate(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ros2::daos {
namespace {

constexpr std::uint64_t kBlock = 64 * kKiB;
constexpr int kOps = 1000;
/// Dkeys the ops cycle over: they spread across the targets, and no
/// dkey's record log grows past a few entries.
constexpr int kDkeys = 128;

class DataPathAllocTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  void SetUp() override {
    ClusterSpec spec;
    spec.engine.address = "fabric://alloc-engine";
    spec.engine.targets = 4;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    DaosClient::ConnectOptions options;
    options.transport = GetParam();
    options.client_address = "fabric://alloc-client";
    auto client = cluster_->Connect(options);
    ASSERT_TRUE(client.ok()) << client.status().ToString();
    client_ = std::move(*client);
    auto cont = client_->ContainerCreate("alloc");
    ASSERT_TRUE(cont.ok());
    cont_ = *cont;
    auto oid = client_->AllocOid(cont_);
    ASSERT_TRUE(oid.ok());
    oid_ = *oid;
    for (int d = 0; d < kDkeys; ++d) dkeys_.push_back("d" + std::to_string(d));
    for (int i = 0; i < 2 * kOps; ++i) {
      ASSERT_TRUE(Update(dkeys_[std::size_t(i % kDkeys)]));
    }
    ASSERT_TRUE(client_->PunchObject(cont_, oid_).ok());
  }

  /// Large allocations per op over kOps calls of `op`, after one call per
  /// dkey; -1 when a call fails.
  template <typename Op>
  double LargeAllocationsPerOp(Op op) {
    for (int i = 0; i < kDkeys; ++i) {
      if (!op(dkeys_[std::size_t(i)])) return -1.0;
    }
    const std::uint64_t before =
        large_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < kOps; ++i) {
      if (!op(dkeys_[std::size_t(i % kDkeys)])) return -1.0;
    }
    const std::uint64_t after =
        large_allocations.load(std::memory_order_relaxed);
    return double(after - before) / kOps;
  }

  bool Update(const std::string& dkey) {
    return client_->Update(cont_, oid_, dkey, "a", 0, payload_).ok();
  }
  bool Fetch(const std::string& dkey) {
    return client_->Fetch(cont_, oid_, dkey, "a", 0, window_).ok() &&
           window_ == payload_;
  }

  std::unique_ptr<Cluster> cluster_;
  std::unique_ptr<DaosClient> client_;
  ContainerId cont_ = 0;
  ObjectId oid_;
  std::vector<std::string> dkeys_;
  Buffer payload_ = MakePatternBuffer(kBlock, 7);
  Buffer window_ = Buffer(kBlock);
};

TEST_P(DataPathAllocTest, SteadyStateOpsAllocateOnlyTheirTransportBuffer) {
  const double updates =
      LargeAllocationsPerOp([&](const std::string& d) { return Update(d); });
  const double fetches =
      LargeAllocationsPerOp([&](const std::string& d) { return Fetch(d); });
  std::printf("%s: allocations > 4 KiB per 64 KiB op: update %.3f, "
              "fetch %.3f\n",
              std::string(perf::TransportName(GetParam())).c_str(), updates,
              fetches);
  ASSERT_GE(updates, 0.0) << "an update failed";
  ASSERT_GE(fetches, 0.0) << "a fetch failed or read back wrong bytes";
  EXPECT_LE(updates, 1.0);
  EXPECT_LE(fetches, 1.0);
}

INSTANTIATE_TEST_SUITE_P(Transports, DataPathAllocTest,
                         ::testing::Values(net::Transport::kTcp,
                                           net::Transport::kRdma),
                         [](const auto& info) {
                           return std::string(
                               perf::TransportName(info.param));
                         });

}  // namespace
}  // namespace ros2::daos
