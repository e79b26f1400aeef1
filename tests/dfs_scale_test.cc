// DFS-at-scale tests for the pipelined data path: batch round-trips
// larger than the client's in-flight window, paged Readdir over a
// directory too big for one page, and lookup-cache semantics (hits,
// invalidation on rename/unlink, LRU bound) observed through the dfs/*
// telemetry subtree.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "dfs/dfs.h"
#include "telemetry/metrics.h"
#include "telemetry/snapshot.h"

namespace ros2::dfs {
namespace {

/// Small chunks so a single Write fans out into far more chunk ops than
/// the RPC client's 32-op window — the batch path must flow-control, not
/// overrun or deadlock.
constexpr std::uint64_t kChunk = 4 * kKiB;

class DfsScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    daos::ClusterSpec spec;
    spec.engine.targets = 8;
    spec.engine.scm_per_target = 16 * kMiB;
    auto cluster = daos::Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    auto client = cluster_->Connect({});
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);
    auto cont = client_->ContainerCreate("scale");
    ASSERT_TRUE(cont.ok());
    cont_ = *cont;
  }

  std::unique_ptr<Dfs> NewMount(bool create, DfsConfig config) {
    config.chunk_size = kChunk;
    auto dfs = Dfs::Mount(client_.get(), cont_, create, config);
    EXPECT_TRUE(dfs.ok()) << dfs.status().ToString();
    return dfs.ok() ? std::move(*dfs) : nullptr;
  }

  std::unique_ptr<daos::Cluster> cluster_;
  std::unique_ptr<daos::DaosClient> client_;
  daos::ContainerId cont_;
};

TEST_F(DfsScaleTest, BatchRoundTripExceedsClientWindow) {
  auto dfs = NewMount(/*create=*/true, DfsConfig{});
  ASSERT_NE(dfs, nullptr);
  telemetry::Telemetry tree;
  dfs->AttachTelemetry(&tree);

  OpenFlags create;
  create.create = true;
  auto fd = dfs->Open("/wide", create);
  ASSERT_TRUE(fd.ok());

  // 40+ chunks in one call — beyond the RPC client's 32-op window, and
  // starting/ending mid-chunk so the edges take the read-modify-write
  // path while the middle takes the full-chunk path.
  const std::uint64_t offset = kChunk / 2 + 17;
  Buffer data = MakePatternBuffer(40 * kChunk + 1234, 21);
  ASSERT_TRUE(dfs->Write(*fd, offset, data).ok());

  Buffer out(data.size());
  auto n = dfs->Read(*fd, offset, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, data.size());
  EXPECT_EQ(out, data);

  // The whole request went through the pipelined path: one logical write
  // batch and one read batch, each carrying more chunk ops than the
  // client window holds at once.
  auto snap = tree.Snapshot("dfs/io");
  EXPECT_GE(snap.ValueOr("dfs/io/write_batches", 0), 1u);
  EXPECT_GE(snap.ValueOr("dfs/io/read_batches", 0), 1u);
  EXPECT_GT(snap.ValueOr("dfs/io/chunk_updates", 0), 32u);
  EXPECT_GT(snap.ValueOr("dfs/io/chunk_fetches", 0), 32u);

  // A mount with every accelerator off reads the same bytes back: the
  // batched writer left exactly the state the sequential path expects.
  DfsConfig plain;
  plain.batch_io = false;
  plain.lookup_cache_entries = 0;
  plain.readahead_chunks = 0;
  auto seq = NewMount(/*create=*/false, plain);
  ASSERT_NE(seq, nullptr);
  auto fd2 = seq->Open("/wide", OpenFlags{});
  ASSERT_TRUE(fd2.ok());
  Buffer again(data.size());
  auto n2 = seq->Read(*fd2, offset, again);
  ASSERT_TRUE(n2.ok());
  ASSERT_EQ(*n2, data.size());
  EXPECT_EQ(again, data);
}

TEST_F(DfsScaleTest, ReaddirPagingCoversLargeDirectory) {
  auto dfs = NewMount(/*create=*/true, DfsConfig{});
  ASSERT_NE(dfs, nullptr);
  ASSERT_TRUE(dfs->Mkdir("/big").ok());
  constexpr int kFiles = 57;
  std::set<std::string> expected;
  for (int i = 0; i < kFiles; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "f%03d", i);
    OpenFlags create;
    create.create = true;
    auto fd = dfs->Open(std::string("/big/") + name, create);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(dfs->Close(*fd).ok());
    expected.insert(name);
  }
  ASSERT_TRUE(dfs->Mkdir("/big/sub").ok());
  expected.insert("sub");

  // Walk the directory 10 entries at a time; every page but the last
  // reports more=true and a usable marker, and each name shows up
  // exactly once across pages.
  ReaddirPage page;
  page.limit = 10;
  std::set<std::string> listed;
  std::vector<std::size_t> page_sizes;
  for (;;) {
    auto result = dfs->Readdir("/big", page);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    page_sizes.push_back(result->entries.size());
    std::string prev;
    for (const auto& entry : result->entries) {
      EXPECT_LT(prev, entry.name) << "page not sorted";
      prev = entry.name;
      EXPECT_TRUE(listed.insert(entry.name).second)
          << entry.name << " listed twice";
      EXPECT_EQ(entry.type, entry.name == "sub" ? InodeType::kDirectory
                                                : InodeType::kFile);
    }
    if (!result->more) break;
    EXPECT_EQ(result->entries.size(), page.limit);
    ASSERT_FALSE(result->next_marker.empty());
    page.marker = result->next_marker;
  }
  EXPECT_EQ(listed, expected);
  EXPECT_EQ(page_sizes.size(), (kFiles + 1 + 9) / 10u);

  // An unbounded page and the convenience Readdir agree with the pages.
  auto all = dfs->Readdir("/big", ReaddirPage{});
  ASSERT_TRUE(all.ok());
  EXPECT_FALSE(all->more);
  EXPECT_EQ(all->entries.size(), expected.size());
  auto flat = dfs->Readdir("/big");
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(flat->size(), expected.size());
}

TEST_F(DfsScaleTest, ReaddirPageMarkerSurvivesUnlink) {
  // Unlinking the marker entry (and its successors) between pages must
  // not derail the walk: the next page resumes strictly after the
  // marker's name, skipping whatever vanished.
  auto dfs = NewMount(/*create=*/true, DfsConfig{});
  ASSERT_NE(dfs, nullptr);
  ASSERT_TRUE(dfs->Mkdir("/churn").ok());
  for (int i = 0; i < 20; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "f%02d", i);
    OpenFlags create;
    create.create = true;
    auto fd = dfs->Open(std::string("/churn/") + name, create);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(dfs->Close(*fd).ok());
  }
  ReaddirPage page;
  page.limit = 8;
  auto first = dfs->Readdir("/churn", page);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first->more);
  ASSERT_EQ(first->next_marker, "f07");  // nothing punched mid-listing yet
  // Remove the marker itself plus the next two names.
  ASSERT_TRUE(dfs->Unlink("/churn/" + first->next_marker).ok());
  ASSERT_TRUE(dfs->Unlink("/churn/f08").ok());
  ASSERT_TRUE(dfs->Unlink("/churn/f09").ok());
  page.marker = first->next_marker;
  std::set<std::string> rest;
  for (;;) {
    auto result = dfs->Readdir("/churn", page);
    ASSERT_TRUE(result.ok());
    for (const auto& entry : result->entries) {
      EXPECT_GT(entry.name, first->next_marker);
      EXPECT_TRUE(rest.insert(entry.name).second);
    }
    if (!result->more) break;
    page.marker = result->next_marker;
  }
  std::set<std::string> expected;
  for (int i = 10; i < 20; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "f%02d", i);
    expected.insert(name);
  }
  EXPECT_EQ(rest, expected);
}

TEST_F(DfsScaleTest, LookupCacheHitsAndInvalidation) {
  auto dfs = NewMount(/*create=*/true, DfsConfig{});
  ASSERT_NE(dfs, nullptr);
  telemetry::Telemetry tree;
  dfs->AttachTelemetry(&tree);
  ASSERT_TRUE(dfs->Mkdir("/cache").ok());
  OpenFlags create;
  create.create = true;
  auto fd = dfs->Open("/cache/a", create);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(dfs->Write(*fd, 0, MakePatternBuffer(100, 1)).ok());
  ASSERT_TRUE(dfs->Close(*fd).ok());

  // First stat warms the cache; repeats are pure hits.
  ASSERT_TRUE(dfs->Stat("/cache/a").ok());
  const std::uint64_t hits_before =
      tree.Snapshot("dfs/lookup_cache").ValueOr("dfs/lookup_cache/hits", 0);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(dfs->Stat("/cache/a").ok());
  auto snap = tree.Snapshot("dfs/lookup_cache");
  EXPECT_GE(snap.ValueOr("dfs/lookup_cache/hits", 0), hits_before + 5);

  // Rename drops the old name at once — a stale hit here would resolve
  // the dead entry.
  ASSERT_TRUE(dfs->Rename("/cache/a", "/cache/b").ok());
  EXPECT_FALSE(dfs->Stat("/cache/a").ok());
  auto moved = dfs->Stat("/cache/b");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(moved->size, 100u);

  // Unlink likewise: the cached entry must die with the file.
  ASSERT_TRUE(dfs->Stat("/cache/b").ok());  // warm it again
  ASSERT_TRUE(dfs->Unlink("/cache/b").ok());
  EXPECT_FALSE(dfs->Stat("/cache/b").ok());
  EXPECT_FALSE(dfs->Open("/cache/b", OpenFlags{}).ok());

  // Re-creating the name must serve the NEW object, not a cached ghost.
  auto fd2 = dfs->Open("/cache/b", create);
  ASSERT_TRUE(fd2.ok());
  ASSERT_TRUE(dfs->Write(*fd2, 0, MakePatternBuffer(7, 2)).ok());
  ASSERT_TRUE(dfs->Close(*fd2).ok());
  auto reborn = dfs->Stat("/cache/b");
  ASSERT_TRUE(reborn.ok());
  EXPECT_EQ(reborn->size, 7u);
}

TEST_F(DfsScaleTest, LookupCacheStaysBounded) {
  DfsConfig config;
  config.lookup_cache_entries = 8;
  auto dfs = NewMount(/*create=*/true, config);
  ASSERT_NE(dfs, nullptr);
  telemetry::Telemetry tree;
  dfs->AttachTelemetry(&tree);
  OpenFlags create;
  create.create = true;
  for (int i = 0; i < 24; ++i) {
    const std::string path = "/f" + std::to_string(i);
    auto fd = dfs->Open(path, create);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(dfs->Close(*fd).ok());
    ASSERT_TRUE(dfs->Stat(path).ok());
  }
  auto snap = tree.Snapshot("dfs/lookup_cache");
  EXPECT_LE(snap.ValueOr("dfs/lookup_cache/entries", 99), 8u);
  EXPECT_GT(snap.ValueOr("dfs/lookup_cache/evictions", 0), 0u);

  // Evicted names still resolve — the cache is an accelerator, never
  // the source of truth.
  for (int i = 0; i < 24; ++i) {
    EXPECT_TRUE(dfs->Stat("/f" + std::to_string(i)).ok()) << i;
  }
}

TEST_F(DfsScaleTest, KillSwitchesDisableAcceleratorsNotSemantics) {
  // batch_io=false + lookup_cache_entries=0 must behave identically, just
  // slower: zero batch counters, zero cache traffic.
  DfsConfig plain;
  plain.batch_io = false;
  plain.lookup_cache_entries = 0;
  plain.readahead_chunks = 0;
  auto dfs = NewMount(/*create=*/true, plain);
  ASSERT_NE(dfs, nullptr);
  telemetry::Telemetry tree;
  dfs->AttachTelemetry(&tree);
  OpenFlags create;
  create.create = true;
  auto fd = dfs->Open("/plain", create);
  ASSERT_TRUE(fd.ok());
  Buffer data = MakePatternBuffer(10 * kChunk + 99, 3);
  ASSERT_TRUE(dfs->Write(*fd, 0, data).ok());
  Buffer out(data.size());
  auto n = dfs->Read(*fd, 0, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(dfs->Stat("/plain").ok());

  auto snap = tree.Snapshot("dfs");
  EXPECT_EQ(snap.ValueOr("dfs/io/read_batches", 99), 0u);
  EXPECT_EQ(snap.ValueOr("dfs/io/write_batches", 99), 0u);
  EXPECT_EQ(snap.ValueOr("dfs/lookup_cache/hits", 99), 0u);
  EXPECT_EQ(snap.ValueOr("dfs/lookup_cache/entries", 99), 0u);
  // Chunk ops still count — they meter the data path itself, not the
  // batching.
  EXPECT_GT(snap.ValueOr("dfs/io/chunk_updates", 0), 10u);
}

}  // namespace
}  // namespace ros2::dfs
