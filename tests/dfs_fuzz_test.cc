// Property/fuzz test: DFS against an in-memory reference filesystem.
// Random namespace + I/O operations must behave identically in both, per
// seed (TEST_P). Exercises chunk-spanning writes, sparse reads, renames,
// unlinks, and truncates through the full DAOS stack.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "dfs/dfs.h"

namespace ros2::dfs {
namespace {

/// Reference: path -> file bytes. Directories are implicit ("/d0".."/d3"
/// created up front) so the fuzz focuses on file state.
using ReferenceFs = std::map<std::string, Buffer>;

class DfsFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    daos::ClusterSpec spec;
    spec.engine.targets = 8;
    spec.engine.scm_per_target = 32 * kMiB;
    auto cluster = daos::Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    daos::DaosClient::ConnectOptions options;
    options.transport = GetParam() % 2 == 0 ? net::Transport::kRdma
                                            : net::Transport::kTcp;
    auto client = cluster_->Connect(options);
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);
    auto cont = client_->ContainerCreate("fuzz");
    ASSERT_TRUE(cont.ok());
    auto dfs = Dfs::Mount(client_.get(), *cont, /*create=*/true,
                          DfsConfig{/*chunk_size=*/64 * 1024});
    ASSERT_TRUE(dfs.ok());
    dfs_ = std::move(*dfs);
    for (int d = 0; d < 4; ++d) {
      ASSERT_TRUE(dfs_->Mkdir("/d" + std::to_string(d)).ok());
    }
  }

  std::string RandomPath(Rng& rng) {
    return "/d" + std::to_string(rng.Below(4)) + "/f" +
           std::to_string(rng.Below(6));
  }

  std::unique_ptr<daos::Cluster> cluster_;
  std::unique_ptr<daos::DaosClient> client_;
  std::unique_ptr<Dfs> dfs_;
};

TEST_P(DfsFuzzTest, RandomOpsMatchReferenceFs) {
  Rng rng(GetParam());
  ReferenceFs ref;
  constexpr std::uint64_t kMaxFile = 300 * 1024;  // spans several chunks

  for (int step = 0; step < 300; ++step) {
    const std::string path = RandomPath(rng);
    const std::uint64_t dice = rng.Below(100);
    const bool exists = ref.contains(path);

    if (dice < 40) {
      // Write a random extent (creating the file if needed).
      OpenFlags flags;
      flags.create = true;
      auto fd = dfs_->Open(path, flags);
      ASSERT_TRUE(fd.ok()) << path;
      const std::uint64_t offset = rng.Below(kMaxFile);
      const std::uint64_t length = 1 + rng.Below(80 * 1024);
      Buffer data = MakePatternBuffer(length, rng.Next());
      ASSERT_TRUE(dfs_->Write(*fd, offset, data).ok());
      ASSERT_TRUE(dfs_->Close(*fd).ok());
      Buffer& file = ref[path];
      if (file.size() < offset + length) {
        file.resize(offset + length, std::byte(0));
      }
      std::copy(data.begin(), data.end(),
                file.begin() + std::ptrdiff_t(offset));
    } else if (dice < 70) {
      // Read a random window and compare (missing files must fail).
      auto fd = dfs_->Open(path, OpenFlags{});
      if (!exists) {
        EXPECT_FALSE(fd.ok()) << path;
        continue;
      }
      ASSERT_TRUE(fd.ok()) << path;
      const Buffer& file = ref[path];
      const std::uint64_t offset = rng.Below(kMaxFile + 1000);
      const std::uint64_t length = 1 + rng.Below(64 * 1024);
      Buffer got(length);
      auto n = dfs_->Read(*fd, offset, got);
      ASSERT_TRUE(n.ok());
      const std::uint64_t expect_n =
          offset >= file.size()
              ? 0
              : std::min<std::uint64_t>(length, file.size() - offset);
      ASSERT_EQ(*n, expect_n) << path << " @" << offset;
      for (std::uint64_t i = 0; i < expect_n; ++i) {
        ASSERT_EQ(got[i], file[offset + i])
            << path << " byte " << offset + i << " step " << step;
      }
      ASSERT_TRUE(dfs_->Close(*fd).ok());
    } else if (dice < 80) {
      // Unlink.
      const Status status = dfs_->Unlink(path);
      EXPECT_EQ(status.ok(), exists) << path;
      ref.erase(path);
    } else if (dice < 90) {
      // Rename to another random path.
      const std::string to = RandomPath(rng);
      if (to == path) continue;
      const Status status = dfs_->Rename(path, to);
      if (!exists) {
        EXPECT_FALSE(status.ok());
        continue;
      }
      ASSERT_TRUE(status.ok()) << path << " -> " << to;
      ref[to] = std::move(ref[path]);
      ref.erase(path);
    } else if (exists) {
      // Truncate to a RANDOM size: shrink to mid-chunk (trailing chunks
      // punched, partial tail zero-filled), extend (hole reads as
      // zeros), or no-op — all must match POSIX resize semantics.
      auto fd = dfs_->Open(path, OpenFlags{});
      ASSERT_TRUE(fd.ok());
      const std::uint64_t new_size = rng.Below(kMaxFile + 1000);
      ASSERT_TRUE(dfs_->Truncate(*fd, new_size).ok()) << path;
      ASSERT_TRUE(dfs_->Close(*fd).ok());
      ref[path].resize(new_size, std::byte(0));
    }
  }

  // Final sweep: stat + full read of every referenced file.
  for (const auto& [path, bytes] : ref) {
    auto stat = dfs_->Stat(path);
    ASSERT_TRUE(stat.ok()) << path;
    EXPECT_EQ(stat->size, bytes.size()) << path;
    if (bytes.empty()) continue;
    auto fd = dfs_->Open(path, OpenFlags{});
    ASSERT_TRUE(fd.ok());
    Buffer got(bytes.size());
    auto n = dfs_->Read(*fd, 0, got);
    ASSERT_TRUE(n.ok());
    ASSERT_EQ(*n, bytes.size());
    EXPECT_EQ(got, bytes) << path;
  }

  // Directory listings agree with the reference's names and types (the
  // fuzz only creates files), and a paged walk with a seeded page size
  // concatenates to the unpaged listing, each name once.
  std::map<std::string, InodeType> listed;
  const std::uint32_t limit = std::uint32_t(1 + rng.Below(7));
  for (int d = 0; d < 4; ++d) {
    const std::string dir = "/d" + std::to_string(d);
    auto entries = dfs_->Readdir(dir);
    ASSERT_TRUE(entries.ok());
    for (const auto& entry : *entries) {
      listed[dir + "/" + entry.name] = entry.type;
    }
    std::vector<DirEntry> paged;
    ReaddirPage page;
    page.limit = limit;
    for (int pages = 0;; ++pages) {
      ASSERT_LE(pages, 6) << dir << " limit " << limit;
      auto result = dfs_->Readdir(dir, page);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      paged.insert(paged.end(), result->entries.begin(),
                   result->entries.end());
      if (!result->more) break;
      page.marker = result->next_marker;
    }
    ASSERT_EQ(paged.size(), entries->size()) << dir << " limit " << limit;
    for (std::size_t i = 0; i < paged.size(); ++i) {
      EXPECT_EQ(paged[i].name, (*entries)[i].name) << dir << " #" << i;
      EXPECT_EQ(paged[i].type, (*entries)[i].type) << dir << " #" << i;
    }
  }
  std::map<std::string, InodeType> expected;
  for (const auto& [path, _] : ref) expected[path] = InodeType::kFile;
  EXPECT_EQ(listed, expected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DfsFuzzTest,
                         ::testing::Values(11, 22, 33, 44, 55, 66));

}  // namespace
}  // namespace ros2::dfs
