// DFS POSIX-layer tests: namespace operations, chunked file I/O, rename,
// truncate — the §3.3 "DFS mapping" contract, over both transports.
#include "dfs/dfs.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/placement.h"

namespace ros2::dfs {
namespace {

class DfsTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  void SetUp() override {
    daos::ClusterSpec spec;
    spec.engine.targets = 8;
    spec.engine.scm_per_target = 16 * kMiB;
    auto cluster = daos::Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    daos::DaosClient::ConnectOptions options;
    options.transport = GetParam();
    auto client = cluster_->Connect(options);
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);
    auto cont = client_->ContainerCreate("posix");
    ASSERT_TRUE(cont.ok());
    auto dfs = Dfs::Mount(client_.get(), *cont, /*create=*/true);
    ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
    dfs_ = std::move(*dfs);
  }

  std::unique_ptr<daos::Cluster> cluster_;
  std::unique_ptr<daos::DaosClient> client_;
  std::unique_ptr<Dfs> dfs_;
};

TEST_P(DfsTest, CreateWriteReadFile) {
  OpenFlags flags;
  flags.create = true;
  auto fd = dfs_->Open("/hello.txt", flags);
  ASSERT_TRUE(fd.ok());
  Buffer data = MakePatternBuffer(1000, 1);
  ASSERT_TRUE(dfs_->Write(*fd, 0, data).ok());
  Buffer out(1000);
  auto n = dfs_->Read(*fd, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1000u);
  EXPECT_EQ(out, data);
  ASSERT_TRUE(dfs_->Close(*fd).ok());
}

TEST_P(DfsTest, ReadClampsAtEof) {
  OpenFlags flags;
  flags.create = true;
  auto fd = dfs_->Open("/short", flags);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(dfs_->Write(*fd, 0, MakePatternBuffer(100, 1)).ok());
  Buffer out(1000);
  auto n = dfs_->Read(*fd, 50, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 50u);
  auto past = dfs_->Read(*fd, 100, out);
  ASSERT_TRUE(past.ok());
  EXPECT_EQ(*past, 0u);
}

TEST_P(DfsTest, ChunkSpanningIo) {
  OpenFlags flags;
  flags.create = true;
  auto fd = dfs_->Open("/big", flags);
  ASSERT_TRUE(fd.ok());
  // Write 3.5 MiB starting mid-chunk: spans 4+ chunks.
  Buffer data = MakePatternBuffer(3 * kMiB + 512 * kKiB, 7);
  const std::uint64_t offset = 512 * kKiB + 123;
  ASSERT_TRUE(dfs_->Write(*fd, offset, data).ok());
  Buffer out(data.size());
  auto n = dfs_->Read(*fd, offset, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
  EXPECT_EQ(dfs_->Size(*fd).value(), offset + data.size());
}

TEST_P(DfsTest, SparseFileReadsZerosInHoles) {
  OpenFlags flags;
  flags.create = true;
  auto fd = dfs_->Open("/sparse", flags);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(dfs_->Write(*fd, 5 * kMiB, MakePatternBuffer(100, 3)).ok());
  Buffer out(4096);
  auto n = dfs_->Read(*fd, kMiB, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 4096u);
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
}

TEST_P(DfsTest, OpenSemantics) {
  OpenFlags none;
  EXPECT_EQ(dfs_->Open("/missing", none).status().code(),
            ErrorCode::kNotFound);
  OpenFlags create;
  create.create = true;
  ASSERT_TRUE(dfs_->Open("/f", create).ok());
  OpenFlags excl = create;
  excl.exclusive = true;
  EXPECT_EQ(dfs_->Open("/f", excl).status().code(),
            ErrorCode::kAlreadyExists);
  // Reopen without create works.
  EXPECT_TRUE(dfs_->Open("/f", none).ok());
}

TEST_P(DfsTest, TruncateOnOpen) {
  OpenFlags create;
  create.create = true;
  auto fd = dfs_->Open("/t", create);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(dfs_->Write(*fd, 0, MakePatternBuffer(1000, 1)).ok());
  ASSERT_TRUE(dfs_->Close(*fd).ok());
  OpenFlags trunc;
  trunc.truncate = true;
  auto fd2 = dfs_->Open("/t", trunc);
  ASSERT_TRUE(fd2.ok());
  EXPECT_EQ(dfs_->Size(*fd2).value(), 0u);
}

TEST_P(DfsTest, MkdirAndNestedPaths) {
  ASSERT_TRUE(dfs_->Mkdir("/a").ok());
  ASSERT_TRUE(dfs_->Mkdir("/a/b").ok());
  ASSERT_TRUE(dfs_->Mkdir("/a/b/c").ok());
  EXPECT_EQ(dfs_->Mkdir("/a").code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(dfs_->Mkdir("/x/y").code(), ErrorCode::kNotFound);
  OpenFlags create;
  create.create = true;
  auto fd = dfs_->Open("/a/b/c/file", create);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(dfs_->Write(*fd, 0, MakePatternBuffer(64, 1)).ok());
  auto stat = dfs_->Stat("/a/b/c/file");
  ASSERT_TRUE(stat.ok());
  EXPECT_EQ(stat->type, InodeType::kFile);
  EXPECT_EQ(stat->size, 64u);
}

TEST_P(DfsTest, StatRootAndDirs) {
  auto root = dfs_->Stat("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->type, InodeType::kDirectory);
  ASSERT_TRUE(dfs_->Mkdir("/d").ok());
  auto dir = dfs_->Stat("/d");
  ASSERT_TRUE(dir.ok());
  EXPECT_EQ(dir->type, InodeType::kDirectory);
}

TEST_P(DfsTest, ReaddirSortedAndTyped) {
  ASSERT_TRUE(dfs_->Mkdir("/dir").ok());
  OpenFlags create;
  create.create = true;
  ASSERT_TRUE(dfs_->Open("/dir/zebra", create).ok());
  ASSERT_TRUE(dfs_->Open("/dir/alpha", create).ok());
  ASSERT_TRUE(dfs_->Mkdir("/dir/middle").ok());
  auto entries = dfs_->Readdir("/dir");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 3u);
  EXPECT_EQ((*entries)[0].name, "alpha");
  EXPECT_EQ((*entries)[0].type, InodeType::kFile);
  EXPECT_EQ((*entries)[1].name, "middle");
  EXPECT_EQ((*entries)[1].type, InodeType::kDirectory);
  EXPECT_EQ((*entries)[2].name, "zebra");
}

TEST_P(DfsTest, UnreadableEntryFailsReaddirAndKeepsTheDirectory) {
  // An entry whose record fails its checksum is not "punched": the
  // listing must fail, or Unlink would remove the directory as empty and
  // orphan its children.
  ASSERT_TRUE(dfs_->Mkdir("/dir").ok());
  OpenFlags create;
  create.create = true;
  for (const char* name : {"/dir/a", "/dir/b", "/dir/c"}) {
    auto fd = dfs_->Open(name, create);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(dfs_->Close(*fd).ok());
  }
  auto dir = dfs_->Stat("/dir");
  ASSERT_TRUE(dir.ok());
  // Flip one byte of "b"'s entry record (akey "e") in its target's SCM.
  daos::DaosEngine* engine = cluster_->engine(0);
  auto stored = engine
                    ->target_vos(daos::PlaceDkey(dir->oid, "b",
                                                 engine->num_targets()))
                    ->ScmBytesForTest(dir->oid, "b", "e");
  ASSERT_TRUE(stored.ok()) << stored.status().ToString();
  ASSERT_FALSE(stored->empty());
  (*stored)[0] ^= std::byte{0xFF};

  EXPECT_EQ(dfs_->Readdir("/dir").status().code(), ErrorCode::kDataLoss);
  ReaddirPage page;
  page.limit = 1;
  page.marker = "a";
  EXPECT_EQ(dfs_->Readdir("/dir", page).status().code(),
            ErrorCode::kDataLoss);
  EXPECT_FALSE(dfs_->Unlink("/dir").ok());
  EXPECT_TRUE(dfs_->Stat("/dir").ok());
  // Pages that do not reach the bad entry still list.
  page.marker = "b";
  auto rest = dfs_->Readdir("/dir", page);
  ASSERT_TRUE(rest.ok()) << rest.status().ToString();
  ASSERT_EQ(rest->entries.size(), 1u);
  EXPECT_EQ(rest->entries[0].name, "c");
  EXPECT_FALSE(rest->more);
}

TEST_P(DfsTest, PagedReaddirAcrossUnlinksListsOnlyLiveNamesInFullPages) {
  ASSERT_TRUE(dfs_->Mkdir("/churn").ok());
  OpenFlags create;
  create.create = true;
  std::set<std::string> live;
  for (int i = 0; i < 30; ++i) {
    const std::string name = "f" + std::to_string(10 + i);
    auto fd = dfs_->Open("/churn/" + name, create);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(dfs_->Close(*fd).ok());
    live.insert(name);
  }
  // Between pages, unlink the two live names right after the marker: the
  // next page skips their punched entries server-side and is still full.
  ReaddirPage page;
  page.limit = 4;
  std::set<std::string> listed;
  int pages = 0;
  for (;;) {
    ASSERT_LT(++pages, 30) << "the walk does not terminate";
    auto result = dfs_->Readdir("/churn", page);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (const DirEntry& entry : result->entries) {
      EXPECT_TRUE(live.contains(entry.name)) << entry.name << " is unlinked";
      EXPECT_TRUE(listed.insert(entry.name).second) << entry.name;
      EXPECT_GT(entry.name, page.marker);
    }
    if (!result->more) break;
    EXPECT_EQ(result->entries.size(), page.limit) << "page " << pages;
    page.marker = result->next_marker;
    auto next = live.upper_bound(page.marker);
    for (int k = 0; k < 2 && next != live.end(); ++k) {
      ASSERT_TRUE(dfs_->Unlink("/churn/" + *next).ok());
      next = live.erase(next);
    }
  }
  // Names never unlinked were all listed.
  for (const std::string& name : live) EXPECT_TRUE(listed.contains(name));
  auto all = dfs_->Readdir("/churn");
  ASSERT_TRUE(all.ok());
  std::set<std::string> now;
  for (const DirEntry& entry : *all) now.insert(entry.name);
  EXPECT_EQ(now, live);
}

TEST_P(DfsTest, ReaddirOnFileRejected) {
  OpenFlags create;
  create.create = true;
  ASSERT_TRUE(dfs_->Open("/plain", create).ok());
  EXPECT_EQ(dfs_->Readdir("/plain").status().code(),
            ErrorCode::kInvalidArgument);
}

TEST_P(DfsTest, UnlinkFileAndEmptyDirOnly) {
  OpenFlags create;
  create.create = true;
  auto fd = dfs_->Open("/doomed", create);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(dfs_->Write(*fd, 0, MakePatternBuffer(kMiB, 1)).ok());
  ASSERT_TRUE(dfs_->Close(*fd).ok());
  ASSERT_TRUE(dfs_->Unlink("/doomed").ok());
  EXPECT_EQ(dfs_->Stat("/doomed").status().code(), ErrorCode::kNotFound);

  ASSERT_TRUE(dfs_->Mkdir("/full").ok());
  ASSERT_TRUE(dfs_->Open("/full/kid", create).ok());
  EXPECT_EQ(dfs_->Unlink("/full").code(), ErrorCode::kFailedPrecondition);
  ASSERT_TRUE(dfs_->Unlink("/full/kid").ok());
  EXPECT_TRUE(dfs_->Unlink("/full").ok());
}

TEST_P(DfsTest, RenameMovesContent) {
  ASSERT_TRUE(dfs_->Mkdir("/src").ok());
  ASSERT_TRUE(dfs_->Mkdir("/dst").ok());
  OpenFlags create;
  create.create = true;
  auto fd = dfs_->Open("/src/f", create);
  ASSERT_TRUE(fd.ok());
  Buffer data = MakePatternBuffer(2 * kMiB, 9);
  ASSERT_TRUE(dfs_->Write(*fd, 0, data).ok());
  ASSERT_TRUE(dfs_->Close(*fd).ok());

  ASSERT_TRUE(dfs_->Rename("/src/f", "/dst/g").ok());
  EXPECT_EQ(dfs_->Stat("/src/f").status().code(), ErrorCode::kNotFound);
  auto fd2 = dfs_->Open("/dst/g", OpenFlags{});
  ASSERT_TRUE(fd2.ok());
  Buffer out(data.size());
  auto n = dfs_->Read(*fd2, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(out, data);
}

TEST_P(DfsTest, RenameOverwritesFile) {
  OpenFlags create;
  create.create = true;
  auto a = dfs_->Open("/a", create);
  auto b = dfs_->Open("/b", create);
  ASSERT_TRUE(a.ok() && b.ok());
  ASSERT_TRUE(dfs_->Write(*a, 0, MakePatternBuffer(10, 1)).ok());
  ASSERT_TRUE(dfs_->Write(*b, 0, MakePatternBuffer(10, 2)).ok());
  ASSERT_TRUE(dfs_->Rename("/a", "/b").ok());
  auto fd = dfs_->Open("/b", OpenFlags{});
  ASSERT_TRUE(fd.ok());
  Buffer out(10);
  ASSERT_TRUE(dfs_->Read(*fd, 0, out).ok());
  EXPECT_EQ(VerifyPattern(out, 1, 0), -1);
}

TEST_P(DfsTest, TruncateShrinkAndExtend) {
  OpenFlags create;
  create.create = true;
  auto fd = dfs_->Open("/trunc", create);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(dfs_->Write(*fd, 0, MakePatternBuffer(1000, 1)).ok());
  ASSERT_TRUE(dfs_->Truncate(*fd, 0).ok());
  EXPECT_EQ(dfs_->Size(*fd).value(), 0u);
  Buffer out(100);
  EXPECT_EQ(dfs_->Read(*fd, 0, out).value(), 0u);

  ASSERT_TRUE(dfs_->Truncate(*fd, 5000).ok());
  EXPECT_EQ(dfs_->Size(*fd).value(), 5000u);
  auto n = dfs_->Read(*fd, 4900, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 100u);
  for (std::byte b : out) EXPECT_EQ(b, std::byte(0));
}

TEST_P(DfsTest, MountOpenExistingNamespace) {
  OpenFlags create;
  create.create = true;
  auto fd = dfs_->Open("/persisted", create);
  ASSERT_TRUE(fd.ok());
  Buffer data = MakePatternBuffer(123, 4);
  ASSERT_TRUE(dfs_->Write(*fd, 0, data).ok());

  // Re-mount the same container without create.
  auto cont = client_->ContainerOpen("posix");
  ASSERT_TRUE(cont.ok());
  auto dfs2 = Dfs::Mount(client_.get(), *cont, /*create=*/false);
  ASSERT_TRUE(dfs2.ok()) << dfs2.status().ToString();
  auto fd2 = (*dfs2)->Open("/persisted", OpenFlags{});
  ASSERT_TRUE(fd2.ok());
  Buffer out(123);
  ASSERT_TRUE((*dfs2)->Read(*fd2, 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_P(DfsTest, MountRejectsForeignContainer) {
  auto cont = client_->ContainerCreate("not-posix");
  ASSERT_TRUE(cont.ok());
  auto dfs = Dfs::Mount(client_.get(), *cont, /*create=*/false);
  EXPECT_FALSE(dfs.ok());
}

TEST_P(DfsTest, PathValidation) {
  EXPECT_EQ(dfs_->Mkdir("relative").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(dfs_->Mkdir("/a/../b").code(), ErrorCode::kInvalidArgument);
  EXPECT_EQ(dfs_->Stat("").status().code(), ErrorCode::kInvalidArgument);
}

TEST_P(DfsTest, TruncateMidChunkZeroFillsStaleTail) {
  // Regression: shrinking to a mid-chunk size used to only update the
  // size record, leaving the old chunk bytes materialized — growing the
  // file again (truncate-extend or a later write) exposed the STALE data
  // instead of zeros.
  OpenFlags create;
  create.create = true;
  auto fd = dfs_->Open("/stale-tail", create);
  ASSERT_TRUE(fd.ok());
  const std::uint64_t total = 2 * kMiB + 500 * kKiB;  // spans 3 chunks
  Buffer data = MakePatternBuffer(total, 9);
  ASSERT_TRUE(dfs_->Write(*fd, 0, data).ok());

  const std::uint64_t cut = kMiB + 300 * kKiB + 7;  // mid chunk 1
  ASSERT_TRUE(dfs_->Truncate(*fd, cut).ok());
  ASSERT_TRUE(dfs_->Truncate(*fd, total).ok());  // grow back over the cut
  EXPECT_EQ(dfs_->Size(*fd).value(), total);

  Buffer out(total);
  auto n = dfs_->Read(*fd, 0, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, total);
  // Bytes below the cut survive; everything above reads as zeros even
  // where the old chunks used to hold data.
  for (std::uint64_t i = 0; i < cut; ++i) {
    ASSERT_EQ(out[i], data[i]) << "byte " << i;
  }
  for (std::uint64_t i = cut; i < total; ++i) {
    ASSERT_EQ(out[i], std::byte(0)) << "stale byte " << i;
  }
}

TEST_P(DfsTest, ReadSpanningHoleMixesDataAndZeros) {
  // One read crossing data -> hole -> data: the hole bytes come back as
  // zeros in place, not as a short read or an error.
  OpenFlags create;
  create.create = true;
  auto fd = dfs_->Open("/hole-span", create);
  ASSERT_TRUE(fd.ok());
  Buffer head = MakePatternBuffer(100 * kKiB, 5);
  Buffer tail = MakePatternBuffer(100 * kKiB, 6);
  const std::uint64_t tail_at = 4 * kMiB;  // chunks 1..3 never written
  ASSERT_TRUE(dfs_->Write(*fd, 0, head).ok());
  ASSERT_TRUE(dfs_->Write(*fd, tail_at, tail).ok());

  Buffer out(tail_at + tail.size());
  auto n = dfs_->Read(*fd, 0, out);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, out.size());
  for (std::uint64_t i = 0; i < head.size(); ++i) {
    ASSERT_EQ(out[i], head[i]) << "head byte " << i;
  }
  for (std::uint64_t i = head.size(); i < tail_at; ++i) {
    ASSERT_EQ(out[i], std::byte(0)) << "hole byte " << i;
  }
  for (std::uint64_t i = 0; i < tail.size(); ++i) {
    ASSERT_EQ(out[tail_at + i], tail[i]) << "tail byte " << i;
  }
}

TEST_P(DfsTest, SizeCoherentAcrossFds) {
  // Two fds on the same file share size state: an extending write or a
  // truncate through one is immediately visible through the other (each
  // fd used to carry a private stale copy loaded at open).
  OpenFlags create;
  create.create = true;
  auto fd1 = dfs_->Open("/shared", create);
  ASSERT_TRUE(fd1.ok());
  auto fd2 = dfs_->Open("/shared", OpenFlags{});
  ASSERT_TRUE(fd2.ok());

  Buffer data = MakePatternBuffer(3000, 2);
  ASSERT_TRUE(dfs_->Write(*fd1, 0, data).ok());
  EXPECT_EQ(dfs_->Size(*fd2).value(), 3000u);

  ASSERT_TRUE(dfs_->Truncate(*fd2, 1000).ok());
  Buffer out(3000);
  auto n = dfs_->Read(*fd1, 0, out);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1000u);  // fd1 sees fd2's shrink at once

  ASSERT_TRUE(dfs_->Write(*fd2, 4000, MakePatternBuffer(500, 3)).ok());
  EXPECT_EQ(dfs_->Size(*fd1).value(), 4500u);

  // The shared state expires with the last close: a fresh open reloads
  // from the stored size record, which every path above kept current.
  ASSERT_TRUE(dfs_->Close(*fd1).ok());
  ASSERT_TRUE(dfs_->Close(*fd2).ok());
  auto fd3 = dfs_->Open("/shared", OpenFlags{});
  ASSERT_TRUE(fd3.ok());
  EXPECT_EQ(dfs_->Size(*fd3).value(), 4500u);
}

TEST_P(DfsTest, BadFdRejected) {
  Buffer out(10);
  EXPECT_EQ(dfs_->Read(999, 0, out).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(dfs_->Write(999, 0, out).code(), ErrorCode::kNotFound);
  EXPECT_EQ(dfs_->Close(999).code(), ErrorCode::kNotFound);
  EXPECT_EQ(dfs_->Fsync(999).code(), ErrorCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(Transports, DfsTest,
                         ::testing::Values(net::Transport::kTcp,
                                           net::Transport::kRdma),
                         [](const auto& info) {
                           return std::string(
                               perf::TransportName(info.param));
                         });

}  // namespace
}  // namespace ros2::dfs
