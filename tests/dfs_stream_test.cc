// Buffered-stream tests: client-side batching (§3.3) must reduce RPC
// traffic without changing file content.
#include "dfs/stream.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"

namespace ros2::dfs {
namespace {

class DfsStreamTest : public ::testing::Test {
 protected:
  void SetUp() override {
    daos::ClusterSpec spec;
    spec.engine.targets = 8;
    spec.engine.scm_per_target = 32 * kMiB;
    auto cluster = daos::Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    engine_ = cluster_->engine(0);
    auto client = cluster_->Connect({});
    ASSERT_TRUE(client.ok());
    client_ = std::move(*client);
    auto cont = client_->ContainerCreate("c");
    ASSERT_TRUE(cont.ok());
    auto dfs = Dfs::Mount(client_.get(), *cont, true,
                          DfsConfig{/*chunk_size=*/256 * 1024});
    ASSERT_TRUE(dfs.ok());
    dfs_ = std::move(*dfs);
  }

  Fd OpenFile(const std::string& path) {
    OpenFlags flags;
    flags.create = true;
    auto fd = dfs_->Open(path, flags);
    EXPECT_TRUE(fd.ok());
    return fd.value_or(0);
  }

  std::unique_ptr<daos::Cluster> cluster_;
  daos::DaosEngine* engine_ = nullptr;
  std::unique_ptr<daos::DaosClient> client_;
  std::unique_ptr<Dfs> dfs_;
};

TEST_F(DfsStreamTest, TinyAppendsBatchIntoFewUpdates) {
  const Fd fd = OpenFile("/batched");
  const auto updates_before = engine_->updates();
  {
    DfsOutputStream out(dfs_.get(), fd);
    Buffer piece(100);
    for (int i = 0; i < 1000; ++i) {  // 100 KB in 100-byte appends
      FillPattern(piece, 1, std::uint64_t(i) * 100);
      ASSERT_TRUE(out.Append(piece).ok());
    }
    ASSERT_TRUE(out.Flush().ok());
    EXPECT_EQ(out.offset(), 100'000u);
  }
  // 100 KB / 256 KiB buffer -> exactly 1 data flush (plus size metadata).
  const auto update_rpcs = engine_->updates() - updates_before;
  EXPECT_LE(update_rpcs, 4u) << "batching failed: " << update_rpcs
                             << " updates for 1000 appends";

  Buffer all(100'000);
  auto n = dfs_->Read(fd, 0, all);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, all.size());
  EXPECT_EQ(VerifyPattern(all, 1, 0), -1);
}

TEST_F(DfsStreamTest, AppendsLargerThanBufferPassThrough) {
  const Fd fd = OpenFile("/big-append");
  DfsOutputStream out(dfs_.get(), fd, /*buffer_size=*/4096);
  Buffer big = MakePatternBuffer(100'000, 2);
  ASSERT_TRUE(out.Append(big).ok());
  ASSERT_TRUE(out.Flush().ok());
  Buffer all(big.size());
  auto n = dfs_->Read(fd, 0, all);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(all, big);
}

TEST_F(DfsStreamTest, DestructorFlushes) {
  const Fd fd = OpenFile("/dtor");
  {
    DfsOutputStream out(dfs_.get(), fd);
    ASSERT_TRUE(out.Append(MakePatternBuffer(512, 3)).ok());
  }
  Buffer back(512);
  auto n = dfs_->Read(fd, 0, back);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 512u);
  EXPECT_EQ(VerifyPattern(back, 3, 0), -1);
}

TEST_F(DfsStreamTest, InterleavedFlushKeepsOffsets) {
  const Fd fd = OpenFile("/interleaved");
  DfsOutputStream out(dfs_.get(), fd, 1024);
  for (int i = 0; i < 10; ++i) {
    Buffer piece(333);
    FillPattern(piece, 4, std::uint64_t(i) * 333);
    ASSERT_TRUE(out.Append(piece).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(out.Flush().ok());
    }
  }
  ASSERT_TRUE(out.Flush().ok());
  Buffer all(3330);
  auto n = dfs_->Read(fd, 0, all);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 3330u);
  EXPECT_EQ(VerifyPattern(all, 4, 0), -1);
}

TEST_F(DfsStreamTest, CloseSurfacesSwallowedWriteFailure) {
  const Fd fd = OpenFile("/close-error");
  DfsOutputStream out(dfs_.get(), fd, 1024);
  ASSERT_TRUE(out.Append(MakePatternBuffer(100, 7)).ok());
  // Yank the fd out from under the stream: the deferred buffered write
  // can no longer succeed. Before Close() existed this failure vanished
  // in the destructor.
  ASSERT_TRUE(dfs_->Close(fd).ok());
  const Status closed = out.Close();
  EXPECT_EQ(closed.code(), ErrorCode::kNotFound) << closed.ToString();
  EXPECT_EQ(out.status().code(), ErrorCode::kNotFound);
  // Idempotent: closing again reports the same first failure.
  EXPECT_EQ(out.Close().code(), ErrorCode::kNotFound);
  // The stream is sealed.
  EXPECT_TRUE(out.closed());
  EXPECT_EQ(out.Append(MakePatternBuffer(1, 1)).code(),
            ErrorCode::kFailedPrecondition);
  EXPECT_EQ(out.Flush().code(), ErrorCode::kFailedPrecondition);
}

TEST_F(DfsStreamTest, FirstWriteErrorLatchesAndFailsFast) {
  const Fd fd = OpenFile("/latch-error");
  DfsOutputStream out(dfs_.get(), fd, 512);
  ASSERT_TRUE(out.Append(MakePatternBuffer(100, 8)).ok());
  ASSERT_TRUE(dfs_->Close(fd).ok());
  // An Append large enough to force a flush hits the dead fd...
  EXPECT_EQ(out.Append(MakePatternBuffer(2048, 8)).code(),
            ErrorCode::kNotFound);
  // ...and every later operation fails fast with the SAME latched status
  // instead of writing out of order past the hole.
  EXPECT_EQ(out.Append(MakePatternBuffer(1, 8)).code(),
            ErrorCode::kNotFound);
  EXPECT_EQ(out.Flush().code(), ErrorCode::kNotFound);
  EXPECT_EQ(out.Close().code(), ErrorCode::kNotFound);
}

TEST_F(DfsStreamTest, CloseFlushesAndSucceedsOnHealthyStream) {
  const Fd fd = OpenFile("/clean-close");
  DfsOutputStream out(dfs_.get(), fd);
  ASSERT_TRUE(out.Append(MakePatternBuffer(512, 9)).ok());
  EXPECT_TRUE(out.Close().ok());
  EXPECT_TRUE(out.closed());
  Buffer back(512);
  auto n = dfs_->Read(fd, 0, back);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, 512u);
  EXPECT_EQ(VerifyPattern(back, 9, 0), -1);
}

TEST_F(DfsStreamTest, InputStreamReadsSequentiallyWithFewRefills) {
  const Fd fd = OpenFile("/reader");
  Buffer content = MakePatternBuffer(400'000, 5);
  ASSERT_TRUE(dfs_->Write(fd, 0, content).ok());

  DfsInputStream in(dfs_.get(), fd);  // 256 KiB readahead
  Buffer piece(1000);
  std::uint64_t pos = 0;
  while (true) {
    auto n = in.Read(piece);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    for (std::uint64_t i = 0; i < *n; ++i) {
      ASSERT_EQ(piece[i], content[pos + i]) << pos + i;
    }
    pos += *n;
  }
  EXPECT_EQ(pos, content.size());
  // 400 KB / 256 KiB window -> 2 refills, not 400.
  EXPECT_LE(in.refills(), 3u);
}

TEST_F(DfsStreamTest, InputStreamSeekAndEof) {
  const Fd fd = OpenFile("/seek");
  Buffer content = MakePatternBuffer(10'000, 6);
  ASSERT_TRUE(dfs_->Write(fd, 0, content).ok());
  DfsInputStream in(dfs_.get(), fd, 4096);
  in.Seek(9'000);
  Buffer tail(2'000);
  auto n = in.Read(tail);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 1'000u);  // clamped at EOF
  EXPECT_EQ(VerifyPattern(std::span<const std::byte>(tail.data(), 1000), 6,
                          9'000),
            -1);
  // Second read at EOF returns 0.
  auto eof = in.Read(tail);
  ASSERT_TRUE(eof.ok());
  EXPECT_EQ(*eof, 0u);
}

TEST_F(DfsStreamTest, RandomSizedAppendsMatchReference) {
  const Fd fd = OpenFile("/random-appends");
  Rng rng(99);
  Buffer reference;
  DfsOutputStream out(dfs_.get(), fd, 8192);
  for (int i = 0; i < 200; ++i) {
    Buffer piece = MakePatternBuffer(1 + rng.Below(5000), rng.Next());
    reference.insert(reference.end(), piece.begin(), piece.end());
    ASSERT_TRUE(out.Append(piece).ok());
  }
  ASSERT_TRUE(out.Flush().ok());
  Buffer all(reference.size());
  auto n = dfs_->Read(fd, 0, all);
  ASSERT_TRUE(n.ok());
  ASSERT_EQ(*n, reference.size());
  EXPECT_EQ(all, reference);
}

}  // namespace
}  // namespace ros2::dfs
