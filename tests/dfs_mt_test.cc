// Concurrent DFS traffic (TSan-gated suite): one threaded engine (real
// xstream workers + progress thread) serving several client threads,
// each with its own pumpless DaosClient and its own mount of the SAME
// container. Cross-thread interleavings land on shared engine state —
// the root directory object, per-target schedulers, the poll set — and
// every byte must still verify after the threads join.
//
// Worker threads never touch gtest assertions (minigtest's failure
// recording is main-thread-only, like rebuild_mt_test): each thread
// reports into its own pre-sized error slot, checked after join.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "dfs/dfs.h"

namespace ros2::dfs {
namespace {

constexpr std::uint64_t kChunk = 16 * kKiB;
constexpr int kThreads = 4;

class DfsMtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    daos::ClusterSpec spec;
    spec.engine.address = "fabric://dfs-mt-engine";
    spec.engine.targets = 8;
    spec.engine.scm_per_target = 16 * kMiB;
    spec.engine.xstream_workers = true;
    spec.progress_threads = true;
    auto cluster = daos::Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);

    auto setup = NewClient("setup");
    ASSERT_NE(setup, nullptr);
    auto cont = setup->ContainerCreate("mt");
    ASSERT_TRUE(cont.ok());
    cont_ = *cont;
    // Format the namespace once; every thread opens it with create=false.
    DfsConfig dconfig;
    dconfig.chunk_size = kChunk;
    auto dfs = Dfs::Mount(setup.get(), cont_, /*create=*/true, dconfig);
    ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
  }

  /// A pumpless client (the engine's progress thread serves it), safe to
  /// own per thread. Main-thread only (uses EXPECT).
  std::unique_ptr<daos::DaosClient> NewClient(const std::string& name) {
    daos::DaosClient::ConnectOptions options;
    options.client_address = "fabric://dfs-mt-" + name;
    auto client = cluster_->Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  /// Opens the shared namespace through `client`. Assertion-free, so
  /// worker threads may call it; nullptr on failure.
  std::unique_ptr<Dfs> OpenMount(daos::DaosClient* client) {
    DfsConfig config;
    config.chunk_size = kChunk;
    auto dfs = Dfs::Mount(client, cont_, /*create=*/false, config);
    return dfs.ok() ? std::move(*dfs) : nullptr;
  }

  static std::uint64_t FileSeed(int thread, int file) {
    return std::uint64_t(thread) * 100 + std::uint64_t(file) + 1;
  }

  std::unique_ptr<daos::Cluster> cluster_;
  daos::ContainerId cont_;
};

TEST_F(DfsMtTest, ConcurrentMountsReadAndWriteOneNamespace) {
  // Each thread works in its own directory: Mkdir on the shared root,
  // multi-chunk batched writes, reads of its own files, and listings —
  // all concurrently against one engine.
  constexpr int kFiles = 5;
  const std::uint64_t file_bytes = 3 * kChunk + 123;

  std::vector<std::unique_ptr<daos::DaosClient>> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.push_back(NewClient("w" + std::to_string(t)));
    ASSERT_NE(clients.back(), nullptr);
  }
  std::vector<std::string> errors(kThreads);  // one slot per thread
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string& error = errors[std::size_t(t)];
      auto dfs = OpenMount(clients[std::size_t(t)].get());
      if (dfs == nullptr) {
        error = "mount failed";
        return;
      }
      const std::string dir = "/t" + std::to_string(t);
      if (!dfs->Mkdir(dir).ok()) {
        error = "mkdir failed";
        return;
      }
      for (int f = 0; f < kFiles; ++f) {
        const std::string path = dir + "/f" + std::to_string(f);
        OpenFlags create;
        create.create = true;
        auto fd = dfs->Open(path, create);
        if (!fd.ok()) {
          error = "open failed: " + path;
          return;
        }
        Buffer data = MakePatternBuffer(file_bytes, FileSeed(t, f));
        if (!dfs->Write(*fd, 0, data).ok()) {
          error = "write failed: " + path;
          return;
        }
        Buffer out(file_bytes);
        auto n = dfs->Read(*fd, 0, out);
        if (!n.ok() || *n != file_bytes || out != data) {
          error = "readback diverged: " + path;
          return;
        }
        if (!dfs->Close(*fd).ok()) {
          error = "close failed: " + path;
          return;
        }
      }
      auto entries = dfs->Readdir(dir);
      if (!entries.ok() || entries->size() != std::size_t(kFiles)) {
        error = "own-directory listing wrong";
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_EQ(errors[std::size_t(t)], "") << "thread " << t;
  }

  // Quiesced: a fresh mount must see every thread's directory and every
  // byte, exactly as written.
  auto verify_client = NewClient("verify");
  ASSERT_NE(verify_client, nullptr);
  auto dfs = OpenMount(verify_client.get());
  ASSERT_NE(dfs, nullptr);
  auto root = dfs->Readdir("/");
  ASSERT_TRUE(root.ok());
  std::set<std::string> dirs;
  for (const auto& entry : *root) dirs.insert(entry.name);
  for (int t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(dirs.contains("t" + std::to_string(t))) << t;
  }
  for (int t = 0; t < kThreads; ++t) {
    for (int f = 0; f < kFiles; ++f) {
      const std::string path =
          "/t" + std::to_string(t) + "/f" + std::to_string(f);
      auto fd = dfs->Open(path, OpenFlags{});
      ASSERT_TRUE(fd.ok()) << path;
      Buffer out(file_bytes);
      auto n = dfs->Read(*fd, 0, out);
      ASSERT_TRUE(n.ok());
      ASSERT_EQ(*n, file_bytes) << path;
      EXPECT_EQ(out, MakePatternBuffer(file_bytes, FileSeed(t, f))) << path;
      ASSERT_TRUE(dfs->Close(*fd).ok());
    }
  }
}

TEST_F(DfsMtTest, ConcurrentCreatesInOneDirectory) {
  // All threads hammer the SAME directory object with entry inserts
  // while a reader pages through it — the entry dkeys, the dkey pager,
  // and the batched entry fetch all run under contention.
  auto setup = NewClient("mkdir");
  ASSERT_NE(setup, nullptr);
  {
    auto dfs = OpenMount(setup.get());
    ASSERT_NE(dfs, nullptr);
    ASSERT_TRUE(dfs->Mkdir("/shared").ok());
  }
  constexpr int kPerThread = 8;
  std::atomic<bool> stop_reader{false};
  std::vector<std::unique_ptr<daos::DaosClient>> clients;
  for (int t = 0; t < kThreads + 1; ++t) {
    clients.push_back(NewClient("c" + std::to_string(t)));
    ASSERT_NE(clients.back(), nullptr);
  }
  std::vector<std::string> errors(kThreads + 1);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      std::string& error = errors[std::size_t(t)];
      auto dfs = OpenMount(clients[std::size_t(t)].get());
      if (dfs == nullptr) {
        error = "mount failed";
        return;
      }
      for (int f = 0; f < kPerThread; ++f) {
        const std::string path =
            "/shared/t" + std::to_string(t) + "-" + std::to_string(f);
        OpenFlags create;
        create.create = true;
        auto fd = dfs->Open(path, create);
        if (!fd.ok() || !dfs->Write(*fd, 0, MakePatternBuffer(256, 1)).ok() ||
            !dfs->Close(*fd).ok()) {
          error = "create failed: " + path;
          return;
        }
      }
    });
  }
  std::thread reader([&] {
    std::string& error = errors[std::size_t(kThreads)];
    auto dfs = OpenMount(clients[std::size_t(kThreads)].get());
    if (dfs == nullptr) {
      error = "reader mount failed";
      return;
    }
    while (!stop_reader.load(std::memory_order_acquire)) {
      // Pages may catch the directory mid-growth; they must never fail
      // or repeat a name within one walk.
      ReaddirPage page;
      page.limit = 7;
      std::set<std::string> seen;
      for (;;) {
        auto result = dfs->Readdir("/shared", page);
        if (!result.ok()) {
          error = "paged readdir failed: " + result.status().ToString();
          return;
        }
        for (const auto& entry : result->entries) {
          if (!seen.insert(entry.name).second) {
            error = entry.name + " repeated within one walk";
            return;
          }
        }
        if (!result->more) break;
        page.marker = result->next_marker;
      }
    }
  });
  for (auto& t : threads) t.join();
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  for (std::size_t t = 0; t < errors.size(); ++t) {
    EXPECT_EQ(errors[t], "") << "thread " << t;
  }

  auto dfs = OpenMount(setup.get());
  ASSERT_NE(dfs, nullptr);
  auto entries = dfs->Readdir("/shared");
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), std::size_t(kThreads) * kPerThread);
}

}  // namespace
}  // namespace ros2::dfs
