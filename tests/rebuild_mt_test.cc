// Rebuild under concurrent foreground traffic (the TSan-gated suite):
// three threaded engines (real xstream workers + progress threads), a
// writer thread hammering degraded writes while the rebuild manager
// re-silvers the victim from another thread. Correctness bar: zero
// failed reads, every degraded write succeeds, and after rebuild +
// straggler resync the victim alone serves byte-exact data.
#include "daos/rebuild.h"

#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/placement.h"

namespace ros2::daos {
namespace {

class RebuildMtTest : public ::testing::Test {
 protected:
  static constexpr std::uint32_t kEngines = 3;
  static constexpr std::uint32_t kReplicas = 2;
  static constexpr std::uint32_t kVictim = 1;

  void SetUp() override {
    ClusterSpec spec;
    spec.engines = kEngines;
    spec.engine.address = "fabric://rebuild-mt-engine";
    spec.engine.targets = 4;
    spec.engine.scm_per_target = 16 * kMiB;
    spec.engine.xstream_workers = true;
    spec.progress_threads = true;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    map_ = cluster_->pool_map();
  }

  /// A pumpless client (the engines' progress threads serve it), safe to
  /// own per thread.
  std::unique_ptr<DaosClient> NewClient(const std::string& name) {
    DaosClient::ConnectOptions options;
    options.client_address = "fabric://rebuild-mt-" + name;
    options.replicas = kReplicas;
    auto client = cluster_->Connect(options);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return client.ok() ? std::move(*client) : nullptr;
  }

  std::unique_ptr<Cluster> cluster_;
  PoolMap* map_ = nullptr;
};

TEST_F(RebuildMtTest, RebuildConvergesUnderConcurrentWrites) {
  auto setup = NewClient("setup");
  ASSERT_NE(setup, nullptr);
  auto cont = setup->ContainerCreate("mt");
  ASSERT_TRUE(cont.ok());
  auto oid = setup->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());

  // Seed data the victim will have to re-silver via the bulk scan.
  constexpr int kSeeded = 32;
  std::map<std::string, std::uint64_t> last_seed;
  for (int i = 0; i < kSeeded; ++i) {
    const std::string dkey = "seed" + std::to_string(i);
    ASSERT_TRUE(setup
                    ->Update(*cont, *oid, dkey, "a", 0,
                             MakePatternBuffer(1024, std::uint64_t(i) + 1))
                    .ok());
    last_seed[dkey] = std::uint64_t(i) + 1;
  }

  // Clients dial in while the pool is healthy (PoolConnect is metadata —
  // no degraded mode), then the victim dies and the writer + reader keep
  // running concurrently with the rebuild. The writer loops over a
  // bounded dkey set so the final expected bytes are the last pattern it
  // wrote to each.
  auto writer_client = NewClient("writer");
  auto reader_client = NewClient("reader");
  auto verify = NewClient("verify");
  ASSERT_NE(writer_client, nullptr);
  ASSERT_NE(reader_client, nullptr);
  ASSERT_NE(verify, nullptr);
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kDown).ok());
  std::atomic<bool> stop_writer{false};
  std::atomic<bool> stop_reader{false};
  std::atomic<bool> writer_ok{true};
  std::atomic<bool> reader_ok{true};
  std::atomic<std::uint64_t> writes{0};
  std::atomic<std::uint64_t> reads{0};

  std::thread writer([&] {
    DaosClient* client = writer_client.get();
    constexpr int kHot = 16;
    std::uint64_t round = 0;
    while (!stop_writer.load(std::memory_order_acquire)) {
      ++round;
      for (int i = 0; i < kHot; ++i) {
        const std::string dkey = "hot" + std::to_string(i);
        const std::uint64_t seed = round * 1000 + std::uint64_t(i);
        if (!client
                 ->Update(*cont, *oid, dkey, "a", 0,
                          MakePatternBuffer(1024, seed))
                 .ok()) {
          writer_ok.store(false);
          return;
        }
        writes.fetch_add(1, std::memory_order_relaxed);
      }
    }
    // Record the final content for post-rebuild verification.
    for (int i = 0; i < kHot; ++i) {
      last_seed["hot" + std::to_string(i)] =
          round * 1000 + std::uint64_t(i);
    }
  });

  std::thread reader([&] {
    DaosClient* client = reader_client.get();
    Buffer out(1024);
    while (!stop_reader.load(std::memory_order_acquire)) {
      for (int i = 0;
           i < kSeeded && !stop_reader.load(std::memory_order_acquire);
           ++i) {
        const std::string dkey = "seed" + std::to_string(i);
        if (!client->Fetch(*cont, *oid, dkey, "a", 0, out).ok()) {
          reader_ok.store(false);  // zero failed reads, ever
          return;
        }
        reads.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  // Let degraded traffic build up a journal, then rebuild while both
  // threads keep running.
  while (writes.load(std::memory_order_relaxed) < 64 &&
         writer_ok.load(std::memory_order_acquire)) {
    std::this_thread::yield();
  }
  DaosClient::ConnectOptions ropts;
  ropts.client_address = "fabric://rebuild-mt-mgr";
  ropts.replicas = kReplicas;
  auto mgr = cluster_->NewRebuildManager(ropts);
  ASSERT_TRUE(mgr.ok()) << mgr.status().ToString();
  // The rebuild runs concurrently with live traffic through its scan +
  // re-silver phase; once it is under way the writer quiesces so the
  // journal-drain loop can terminate. (A sustained hot-key writer can
  // legitimately starve the quiesce check forever: every write landing
  // on the REBUILDING engine re-journals post-completion — the two-mark
  // rule — so each drain pass finds the hot dkeys again. Reads keep
  // running to the end: zero failures, ever.)
  Status rebuilt;
  std::atomic<bool> rebuild_done{false};
  std::thread rebuilder([&] {
    rebuilt = (*mgr)->Rebuild(kVictim);
    rebuild_done.store(true, std::memory_order_release);
  });
  const std::uint64_t mark = writes.load(std::memory_order_relaxed);
  while (!rebuild_done.load(std::memory_order_acquire) &&
         writer_ok.load(std::memory_order_acquire) &&
         (map_->state(kVictim) == EngineState::kDown ||
          writes.load(std::memory_order_relaxed) < mark + 32)) {
    std::this_thread::yield();
  }
  stop_writer.store(true, std::memory_order_release);
  writer.join();
  rebuilder.join();
  stop_reader.store(true, std::memory_order_release);
  reader.join();
  ASSERT_TRUE(writer_ok.load()) << "a degraded write failed";
  ASSERT_TRUE(reader_ok.load()) << "a foreground read failed";
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.ToString();
  EXPECT_EQ(map_->state(kVictim), EngineState::kUp);
  EXPECT_GT((*mgr)->dkeys_scanned(kVictim), 0u);
  EXPECT_GT((*mgr)->bytes_copied(kVictim), 0u);

  // Traffic has quiesced: one straggler sweep clears writes that raced
  // the UP transition, then the victim alone must serve its share.
  ASSERT_TRUE((*mgr)->Resync(kVictim).ok());
  EXPECT_EQ(map_->journal().depth(kVictim), 0u);

  for (std::uint32_t e = 0; e < kEngines; ++e) {
    if (e != kVictim) {
      ASSERT_TRUE(map_->SetState(e, EngineState::kDown).ok());
    }
  }
  for (const auto& [dkey, seed] : last_seed) {
    const std::uint32_t primary = PlaceEngine(*oid, dkey, kEngines);
    bool owed = false;
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      if ((primary + r) % kEngines == kVictim) owed = true;
    }
    if (!owed) continue;
    Buffer out(1024);
    ASSERT_TRUE(verify->Fetch(*cont, *oid, dkey, "a", 0, out).ok())
        << dkey << " unreadable from the rebuilt engine alone";
    EXPECT_EQ(out, MakePatternBuffer(1024, seed))
        << dkey << " diverged on the rebuilt engine";
  }
  EXPECT_GT(reads.load(), 0u);
}

TEST_F(RebuildMtTest, ConcurrentDegradedWritersJournalSafely) {
  // Several writers degrade around the same DOWN engine at once: the
  // journal (mutex-guarded, deduplicated) and the sharded counters must
  // stay consistent — this is the TSan meat.
  auto setup = NewClient("setup2");
  ASSERT_NE(setup, nullptr);
  auto cont = setup->ContainerCreate("mt2");
  ASSERT_TRUE(cont.ok());
  auto oid = setup->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());

  constexpr int kWriters = 3;
  constexpr int kPerWriter = 48;
  std::vector<std::unique_ptr<DaosClient>> clients;
  for (int w = 0; w < kWriters; ++w) {
    clients.push_back(NewClient("w" + std::to_string(w)));
    ASSERT_NE(clients.back(), nullptr);
  }
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kDown).ok());

  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      DaosClient* client = clients[std::size_t(w)].get();
      for (int i = 0; i < kPerWriter; ++i) {
        const std::string dkey =
            "w" + std::to_string(w) + "-" + std::to_string(i);
        if (!client
                 ->Update(*cont, *oid, dkey, "a", 0,
                          MakePatternBuffer(256, std::uint64_t(i) + 1))
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  // Every dkey owed to the victim journaled exactly once (dedup holds
  // under contention); none of the others did.
  std::size_t expected = 0;
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kPerWriter; ++i) {
      const std::string dkey =
          "w" + std::to_string(w) + "-" + std::to_string(i);
      const std::uint32_t primary = PlaceEngine(*oid, dkey, kEngines);
      for (std::uint32_t r = 0; r < kReplicas; ++r) {
        if ((primary + r) % kEngines == kVictim) {
          ++expected;
          break;
        }
      }
    }
  }
  EXPECT_EQ(map_->journal().depth(kVictim), expected);
  ASSERT_TRUE(map_->SetState(kVictim, EngineState::kUp).ok());
}

}  // namespace
}  // namespace ros2::daos
