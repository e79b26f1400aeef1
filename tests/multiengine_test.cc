// Scale-out pool tests: one DAOS client spanning several engines, with
// replication and failure injection (the paper's §5 "broaden device
// counts" follow-up, plus DAOS-style redundancy semantics).
#include <gtest/gtest.h>

#include <algorithm>

#include "common/bytes.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/placement.h"
#include "dfs/dfs.h"

namespace ros2::daos {
namespace {

class MultiEngineTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  static constexpr int kEngines = 3;

  void SetUp() override {
    ClusterSpec spec;
    spec.engines = kEngines;
    spec.engine.address = "fabric://engine";
    spec.engine.targets = 4;
    spec.engine.scm_per_target = 16 * kMiB;
    auto cluster = Cluster::Boot(spec);
    ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
    cluster_ = std::move(*cluster);
    engines_ = cluster_->engines();
  }

  Result<std::unique_ptr<DaosClient>> Connect(std::uint32_t replicas,
                                              const std::string& address) {
    DaosClient::ConnectOptions options;
    options.transport = GetParam();
    options.client_address = address;
    options.replicas = replicas;
    return cluster_->Connect(options);
  }

  std::unique_ptr<Cluster> cluster_;
  std::span<DaosEngine* const> engines_;
};

TEST_P(MultiEngineTest, RoundTripAcrossEngines) {
  auto client = Connect(1, "fabric://c1");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->engine_count(), 3u);
  auto cont = (*client)->ContainerCreate("c");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  // Many dkeys: every engine should end up holding some.
  for (int i = 0; i < 48; ++i) {
    Buffer data = MakePatternBuffer(1024, std::uint64_t(i));
    ASSERT_TRUE((*client)
                    ->Update(*cont, *oid, "k" + std::to_string(i), "a", 0,
                             data)
                    .ok());
  }
  for (int i = 0; i < 48; ++i) {
    Buffer out(1024);
    ASSERT_TRUE(
        (*client)->Fetch(*cont, *oid, "k" + std::to_string(i), "a", 0, out)
            .ok());
    EXPECT_EQ(VerifyPattern(out, std::uint64_t(i), 0), -1) << i;
  }
  int populated = 0;
  for (auto& engine : engines_) {
    std::uint64_t updates = engine->updates();
    if (updates > 0) ++populated;
  }
  EXPECT_EQ(populated, kEngines) << "placement failed to spread dkeys";

  auto dkeys = (*client)->ListEntriesPage(*cont, *oid, "", "", 0);
  ASSERT_TRUE(dkeys.ok());
  EXPECT_EQ(dkeys->entries.size(), 48u);
}

TEST_P(MultiEngineTest, ReplicationSurvivesEngineFailure) {
  auto client = Connect(/*replicas=*/2, "fabric://c2");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto cont = (*client)->ContainerCreate("c");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  Buffer data = MakePatternBuffer(64 * 1024, 7);
  ASSERT_TRUE((*client)->Update(*cont, *oid, "dk", "a", 0, data).ok());

  // Take each engine down in turn; the read must survive every single
  // failure (2 replicas tolerate 1 fault).
  for (std::uint32_t down = 0; down < kEngines; ++down) {
    ASSERT_TRUE((*client)->SetEngineDown(down, true).ok());
    Buffer out(data.size());
    ASSERT_TRUE((*client)->Fetch(*cont, *oid, "dk", "a", 0, out).ok())
        << "engine " << down << " down";
    EXPECT_EQ(out, data);
    ASSERT_TRUE((*client)->SetEngineDown(down, false).ok());
  }
}

TEST_P(MultiEngineTest, ClientConnectsToADegradedPool) {
  // Map state is routing policy, not reachability: a client joining while
  // engine 1 is DOWN still handshakes with it, then degrades its writes
  // onto the journal and fails its HEAD reads over.
  auto healthy = Connect(/*replicas=*/2, "fabric://c-healthy");
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  auto cont = (*healthy)->ContainerCreate("c");  // strict: needs every engine
  ASSERT_TRUE(cont.ok());
  auto oid = (*healthy)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  constexpr std::uint32_t kDown = 1;
  PoolMap* map = cluster_->pool_map();
  ASSERT_TRUE(map->SetState(kDown, EngineState::kDown).ok());

  auto client = Connect(/*replicas=*/2, "fabric://c-degraded");
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ((*client)->pool_targets(), 4u);
  std::size_t owed = 0;  // dkeys whose two-engine ring holds kDown
  for (int i = 0; i < 24; ++i) {
    const std::string dkey = "k" + std::to_string(i);
    const std::uint32_t primary = PlaceEngine(*oid, dkey, kEngines);
    if (primary == kDown || (primary + 1) % kEngines == kDown) ++owed;
    Buffer data = MakePatternBuffer(512, std::uint64_t(i));
    ASSERT_TRUE((*client)->Update(*cont, *oid, dkey, "a", 0, data).ok())
        << dkey;
  }
  ASSERT_GT(owed, 0u);
  EXPECT_EQ(map->journal().depth(kDown), owed);
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    if (e != kDown) {
      EXPECT_EQ(map->journal().depth(e), 0u) << e;
    }
  }
  for (int i = 0; i < 24; ++i) {
    Buffer out(512);
    ASSERT_TRUE((*client)
                    ->Fetch(*cont, *oid, "k" + std::to_string(i), "a", 0, out)
                    .ok())
        << i;
    EXPECT_EQ(VerifyPattern(out, std::uint64_t(i), 0), -1) << i;
  }
}

TEST_P(MultiEngineTest, UnreplicatedDataUnavailableWhenEngineDown) {
  auto client = Connect(/*replicas=*/1, "fabric://c3");
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("c");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  Buffer data = MakePatternBuffer(4096, 3);
  ASSERT_TRUE((*client)->Update(*cont, *oid, "dk", "a", 0, data).ok());

  // Find the engine holding "dk" by knocking them out one at a time.
  int owner = -1;
  for (std::uint32_t down = 0; down < kEngines; ++down) {
    ASSERT_TRUE((*client)->SetEngineDown(down, true).ok());
    Buffer out(data.size());
    const Status status =
        (*client)->Fetch(*cont, *oid, "dk", "a", 0, out);
    if (!status.ok()) {
      EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
      owner = int(down);
    }
    ASSERT_TRUE((*client)->SetEngineDown(down, false).ok());
  }
  EXPECT_NE(owner, -1) << "some engine must own the only copy";
}

TEST_P(MultiEngineTest, DegradedWriteSucceedsAndJournalsMiss) {
  auto client = Connect(/*replicas=*/3, "fabric://c4");
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("c");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  ASSERT_TRUE((*client)->SetEngineDown(1, true).ok());
  Buffer data = MakePatternBuffer(128, 11);
  // With 3-way replication every engine is a replica; the DOWN engine's
  // copy is skipped, the write lands on the survivors, and the miss is
  // journaled for the rebuild task.
  ASSERT_TRUE((*client)->Update(*cont, *oid, "dk", "a", 0, data).ok());
  PoolMap* map = (*client)->pool_map();
  ASSERT_NE(map, nullptr);
  EXPECT_EQ(map->journal().depth(1), 1u);
  EXPECT_GE(map->journal().recorded(), 1u);
  // Survivors serve the read while engine 1 stays down.
  Buffer out(data.size());
  ASSERT_TRUE((*client)->Fetch(*cont, *oid, "dk", "a", 0, out).ok());
  EXPECT_EQ(out, data);
}

TEST_P(MultiEngineTest, WriteFailsWhenNoReplicaWritable) {
  auto client = Connect(/*replicas=*/3, "fabric://c4b");
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("c");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    ASSERT_TRUE((*client)->SetEngineDown(e, true).ok());
  }
  Buffer data(128);
  // Zero landed copies is a hard failure — degraded mode needs at least
  // one survivor.
  const Status status =
      (*client)->Update(*cont, *oid, "dk", "a", 0, data).status();
  EXPECT_EQ(status.code(), ErrorCode::kUnavailable);
  EXPECT_NE(status.message().find("no writable replica"),
            std::string::npos)
      << status.ToString();
}

TEST_P(MultiEngineTest, SnapshotReadsPinToPrimary) {
  auto client = Connect(/*replicas=*/2, "fabric://c5");
  ASSERT_TRUE(client.ok());
  DaosClient& c = **client;
  auto cont = c.ContainerCreate("c");
  ASSERT_TRUE(cont.ok());
  auto oid = c.AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  Buffer v1 = MakePatternBuffer(256, 1);
  Buffer v2 = MakePatternBuffer(256, 2);
  auto e1 = c.Update(*cont, *oid, "dk", "a", 0, v1);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(c.Update(*cont, *oid, "dk", "a", 0, v2).ok());
  Buffer s1 = MakePatternBuffer(32, 3);
  Buffer s2 = MakePatternBuffer(32, 4);
  auto es1 = c.UpdateSingle(*cont, *oid, "dk", "s", s1);
  ASSERT_TRUE(es1.ok());
  ASSERT_TRUE(c.UpdateSingle(*cont, *oid, "dk", "s", s2).ok());

  // Every read entry point, at a snapshot epoch or at HEAD.
  Buffer out(256);
  auto fetch_batch = [&](Epoch epoch) {
    DaosClient::FetchOp op;
    op.cont = *cont;
    op.oid = *oid;
    op.dkey = "dk";
    op.akey = "a";
    op.out = out;
    op.epoch = epoch;
    return c.FetchBatch(std::span(&op, 1));
  };

  ASSERT_TRUE(c.Fetch(*cont, *oid, "dk", "a", 0, out, *e1).ok());
  EXPECT_EQ(out, v1);
  ASSERT_TRUE(fetch_batch(*e1).ok());
  EXPECT_EQ(out, v1);
  EXPECT_EQ(c.FetchSingle(*cont, *oid, "dk", "s", *es1).value_or({}), s1);
  EXPECT_EQ(c.ArraySize(*cont, *oid, "dk", "a", *e1).value_or(0), 256u);
  ASSERT_TRUE(c.Fetch(*cont, *oid, "dk", "a", 0, out).ok());
  EXPECT_EQ(out, v2);

  // Primary DOWN: a snapshot read cannot fail over (epochs are
  // per-engine), on any entry point; HEAD reads fail over to the replica.
  const std::uint32_t primary = PlaceEngine(*oid, "dk", kEngines);
  ASSERT_TRUE(c.SetEngineDown(primary, true).ok());
  EXPECT_EQ(c.Fetch(*cont, *oid, "dk", "a", 0, out, *e1).code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(fetch_batch(*e1).code(), ErrorCode::kUnavailable);
  EXPECT_EQ(c.FetchSingle(*cont, *oid, "dk", "s", *es1).status().code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(c.ArraySize(*cont, *oid, "dk", "a", *e1).status().code(),
            ErrorCode::kUnavailable);

  std::fill(out.begin(), out.end(), std::byte{0});
  ASSERT_TRUE(c.Fetch(*cont, *oid, "dk", "a", 0, out).ok());
  EXPECT_EQ(out, v2);
  std::fill(out.begin(), out.end(), std::byte{0});
  ASSERT_TRUE(fetch_batch(kEpochHead).ok());
  EXPECT_EQ(out, v2);
  EXPECT_EQ(c.FetchSingle(*cont, *oid, "dk", "s").value_or({}), s2);
  EXPECT_EQ(c.ArraySize(*cont, *oid, "dk", "a").value_or(0), 256u);
}

TEST_P(MultiEngineTest, ListingWithAnUnreadableEngineFailsInsteadOfDropping) {
  // Unreplicated pool, the only copy of a directory entry on a DOWN
  // engine: the listing must fail, not come back without that entry — or
  // DFS would unlink the non-empty directory as empty and orphan it.
  auto client = Connect(/*replicas=*/1, "fabric://c8");
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("posix");
  ASSERT_TRUE(cont.ok());
  auto dfs = dfs::Dfs::Mount(client->get(), *cont, /*create=*/true);
  ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
  ASSERT_TRUE((*dfs)->Mkdir("/d").ok());
  auto root = (*dfs)->Stat("/");
  auto dir = (*dfs)->Stat("/d");
  ASSERT_TRUE(root.ok() && dir.ok());
  // A child whose entry lives on another engine than the "d" entry, so
  // the directory itself stays resolvable with the owner DOWN.
  const std::uint32_t dir_engine = PlaceEngine(root->oid, "d", kEngines);
  std::string name;
  std::uint32_t owner = dir_engine;
  for (int i = 0; owner == dir_engine; ++i) {
    name = "f" + std::to_string(i);
    owner = PlaceEngine(dir->oid, name, kEngines);
  }
  dfs::OpenFlags flags;
  flags.create = true;
  auto fd = (*dfs)->Open("/d/" + name, flags);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE((*dfs)->Close(*fd).ok());

  ASSERT_TRUE((*client)->SetEngineDown(owner, true).ok());
  EXPECT_EQ((*client)->ListEntriesPage(*cont, dir->oid, "", "", 0)
                .status()
                .code(),
            ErrorCode::kUnavailable);
  EXPECT_FALSE((*dfs)->Unlink("/d").ok());
  ASSERT_TRUE((*client)->SetEngineDown(owner, false).ok());

  // Nothing was deleted.
  EXPECT_TRUE((*dfs)->Stat("/d").ok());
  auto entries = (*dfs)->Readdir("/d");
  ASSERT_TRUE(entries.ok()) << entries.status().ToString();
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, name);
}

TEST_P(MultiEngineTest, ReplicatedListingIsCompleteWithAnEngineDown) {
  auto client = Connect(/*replicas=*/2, "fabric://c9");
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("c");
  ASSERT_TRUE(cont.ok());
  auto oid = (*client)->AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  Buffer data = MakePatternBuffer(64, 5);
  for (int i = 0; i < 48; ++i) {
    ASSERT_TRUE((*client)
                    ->Update(*cont, *oid, "k" + std::to_string(i), "a", 0,
                             data)
                    .ok());
  }
  for (std::uint32_t down = 0; down < kEngines; ++down) {
    ASSERT_TRUE((*client)->SetEngineDown(down, true).ok());
    auto dkeys = (*client)->ListEntriesPage(*cont, *oid, "", "", 0);
    ASSERT_TRUE(dkeys.ok()) << dkeys.status().ToString();
    EXPECT_EQ(dkeys->entries.size(), 48u) << "engine " << down << " down";
    ASSERT_TRUE((*client)->SetEngineDown(down, false).ok());
  }
}

TEST_P(MultiEngineTest, ReplicatedReaddirMatchesStatWithThePrimaryDown) {
  // Every entry a listing returns is the record a Stat of it reads, with
  // an entry's primary DOWN (its replica answers) and after the primary
  // comes back UP stale (it answers again, with what it holds).
  auto client = Connect(/*replicas=*/2, "fabric://c10");
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("posix");
  ASSERT_TRUE(cont.ok());
  auto dfs = dfs::Dfs::Mount(client->get(), *cont, /*create=*/true);
  ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
  dfs::DfsConfig uncached_config;
  uncached_config.lookup_cache_entries = 0;
  auto uncached = dfs::Dfs::Mount(client->get(), *cont, /*create=*/false,
                                  uncached_config);
  ASSERT_TRUE(uncached.ok()) << uncached.status().ToString();
  auto listing_matches_stat = [&](const std::string& dir,
                                  std::size_t entries) {
    auto listed = (*dfs)->Readdir(dir);
    ASSERT_TRUE(listed.ok()) << listed.status().ToString();
    EXPECT_EQ(listed->size(), entries) << dir;
    for (const dfs::DirEntry& entry : *listed) {
      auto stat = (*uncached)->Stat(dir + "/" + entry.name);
      ASSERT_TRUE(stat.ok()) << entry.name << ": " << stat.status().ToString();
      EXPECT_EQ(stat->type, entry.type) << dir << "/" << entry.name;
    }
  };
  dfs::OpenFlags create;
  create.create = true;
  for (std::uint32_t down = 0; down < kEngines; ++down) {
    const std::string dir = "/d" + std::to_string(down);
    ASSERT_TRUE((*dfs)->Mkdir(dir).ok());
    ASSERT_TRUE((*dfs)->Mkdir(dir + "/sub").ok());
    for (int i = 0; i < 24; ++i) {
      auto fd = (*dfs)->Open(dir + "/f" + std::to_string(i), create);
      ASSERT_TRUE(fd.ok());
      ASSERT_TRUE((*dfs)->Close(*fd).ok());
    }
    auto dir_stat = (*dfs)->Stat(dir);
    ASSERT_TRUE(dir_stat.ok());
    std::string victim;  // a file whose primary is the engine taken down
    for (int i = 0; i < 24 && victim.empty(); ++i) {
      const std::string name = "f" + std::to_string(i);
      if (PlaceEngine(dir_stat->oid, name, kEngines) == down) victim = name;
    }
    ASSERT_FALSE(victim.empty());

    ASSERT_TRUE((*client)->SetEngineDown(down, true).ok());
    listing_matches_stat(dir, 25);
    // Replace the file with the subdirectory while its primary is DOWN:
    // the replica now holds a directory record, the primary a file one.
    ASSERT_TRUE((*dfs)->Rename(dir + "/sub", dir + "/" + victim).ok());
    listing_matches_stat(dir, 24);
    ASSERT_TRUE((*client)->SetEngineDown(down, false).ok());
    // Back UP without a resync: reads of the victim go to its stale
    // primary again, for the listing and for Stat alike.
    auto listed = (*dfs)->Readdir(dir);
    ASSERT_TRUE(listed.ok());
    listing_matches_stat(dir, listed->size());
  }
}

TEST_P(MultiEngineTest, ListEntriesDropsNamesPunchedOnTheirReadEngine) {
  // Names punched while their second replica was DOWN stay live on that
  // stale replica. A listing keeps a name only with the value of the
  // engine a HEAD read goes to, so it shows exactly the names FetchSingle
  // finds; a limit-1 walk lists each once, moving past pages whose only
  // name was dropped.
  auto client = Connect(/*replicas=*/2, "fabric://c11");
  ASSERT_TRUE(client.ok());
  DaosClient& c = **client;
  auto cont = c.ContainerCreate("c");
  ASSERT_TRUE(cont.ok());
  auto oid = c.AllocOid(*cont);
  ASSERT_TRUE(oid.ok());
  auto name_of = [](int i) {
    return std::string(1, char('a' + i / 10)) + std::to_string(i % 10);
  };
  for (int i = 0; i < 30; ++i) {
    const std::string name = name_of(i);
    ASSERT_TRUE(c.UpdateSingle(*cont, *oid, name, "e",
                               MakePatternBuffer(8 + i, std::uint64_t(i)))
                    .ok());
  }
  // Engine 1 is the second replica of every name whose primary is 0.
  ASSERT_TRUE(c.SetEngineDown(1, true).ok());
  int punched = 0;
  for (int i = 0; i < 30; ++i) {
    if (PlaceEngine(*oid, name_of(i), kEngines) != 0 || i % 3 == 2) continue;
    ASSERT_TRUE(c.PunchDkey(*cont, *oid, name_of(i)).ok());
    ++punched;
  }
  ASSERT_GT(punched, 1);
  ASSERT_TRUE(c.SetEngineDown(1, false).ok());

  std::vector<std::pair<std::string, Buffer>> expected;
  for (int i = 0; i < 30; ++i) {
    auto value = c.FetchSingle(*cont, *oid, name_of(i), "e");
    if (value.ok()) expected.emplace_back(name_of(i), std::move(*value));
  }
  ASSERT_EQ(expected.size(), std::size_t(30 - punched));

  auto whole = c.ListEntriesPage(*cont, *oid, "e", "", 0);
  ASSERT_TRUE(whole.ok()) << whole.status().ToString();
  EXPECT_FALSE(whole->more);
  ASSERT_EQ(whole->entries.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(whole->entries[i].dkey, expected[i].first);
    EXPECT_EQ(whole->entries[i].value, expected[i].second) << i;
  }

  std::vector<std::string> walked;
  std::string marker;
  int empty_pages = 0;
  for (int pages = 0;; ++pages) {
    ASSERT_LE(pages, 30) << "the walk does not terminate";
    auto page = c.ListEntriesPage(*cont, *oid, "e", marker, 1);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_LE(page->entries.size(), 1u);
    if (page->entries.empty()) ++empty_pages;
    for (const auto& entry : page->entries) walked.push_back(entry.dkey);
    if (!page->more) break;
    EXPECT_GT(page->next_marker, marker);
    marker = page->next_marker;
  }
  EXPECT_GT(empty_pages, 0) << "no page had its only name dropped";
  ASSERT_EQ(walked.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(walked[i], expected[i].first);
  }
}

TEST_P(MultiEngineTest, DfsRunsUnchangedOnScaleOutPool) {
  // The POSIX layer is oblivious to pool topology: mount DFS over a
  // replicated 3-engine pool, lose an engine, keep reading.
  auto client = Connect(/*replicas=*/2, "fabric://c6");
  ASSERT_TRUE(client.ok());
  auto cont = (*client)->ContainerCreate("posix");
  ASSERT_TRUE(cont.ok());
  auto dfs = dfs::Dfs::Mount(client->get(), *cont, /*create=*/true);
  ASSERT_TRUE(dfs.ok()) << dfs.status().ToString();
  dfs::OpenFlags flags;
  flags.create = true;
  auto fd = (*dfs)->Open("/survivor.bin", flags);
  ASSERT_TRUE(fd.ok());
  Buffer data = MakePatternBuffer(3 * kMiB, 9);  // spans several chunks
  ASSERT_TRUE((*dfs)->Write(*fd, 0, data).ok());

  ASSERT_TRUE((*client)->SetEngineDown(2, true).ok());
  Buffer out(data.size());
  auto n = (*dfs)->Read(*fd, 0, out);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, data.size());
  EXPECT_EQ(out, data);
  auto entries = (*dfs)->Readdir("/");
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ((*entries)[0].name, "survivor.bin");
}

TEST_P(MultiEngineTest, ReplicaCountValidated) {
  EXPECT_FALSE(Connect(0, "fabric://c7a").ok());
  EXPECT_FALSE(Connect(4, "fabric://c7b").ok());
}

INSTANTIATE_TEST_SUITE_P(Transports, MultiEngineTest,
                         ::testing::Values(net::Transport::kTcp,
                                           net::Transport::kRdma),
                         [](const auto& info) {
                           return std::string(
                               perf::TransportName(info.param));
                         });

// --- the cluster fixture's own rules ------------------------------------

TEST(ClusterTest, BadSpecIsInvalidArgumentNotAnAbort) {
  ClusterSpec spec;
  spec.engines = 0;
  EXPECT_EQ(Cluster::Boot(spec).status().code(), ErrorCode::kInvalidArgument);
  spec.engines = 1;
  spec.engine.targets = 0;
  EXPECT_EQ(Cluster::Boot(spec).status().code(), ErrorCode::kInvalidArgument);
  spec.engine.targets = 1;
  spec.ssds_per_engine = 0;
  EXPECT_EQ(Cluster::Boot(spec).status().code(), ErrorCode::kInvalidArgument);
}

TEST(ClusterTest, ClientsAndRebuildManagerShareOnePoolMap) {
  ClusterSpec spec;
  spec.engines = 3;
  spec.engine.targets = 2;
  spec.engine.scm_per_target = 8 * kMiB;
  auto cluster = Cluster::Boot(spec);
  ASSERT_TRUE(cluster.ok()) << cluster.status().ToString();
  DaosClient::ConnectOptions options;
  options.client_address = "fabric://share-a";
  auto a = (*cluster)->Connect(options);
  options.client_address = "fabric://share-b";
  auto b = (*cluster)->Connect(options);
  auto mgr = (*cluster)->NewRebuildManager({});
  ASSERT_TRUE(a.ok() && b.ok() && mgr.ok());
  // Before the failure the manager sees engine 1 UP: nothing to rebuild.
  EXPECT_EQ((*mgr)->Rebuild(1).code(), ErrorCode::kFailedPrecondition);

  ASSERT_TRUE((*a)->SetEngineDown(1, true).ok());
  EXPECT_EQ((*b)->pool_map(), (*a)->pool_map());
  EXPECT_EQ((*b)->pool_map()->state(1), EngineState::kDown);
  // The manager sees the DOWN set through client a, and its UP is seen by
  // both clients.
  ASSERT_TRUE((*mgr)->Rebuild(1).ok());
  EXPECT_EQ((*a)->pool_map()->state(1), EngineState::kUp);
  EXPECT_EQ((*b)->pool_map()->state(1), EngineState::kUp);
}

}  // namespace
}  // namespace ros2::daos
