// Telemetry subsystem: metric primitives (sharded counters, timestamps,
// sharded histograms, trace ring), the hierarchical tree
// (registration, links, callbacks, snapshot ordering/prefix), snapshot
// codecs (wire + JSON), concurrency (racing writers vs snapshots — the
// TSan stage runs this suite), and the engine end to end: the
// kTelemetryQuery control-plane RPC, stats-as-views, the per-request
// trace breakdown, and the published-after-Stop() snapshot.
#include "telemetry/metrics.h"

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "rpc/wire.h"
#include "telemetry/snapshot.h"

namespace ros2::telemetry {
namespace {

TEST(CounterTest, FoldsShards) {
  Counter c(4);
  EXPECT_EQ(c.shards(), 4u);
  c.Add(1, 0);
  c.Add(10, 1);
  c.Add(100, 2);
  c.Add(1000, 3);
  EXPECT_EQ(c.value(), 1111u);
  EXPECT_EQ(c.shard_value(1), 10u);
  EXPECT_EQ(c.shard_value(7), 0u);  // out of range reads as empty
}

TEST(CounterTest, OutOfRangeShardFallsBackToShardZero) {
  // A worker with an unexpected index must not write out of bounds; the
  // update lands (in shard 0) rather than being dropped.
  Counter c(2);
  c.Add(5, 99);
  EXPECT_EQ(c.shard_value(0), 5u);
  EXPECT_EQ(c.value(), 5u);
}

TEST(TimestampTest, StampsWallClock) {
  Timestamp ts;
  EXPECT_EQ(ts.value_ns(), 0u);
  ts.StampAt(12345);
  EXPECT_EQ(ts.value_ns(), 12345u);
  ts.Stamp();
  EXPECT_GT(ts.value_ns(), 12345u);
}

TEST(TraceRingTest, WrapsKeepingNewestOldestFirst) {
  TraceRing ring(4);
  for (std::uint64_t i = 1; i <= 10; ++i) {
    ring.Push(TraceRecord{i, std::uint32_t(i), 0, 0, i * 100});
  }
  EXPECT_EQ(ring.pushed(), 10u);
  auto records = ring.Snapshot();
  ASSERT_EQ(records.size(), 4u);
  // The last 4 pushes survive, oldest first: 7, 8, 9, 10.
  for (std::size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(records[i].trace_id, 7 + i);
    EXPECT_EQ(records[i].total_ns, (7 + i) * 100);
  }
}

TEST(TelemetryTreeTest, RegistrationIsIdempotentAndKindClashesFail) {
  Histogram h;
  Telemetry tree(/*default_shards=*/3);
  Counter* c = tree.RegisterCounter("a/b/c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->shards(), 3u);  // default_shards applied
  EXPECT_EQ(tree.RegisterCounter("a/b/c"), c);  // idempotent, same object
  EXPECT_FALSE(tree.RegisterCallback("a/b/c",  // kind clash
                                     [] { return std::int64_t(0); }));
  EXPECT_FALSE(tree.LinkHistogram("a/b/c", &h));
  EXPECT_TRUE(tree.Contains("a/b/c"));
  EXPECT_FALSE(tree.Contains("a/b"));
  EXPECT_EQ(tree.FindCounter("a/b/c"), c);
  EXPECT_EQ(tree.FindCounter("nope"), nullptr);
  EXPECT_EQ(tree.size(), 1u);
}

TEST(TelemetryTreeTest, LinksAndCallbacksDontMixWithOwnedNodes) {
  Telemetry tree;
  Counter external(2);
  ASSERT_TRUE(tree.LinkCounter("views/ext", &external));
  EXPECT_TRUE(tree.LinkCounter("views/ext", &external));  // same link: ok
  Counter other;
  EXPECT_FALSE(tree.LinkCounter("views/ext", &other));  // different object
  // Owned registration on a linked path is refused (and vice versa).
  EXPECT_EQ(tree.RegisterCounter("views/ext"), nullptr);
  ASSERT_NE(tree.RegisterCounter("owned"), nullptr);
  EXPECT_FALSE(tree.LinkCounter("owned", &external));
  EXPECT_FALSE(tree.RegisterCallback("owned", [] { return std::int64_t(0); }));
  // Find* hands out mutable pointers, so links are not findable.
  EXPECT_EQ(tree.FindCounter("views/ext"), nullptr);

  external.Add(7, 0);
  external.Add(5, 1);
  TelemetrySnapshot snap = tree.Snapshot();
  EXPECT_EQ(snap.ValueOr("views/ext", 0), 12u);  // read through the link
}

TEST(TelemetryTreeTest, CallbackGaugeComputesAtSnapshotTime) {
  Telemetry tree;
  std::int64_t level = 3;
  ASSERT_TRUE(tree.RegisterCallback("live/depth", [&level] { return level; }));
  EXPECT_EQ(tree.Snapshot().ValueOr("live/depth", 0), 3u);
  level = 42;
  EXPECT_EQ(tree.Snapshot().ValueOr("live/depth", 0), 42u);
}

TEST(TelemetryHistogramTest, ShardFoldMatchesSingleRecordingBitExactly) {
  // The telemetry::Histogram fold is LatencyHistogram::Merge underneath;
  // exactly-representable samples make bit-equality a fair bar (see
  // histogram_test's merge test for the numeric argument).
  Rng rng(11);
  Histogram sharded(4);
  LatencyHistogram single;
  constexpr double kStep = 0x1.0p-20;
  for (int i = 0; i < 2000; ++i) {
    const double v = double(1 + rng.Below(1u << 20)) * kStep;
    sharded.Record(v, std::uint32_t(i % 4));
    single.Record(v);
  }
  EXPECT_EQ(sharded.count(), single.count());
  LatencyHistogram folded = sharded.Fold();
  EXPECT_EQ(folded.count(), single.count());
  EXPECT_EQ(folded.sum(), single.sum());
  EXPECT_EQ(folded.min(), single.min());
  EXPECT_EQ(folded.max(), single.max());
  EXPECT_EQ(folded.p50(), single.p50());
  EXPECT_EQ(folded.p99(), single.p99());
  EXPECT_EQ(folded.p999(), single.p999());
}

TEST(TelemetryTreeTest, SnapshotIsPathOrderedAndPrefixFiltered) {
  Telemetry tree;
  tree.RegisterCounter("z/last")->Add(1);
  tree.RegisterCounter("a/first")->Add(2);
  tree.RegisterCounter("m/mid/one")->Add(3);
  tree.RegisterCounter("m/mid/two")->Add(4);
  ASSERT_TRUE(
      tree.RegisterCallback("m/gauge", [] { return std::int64_t(-5); }));

  TelemetrySnapshot all = tree.Snapshot();
  ASSERT_EQ(all.metrics.size(), 5u);
  for (std::size_t i = 1; i < all.metrics.size(); ++i) {
    EXPECT_LT(all.metrics[i - 1].path, all.metrics[i].path);
  }
  EXPECT_EQ(all.Find("m/gauge")->gauge, -5);
  EXPECT_EQ(all.Find("missing"), nullptr);

  TelemetrySnapshot mid = tree.Snapshot("m/mid/");
  ASSERT_EQ(mid.metrics.size(), 2u);
  EXPECT_EQ(mid.metrics[0].path, "m/mid/one");
  EXPECT_EQ(mid.metrics[1].path, "m/mid/two");
  EXPECT_TRUE(tree.Snapshot("zz").empty());
}

TelemetrySnapshot MakeRichSnapshot() {
  Histogram h(2);
  Telemetry tree;
  tree.RegisterCounter("c/requests")->Add(123456789);
  tree.RegisterCallback("g/depth", [] { return std::int64_t(-42); });
  tree.RegisterTimestamp("t/start")->StampAt(1700000000123456789ull);
  tree.LinkHistogram("h/latency", &h);
  h.Record(10 * kUsec, 0);
  h.Record(250 * kUsec, 1);
  h.Record(2 * kMsec, 0);
  TelemetrySnapshot snap = tree.Snapshot();
  snap.traces.push_back(TraceRecord{0xABCDEF, 205, 1000, 2000, 3500});
  snap.traces.push_back(TraceRecord{0x123456, 104, 0, 900, 950});
  return snap;
}

TEST(SnapshotCodecTest, WireRoundTripIsExact) {
  TelemetrySnapshot snap = MakeRichSnapshot();
  rpc::Encoder enc;
  snap.EncodeTo(enc);
  Buffer wire = enc.Take();

  rpc::Decoder dec(wire);
  auto decoded = TelemetrySnapshot::DecodeFrom(dec);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->metrics.size(), snap.metrics.size());
  for (std::size_t i = 0; i < snap.metrics.size(); ++i) {
    const MetricValue& a = snap.metrics[i];
    const MetricValue& b = decoded->metrics[i];
    EXPECT_EQ(a.path, b.path);
    EXPECT_EQ(int(a.kind), int(b.kind));
    EXPECT_EQ(a.value, b.value);
    EXPECT_EQ(a.gauge, b.gauge);
    EXPECT_EQ(a.count, b.count);
    // Doubles ride the wire as IEEE bit patterns: exact, not approximate.
    EXPECT_EQ(a.sum, b.sum);
    EXPECT_EQ(a.min, b.min);
    EXPECT_EQ(a.max, b.max);
    EXPECT_EQ(a.p50, b.p50);
    EXPECT_EQ(a.p99, b.p99);
    EXPECT_EQ(a.p999, b.p999);
  }
  ASSERT_EQ(decoded->traces.size(), 2u);
  EXPECT_EQ(decoded->traces[0].trace_id, 0xABCDEFu);
  EXPECT_EQ(decoded->traces[0].opcode, 205u);
  EXPECT_EQ(decoded->traces[1].exec_ns, 900u);

  // Truncated frames decode to errors, not garbage.
  Buffer cut(wire.begin(), wire.begin() + std::ptrdiff_t(wire.size() / 2));
  rpc::Decoder cut_dec(cut);
  EXPECT_FALSE(TelemetrySnapshot::DecodeFrom(cut_dec).ok());
}

TEST(SnapshotCodecTest, JsonRoundTrip) {
  TelemetrySnapshot snap = MakeRichSnapshot();
  auto back = TelemetrySnapshot::FromJson(snap.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->metrics.size(), snap.metrics.size());
  EXPECT_EQ(back->ValueOr("c/requests", 0), 123456789u);
  EXPECT_EQ(back->Find("g/depth")->gauge, -42);
  const MetricValue* h = back->Find("h/latency");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, 3u);
  EXPECT_DOUBLE_EQ(h->max, snap.Find("h/latency")->max);
  ASSERT_EQ(back->traces.size(), 2u);
  EXPECT_EQ(back->traces[0].trace_id, 0xABCDEFu);

  EXPECT_FALSE(TelemetrySnapshot::FromJson(bench::Json::Object()).ok());
}

TEST(SnapshotCodecTest, RenderTableListsEveryMetric) {
  TelemetrySnapshot snap = MakeRichSnapshot();
  const std::string table = snap.RenderTable();
  for (const MetricValue& m : snap.metrics) {
    EXPECT_NE(table.find(m.path), std::string::npos) << m.path;
  }
  EXPECT_NE(table.find("n=3"), std::string::npos);  // histogram count cell
  EXPECT_NE(table.find("trace_id"), std::string::npos);
}

// ------------------------------------------------------ concurrency (TSan)

TEST(TelemetryConcurrencyTest, RacingIncrementsAllLand) {
  constexpr int kThreads = 4;
  constexpr int kPerThread = 20000;
  Histogram latency(kThreads);
  Telemetry tree(kThreads);
  Counter* sharded = tree.RegisterCounter("race/sharded");
  Counter* contended = tree.RegisterCounter("race/contended", 1);
  ASSERT_TRUE(tree.LinkHistogram("race/latency", &latency));
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        sharded->Add(1, std::uint32_t(t));     // own cache line
        contended->Add(1, 0);                  // all threads, one shard
        latency.Record(kUsec * double(i + 1), std::uint32_t(t));
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(sharded->value(), std::uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(contended->value(), std::uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(latency.count(), std::uint64_t(kThreads) * kPerThread);
  const TelemetrySnapshot snap = tree.Snapshot();
  EXPECT_EQ(snap.ValueOr("race/sharded", 0),
            std::uint64_t(kThreads) * kPerThread);
  EXPECT_EQ(snap.Find("race/latency")->count,
            std::uint64_t(kThreads) * kPerThread);
}

TEST(TelemetryConcurrencyTest, SnapshotsDuringWritesAreMonotone) {
  // Snapshots taken while writers race must see values that only move
  // forward (fold reads are relaxed, but each shard is monotone, so the
  // folded value is too) and never exceed the final total.
  constexpr int kWriters = 3;
  constexpr int kPerThread = 30000;
  Telemetry tree(kWriters);
  Counter* counter = tree.RegisterCounter("mono/counter");
  TraceRing ring(64);
  std::atomic<bool> done{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        counter->Add(1, std::uint32_t(t));
        ring.Push(TraceRecord{std::uint64_t(i), std::uint32_t(t), 0, 0, 0});
      }
    });
  }
  std::uint64_t last = 0;
  bool monotone = true;
  while (!done.load(std::memory_order_acquire)) {
    const std::uint64_t now = tree.Snapshot().ValueOr("mono/counter", 0);
    monotone = monotone && now >= last;
    last = now;
    (void)ring.Snapshot();  // concurrent ring reads must also be safe
    if (last >= std::uint64_t(kWriters) * kPerThread) break;
    std::this_thread::yield();
  }
  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  EXPECT_TRUE(monotone);
  EXPECT_EQ(counter->value(), std::uint64_t(kWriters) * kPerThread);
  EXPECT_EQ(ring.pushed(), std::uint64_t(kWriters) * kPerThread);
}

// --------------------------------------------------- engine, end to end

struct EngineHarness {
  std::unique_ptr<daos::Cluster> cluster;
  daos::DaosEngine* engine = nullptr;
  std::unique_ptr<daos::DaosClient> client;
  daos::ContainerId cont = 0;
  daos::ObjectId oid;

  static std::unique_ptr<EngineHarness> Boot(bool threaded, bool telemetry,
                                             std::uint32_t targets = 4) {
    auto h = std::make_unique<EngineHarness>();
    daos::ClusterSpec spec;
    spec.engine.address = "fabric://telemetry-engine";
    spec.engine.targets = targets;
    spec.engine.scm_per_target = 8 * kMiB;
    spec.engine.xstream_workers = threaded;
    spec.engine.telemetry = telemetry;
    auto cluster = daos::Cluster::Boot(spec);
    if (!cluster.ok()) return nullptr;
    h->cluster = std::move(*cluster);
    h->engine = h->cluster->engine(0);
    daos::DaosClient::ConnectOptions connect;
    connect.client_address = "fabric://telemetry-client";
    auto client = h->cluster->Connect(connect);
    if (!client.ok()) return nullptr;
    h->client = std::move(*client);
    auto cont = h->client->ContainerCreate("telemetry");
    if (!cont.ok()) return nullptr;
    h->cont = *cont;
    auto oid = h->client->AllocOid(h->cont);
    if (!oid.ok()) return nullptr;
    h->oid = *oid;
    return h;
  }

  bool RunWorkload(int ops) {
    Buffer value = MakePatternBuffer(512, 3);
    for (int i = 0; i < ops; ++i) {
      const std::string dkey = "k" + std::to_string(i);
      if (!client->UpdateSingle(cont, oid, dkey, "a", value).ok()) {
        return false;
      }
      if (!client->FetchSingle(cont, oid, dkey, "a").ok()) return false;
    }
    return true;
  }
};

TEST(EngineTelemetryTest, QueryExportsLiveMetricsOverRpc) {
  auto h = EngineHarness::Boot(/*threaded=*/true, /*telemetry=*/true);
  ASSERT_NE(h, nullptr);
  constexpr int kOps = 32;
  ASSERT_TRUE(h->RunWorkload(kOps));

  auto snap = h->client->TelemetryQuery();
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();

  // Per-opcode latency histograms have real samples.
  const MetricValue* upd = snap->Find("rpc/op/single_update/latency/total");
  ASSERT_NE(upd, nullptr);
  EXPECT_EQ(upd->count, std::uint64_t(kOps));
  EXPECT_GT(upd->max, 0.0);
  EXPECT_EQ(snap->ValueOr("rpc/op/single_update/requests", 0),
            std::uint64_t(kOps));
  EXPECT_EQ(snap->ValueOr("rpc/op/single_fetch/requests", 0),
            std::uint64_t(kOps));

  // Engine counters, per-target scheduler state, VOS counters.
  EXPECT_EQ(snap->ValueOr("engine/updates", 0), std::uint64_t(kOps));
  EXPECT_EQ(snap->ValueOr("engine/fetches", 0), std::uint64_t(kOps));
  EXPECT_GT(snap->ValueOr("engine/started_at", 0), 0u);
  std::uint64_t executed = 0;
  std::uint64_t vos_updates = 0;
  for (std::uint32_t t = 0; t < h->engine->num_targets(); ++t) {
    const std::string sched = "sched/target/" + std::to_string(t) + "/";
    const MetricValue* depth = snap->Find(sched + "queue_depth");
    ASSERT_NE(depth, nullptr) << sched;
    EXPECT_EQ(int(depth->kind), int(MetricKind::kGauge));
    executed += snap->ValueOr(sched + "executed", 0);
    vos_updates += snap->ValueOr(
        "vos/target/" + std::to_string(t) + "/updates", 0);
  }
  EXPECT_EQ(executed, std::uint64_t(2 * kOps));
  EXPECT_EQ(vos_updates, std::uint64_t(kOps));
  EXPECT_GT(snap->ValueOr("sched/busy_ns", 0), 0u);
  EXPECT_GT(snap->ValueOr("net/bytes_sent", 0), 0u);
  EXPECT_EQ(snap->ValueOr("engine/cont/telemetry/epoch", 0),
            std::uint64_t(kOps) + 1);

  // Prefix queries return the matching subtree only.
  auto rpc_only = h->client->TelemetryQuery(0, "rpc/");
  ASSERT_TRUE(rpc_only.ok());
  ASSERT_FALSE(rpc_only->metrics.empty());
  for (const MetricValue& m : rpc_only->metrics) {
    EXPECT_EQ(m.path.rfind("rpc/", 0), 0u) << m.path;
  }

  // The trace ring rides along when asked for: every record carries a
  // breakdown consistent with total = queue + exec + reply overhead.
  auto traced = h->client->TelemetryQuery(0, "telemetry/", /*traces=*/true);
  ASSERT_TRUE(traced.ok());
  ASSERT_FALSE(traced->traces.empty());
  for (const TraceRecord& rec : traced->traces) {
    EXPECT_NE(rec.trace_id, 0u);
    EXPECT_GE(rec.total_ns, rec.exec_ns);
    EXPECT_GE(rec.total_ns, rec.queue_ns);
  }
  // The query op meters itself too.
  auto again = h->client->TelemetryQuery(0, "telemetry/");
  ASSERT_TRUE(again.ok());
  EXPECT_GE(again->ValueOr("telemetry/queries", 0), 3u);
}

TEST(EngineTelemetryTest, ExistingStatsAreViewsOverTheTree) {
  auto h = EngineHarness::Boot(/*threaded=*/false, /*telemetry=*/true);
  ASSERT_NE(h, nullptr);
  ASSERT_TRUE(h->RunWorkload(12));
  // Snapshots happen inside the query handler, before the query itself is
  // counted as served — so compare against the accessor read BEFORE the
  // query (no other traffic moves the counters in between).
  rpc::RpcServer* server = h->engine->server();
  const std::uint64_t served_before = server->requests_served();
  auto snap = h->client->TelemetryQuery();
  ASSERT_TRUE(snap.ok());
  // One source of truth: the snapshot reads the same counter objects the
  // legacy accessors fold, so they must agree exactly.
  EXPECT_EQ(snap->ValueOr("engine/updates", 1), h->engine->updates());
  EXPECT_EQ(snap->ValueOr("engine/fetches", 1), h->engine->fetches());
  EXPECT_EQ(snap->ValueOr("rpc/requests_served", 0), served_before);
  EXPECT_EQ(server->requests_served(), served_before + 1);
  EXPECT_EQ(snap->ValueOr("rpc/requests_deferred", 0),
            server->requests_deferred());
  EXPECT_EQ(snap->ValueOr("rpc/bulk_bytes_in", 1), server->bulk_bytes_in());
  EXPECT_EQ(snap->ValueOr("rpc/bulk_bytes_out", 1),
            server->bulk_bytes_out());
  const net::MrCache& mrc = h->engine->endpoint()->mr_cache();
  EXPECT_EQ(snap->ValueOr("net/mr_cache/hits", 1), mrc.hits());
  EXPECT_EQ(snap->ValueOr("net/mr_cache/misses", 1), mrc.misses());
  EXPECT_EQ(snap->ValueOr("net/mr_cache/evictions", 1), mrc.evictions());
  // Scheduler executed: accessor and callback gauge agree.
  EXPECT_EQ(snap->ValueOr("sched/executed", 0),
            h->engine->scheduler().executed());
}

TEST(EngineTelemetryTest, ProgressThreadPublishesFinalSnapshotOnStop) {
  auto h = EngineHarness::Boot(/*threaded=*/true, /*telemetry=*/true);
  ASSERT_NE(h, nullptr);
  // Nothing published until the progress thread has exited once.
  EXPECT_EQ(h->engine->published_snapshot().status().code(),
            ErrorCode::kFailedPrecondition);

  constexpr int kOps = 16;
  ASSERT_TRUE(h->RunWorkload(kOps));
  h->engine->StartProgressThread();
  h->engine->StopProgressThread();

  // The post-mortem view is NOT all-zero: it carries the real totals the
  // engine had served when the thread exited.
  auto post = h->engine->published_snapshot();
  ASSERT_TRUE(post.ok()) << post.status().ToString();
  EXPECT_EQ(post->ValueOr("engine/updates", 0), std::uint64_t(kOps));
  EXPECT_EQ(post->ValueOr("engine/fetches", 0), std::uint64_t(kOps));
  EXPECT_EQ(post->Find("rpc/op/single_update/latency/total")->count,
            std::uint64_t(kOps));

  // A second run replaces the published snapshot (latest totals win).
  ASSERT_TRUE(h->RunWorkload(kOps));
  h->engine->StartProgressThread();
  h->engine->StopProgressThread();
  auto post2 = h->engine->published_snapshot();
  ASSERT_TRUE(post2.ok());
  EXPECT_EQ(post2->ValueOr("engine/updates", 0), std::uint64_t(2 * kOps));
}

TEST(EngineTelemetryTest, DisabledTelemetryAnswersEmptyAndStillCounts) {
  auto h = EngineHarness::Boot(/*threaded=*/true, /*telemetry=*/false);
  ASSERT_NE(h, nullptr);
  constexpr int kOps = 8;
  ASSERT_TRUE(h->RunWorkload(kOps));
  // The tree is empty but the RPC answers (an operator probing a
  // dark engine gets a valid empty snapshot, not an error).
  auto snap = h->client->TelemetryQuery(0, "", /*traces=*/true);
  ASSERT_TRUE(snap.ok()) << snap.status().ToString();
  EXPECT_TRUE(snap->metrics.empty());
  EXPECT_TRUE(snap->traces.empty());
  // The legacy accessors still count — they own the counters; only the
  // tree wiring (and per-op latency stamping) is off.
  EXPECT_EQ(h->engine->updates(), std::uint64_t(kOps));
  EXPECT_EQ(h->engine->fetches(), std::uint64_t(kOps));
  EXPECT_FALSE(h->engine->scheduler().time_ops());
  EXPECT_EQ(h->engine->scheduler().busy_ns(), 0u);
  EXPECT_EQ(h->engine->published_snapshot().status().code(),
            ErrorCode::kNotFound);
}

}  // namespace
}  // namespace ros2::telemetry
