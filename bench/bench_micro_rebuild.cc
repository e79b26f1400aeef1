// Kill-an-engine-mid-workload scenario: three threaded engines behind a
// shared pool map, a writer hammering replicated updates, and a
// FaultPlan (kEngineKill) that downs one engine after a set number of
// writes. The bench then measures what the redundancy layer promises:
//
//   - zero failed reads across the whole run (fetch fails over to the
//     surviving replica; replicas=2 over 3 engines keeps every dkey
//     covered),
//   - every degraded write succeeds on the survivors (the miss lands in
//     the resync journal instead of failing the call),
//   - degraded read throughput stays >= 50% of the healthy baseline
//     (failover costs one extra attempt for dkeys whose primary died),
//   - the background rebuild re-silvers the victim while the writer is
//     still running, the journal quiesces, and afterwards the victim
//     ALONE serves byte-exact data.
//
// The whole report is realtime-tagged: wall-clock rates and the rebuild
// duration churn by machine, so benchctl keeps this section out of
// EXPERIMENTS.md and the committed baseline. The functional gates above
// ARE enforced through the bench exit code — this is the CI scenario
// gate for the self-healing path.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/registry.h"
#include "common/bytes.h"
#include "common/fault.h"
#include "common/table.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/placement.h"
#include "daos/pool_map.h"
#include "daos/rebuild.h"

using namespace ros2;

namespace {

constexpr std::uint32_t kEngines = 3;
constexpr std::uint32_t kReplicas = 2;
constexpr std::uint32_t kVictim = 1;
constexpr std::size_t kValueSize = 1024;

/// Timed closed-loop fetch sweep over the seeded dkeys; returns reads/s
/// and counts failures (the zero-failed-reads gate).
double ReadRate(daos::DaosClient* client, std::uint64_t cont,
                const daos::ObjectId& oid, int seeded, std::uint64_t ops,
                std::uint64_t* failed) {
  Buffer out(kValueSize);
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) {
    const std::string dkey = "seed" + std::to_string(i % std::uint64_t(seeded));
    if (!client->Fetch(cont, oid, dkey, "a", 0, out).ok()) ++*failed;
  }
  const auto stop = std::chrono::steady_clock::now();
  const double seconds = std::chrono::duration<double>(stop - start).count();
  return seconds > 0.0 ? double(ops) / seconds : 0.0;
}

}  // namespace

ROS2_BENCH_EXPERIMENT(micro_rebuild,
                      "Self-healing scenario: fault-injected engine kill "
                      "mid-workload, degraded service, background rebuild") {
  ctx.report().MarkRealtime();
  ctx.Note(
      "Three threaded engines (4 targets each, progress threads serving "
      "pumpless clients), replicas=2 over a shared pool map. A FaultPlan "
      "kEngineKill point downs engine " +
      std::to_string(kVictim) +
      " after a fixed write budget; the writer keeps running through the "
      "kill, the degraded window, and the rebuild. Rates are realtime "
      "counters — compare trajectories per machine, not across machines. "
      "The functional gates (zero failed reads, degraded writes succeed, "
      "degraded reads >= 50% of healthy, rebuilt engine serves byte-exact "
      "data alone) are enforced via the bench exit code.");

  const int seeded = ctx.quick() ? 24 : 96;
  const std::uint64_t read_ops = ctx.quick() ? 600 : 6000;
  const std::uint64_t kill_after = ctx.quick() ? 16 : 64;

  daos::ClusterSpec spec;
  spec.engines = kEngines;
  spec.engine.address = "fabric://rebuild-bench-engine";
  spec.engine.targets = 4;
  spec.engine.scm_per_target = 16 * kMiB;
  spec.engine.xstream_workers = true;
  spec.progress_threads = true;
  auto cluster = daos::Cluster::Boot(spec);
  ctx.Check("engines booted", cluster.ok());
  if (!cluster.ok()) return;
  daos::PoolMap& map = *(*cluster)->pool_map();

  // All clients dial in while the pool is healthy (PoolConnect is
  // metadata — it refuses a degraded pool by design). Pumpless: the
  // engines' progress threads decode every request.
  auto new_client = [&](const std::string& name)
      -> std::unique_ptr<daos::DaosClient> {
    daos::DaosClient::ConnectOptions options;
    options.client_address = "fabric://rebuild-bench-" + name;
    options.replicas = kReplicas;
    auto client = (*cluster)->Connect(options);
    ctx.Check("client '" + name + "' connected", client.ok());
    return client.ok() ? std::move(*client) : nullptr;
  };
  auto setup = new_client("setup");
  auto writer_client = new_client("writer");
  auto reader_client = new_client("reader");
  auto verify = new_client("verify");
  if (!setup || !writer_client || !reader_client || !verify) return;

  auto cont = setup->ContainerCreate("rebuild-bench");
  auto oid = cont.ok() ? setup->AllocOid(*cont)
                       : Result<daos::ObjectId>(cont.status());
  ctx.Check("container + oid allocated", cont.ok() && oid.ok());
  if (!cont.ok() || !oid.ok()) return;

  std::map<std::string, std::uint64_t> last_seed;
  bool seed_ok = true;
  for (int i = 0; i < seeded; ++i) {
    const std::string dkey = "seed" + std::to_string(i);
    const std::uint64_t seed = std::uint64_t(i) + 1;
    seed_ok = seed_ok &&
              setup
                  ->Update(*cont, *oid, dkey, "a", 0,
                           MakePatternBuffer(kValueSize, seed))
                  .ok();
    last_seed[dkey] = seed;
  }
  ctx.Check("seed writes succeeded", seed_ok);

  // The writer runs from here to the end of the rebuild, consulting the
  // kEngineKill point on every write. It starts disarmed so the healthy
  // baseline below measures reads against identical concurrent write
  // pressure; arming it later is the kill switch — the plan fires once
  // and the writer downs the victim in the shared map mid-workload, not
  // at a quiesce point.
  common::FaultPlan plan;
  std::atomic<bool> stop{false};
  std::atomic<bool> killed{false};
  std::atomic<std::uint64_t> write_failures{0};
  std::atomic<std::uint64_t> degraded_writes{0};
  constexpr int kHot = 16;
  std::uint64_t final_round = 0;
  std::thread writer([&] {
    daos::DaosClient* client = writer_client.get();
    std::uint64_t round = 0;
    while (!stop.load(std::memory_order_acquire)) {
      ++round;
      for (int i = 0; i < kHot; ++i) {
        const std::string dkey = "hot" + std::to_string(i);
        if (!client
                 ->Update(*cont, *oid, dkey, "a", 0,
                          MakePatternBuffer(kValueSize,
                                            round * 1000 + std::uint64_t(i)))
                 .ok()) {
          write_failures.fetch_add(1, std::memory_order_relaxed);
        } else if (killed.load(std::memory_order_acquire)) {
          degraded_writes.fetch_add(1, std::memory_order_relaxed);
        }
        if (plan.Evaluate(common::FaultPoint::kEngineKill).fire) {
          (void)map.SetState(kVictim, daos::EngineState::kDown);
          killed.store(true, std::memory_order_release);
        }
      }
    }
    final_round = round;
  });

  // Healthy baseline: closed-loop reads against the running writer, no
  // failures tolerated.
  std::uint64_t healthy_failed = 0;
  const double healthy_rate = ReadRate(reader_client.get(), *cont, *oid,
                                       seeded, read_ops, &healthy_failed);

  // Inject the failure: skip a few more writes, then one fire.
  common::FaultSpec kill;
  kill.skip = kill_after;
  kill.count = 1;
  plan.Arm(common::FaultPoint::kEngineKill, kill);

  // Degraded window: wait for the injected kill, then re-measure read
  // throughput through failover while the writer keeps degrading.
  while (!killed.load(std::memory_order_acquire) &&
         write_failures.load(std::memory_order_relaxed) == 0) {
    std::this_thread::yield();
  }
  std::uint64_t degraded_failed = 0;
  const double degraded_rate = ReadRate(reader_client.get(), *cont, *oid,
                                        seeded, read_ops, &degraded_failed);

  // Background rebuild, concurrent with the writer.
  daos::DaosClient::ConnectOptions ropts;
  ropts.client_address = "fabric://rebuild-bench-mgr";
  ropts.replicas = kReplicas;
  auto mgr = (*cluster)->NewRebuildManager(ropts);
  ctx.Check("rebuild manager connected", mgr.ok());
  if (!mgr.ok()) {
    stop.store(true, std::memory_order_release);
    writer.join();
    return;
  }
  // The rebuild overlaps live writes through its scan + re-silver
  // phase; once it is under way the writer quiesces so the
  // journal-drain loop can terminate (a sustained hot-key writer can
  // starve the quiesce check forever — every write landing on the
  // REBUILDING engine re-journals post-completion by the two-mark
  // rule, so each drain pass finds the hot dkeys again).
  Status rebuilt;
  double rebuild_seconds = 0.0;
  std::atomic<bool> rebuild_done{false};
  std::thread rebuilder([&] {
    const auto rebuild_start = std::chrono::steady_clock::now();
    rebuilt = (*mgr)->Rebuild(kVictim);
    rebuild_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      rebuild_start)
            .count();
    rebuild_done.store(true, std::memory_order_release);
  });
  const std::uint64_t mark = degraded_writes.load(std::memory_order_relaxed);
  while (!rebuild_done.load(std::memory_order_acquire) &&
         write_failures.load(std::memory_order_relaxed) == 0 &&
         (map.state(kVictim) == daos::EngineState::kDown ||
          degraded_writes.load(std::memory_order_relaxed) < mark + 32)) {
    std::this_thread::yield();
  }
  stop.store(true, std::memory_order_release);
  writer.join();
  rebuilder.join();
  for (int i = 0; i < kHot; ++i) {
    last_seed["hot" + std::to_string(i)] =
        final_round * 1000 + std::uint64_t(i);
  }
  const Status resynced = (*mgr)->Resync(kVictim);

  // The functional gates.
  ctx.Check("engine kill fault fired exactly once",
            plan.fired(common::FaultPoint::kEngineKill) == 1);
  ctx.Check("zero failed reads (healthy + degraded windows)",
            healthy_failed == 0 && degraded_failed == 0);
  ctx.Check("every write through the kill + rebuild succeeded",
            write_failures.load() == 0);
  ctx.Check("writes degraded into the journal while the victim was down",
            degraded_writes.load() > 0);
  ctx.Check("rebuild completed and victim returned UP",
            rebuilt.ok() && map.state(kVictim) == daos::EngineState::kUp);
  ctx.Check("straggler resync drained the journal",
            resynced.ok() && map.journal().depth(kVictim) == 0);
  ctx.Check("rebuild re-silvered data (scan + journal observable)",
            (*mgr)->dkeys_scanned(kVictim) > 0 &&
                (*mgr)->bytes_copied(kVictim) > 0);
  ctx.Check("degraded reads/s >= 50% of healthy baseline",
            degraded_rate >= 0.5 * healthy_rate);

  // Byte-exactness: with both survivors down, the rebuilt victim alone
  // must serve every dkey whose replica ring contains it.
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    if (e != kVictim) (void)map.SetState(e, daos::EngineState::kDown);
  }
  bool exact = true;
  std::uint64_t owed_dkeys = 0;
  for (const auto& [dkey, seed] : last_seed) {
    const std::uint32_t primary = daos::PlaceEngine(*oid, dkey, kEngines);
    bool owed = false;
    for (std::uint32_t r = 0; r < kReplicas; ++r) {
      if ((primary + r) % kEngines == kVictim) owed = true;
    }
    if (!owed) continue;
    ++owed_dkeys;
    Buffer out(kValueSize);
    exact = exact &&
            verify->Fetch(*cont, *oid, dkey, "a", 0, out).ok() &&
            out == MakePatternBuffer(kValueSize, seed);
  }
  ctx.Check("rebuilt engine alone serves byte-exact data",
            exact && owed_dkeys > 0);
  for (std::uint32_t e = 0; e < kEngines; ++e) {
    if (e != kVictim) (void)map.SetState(e, daos::EngineState::kUp);
  }

  AsciiTable table({"window", "reads/s", "failed"});
  table.AddRow({"healthy", FormatCount(healthy_rate) + "reads/s",
                std::to_string(healthy_failed)});
  table.AddRow({"degraded", FormatCount(degraded_rate) + "reads/s",
                std::to_string(degraded_failed)});
  ctx.Table("Read throughput through the failure (wall clock)", table);
  ctx.Metric("rebuild_healthy_reads_per_sec", "reads_per_sec", healthy_rate,
             {}, bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("rebuild_degraded_reads_per_sec", "reads_per_sec", degraded_rate,
             {}, bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("rebuild_degraded_read_ratio", "ratio",
             healthy_rate > 0.0 ? degraded_rate / healthy_rate : 0.0, {},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("rebuild_seconds", "seconds", rebuild_seconds, {},
             bench::MetricDirection::kLowerIsBetter);
  ctx.Metric("rebuild_dkeys_scanned", "count",
             double((*mgr)->dkeys_scanned(kVictim)), {},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("rebuild_bytes_copied", "bytes",
             double((*mgr)->bytes_copied(kVictim)), {},
             bench::MetricDirection::kHigherIsBetter);
  ctx.Metric("rebuild_journal_replayed", "count",
             double((*mgr)->journal_replayed(kVictim)), {},
             bench::MetricDirection::kHigherIsBetter);
}

ROS2_BENCH_MAIN()
