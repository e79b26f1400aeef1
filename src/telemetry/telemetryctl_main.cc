// ros2_telemetryctl — operator CLI over the engine telemetry tree.
//
// The fabric is in-process, so the CLI self-hosts its subject: it boots a
// demo engine, drives a mixed update/fetch workload through DaosClient,
// and reads the metric tree back over the kTelemetryQuery control-plane
// RPC — the exact path a remote operator tool would use against a real
// deployment.
//
//   ros2_telemetryctl dump  [--targets=N] [--ops=N] [--serial] [--traces]
//                           [--prefix=P] [--json[=PATH]] [--check]
//                           [--post-mortem] [--no-telemetry]
//                           [--engines=N] [--replicas=R] [--rebuild]
//       One workload pass, one snapshot, rendered as a table (or JSON).
//       --check validates the end-to-end wiring (non-zero per-opcode
//       latency histograms, per-target queue-depth gauges, op counters)
//       and exits 1 on failure — ci.sh runs this as its smoke test.
//       --post-mortem stops the progress thread first and dumps the
//       snapshot it published on the way out (the after-Stop() view).
//       --rebuild runs the self-healing scenario instead (defaults to 3
//       engines, replicas = engines): healthy pass, kill an engine,
//       degraded pass (writes journal, reads fail over), rebuild + resync,
//       healthy pass — then dumps engine 0's tree, where the pool map and
//       the rebuild manager also register (pool_map/*, rebuild/*).
//       --check in this mode additionally gates the rebuild metrics.
//
//   ros2_telemetryctl watch [--intervals=N] [--targets=N] [--ops=N]
//                           [--serial] [--prefix=P]
//       Repeats workload passes and prints, per interval, the counters
//       and gauges that moved (value + delta).
//
//   ros2_telemetryctl diff <a.json> <b.json>
//       Compares two --json dumps: scalar deltas and histogram count
//       drift, table out. Exit 0 even when different (diff informs;
//       --check gates).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench/json.h"
#include "common/table.h"
#include "common/units.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/rebuild.h"
#include "dfs/dfs.h"
#include "telemetry/snapshot.h"

using namespace ros2;

namespace {

struct CliOptions {
  std::string command;
  std::uint32_t targets = 4;
  std::uint64_t ops = 96;
  std::uint32_t intervals = 3;
  std::uint32_t engines = 1;
  std::uint32_t replicas = 1;
  bool rebuild = false;
  bool serial = false;
  bool telemetry = true;
  bool traces = false;
  bool check = false;
  bool post_mortem = false;
  bool json = false;
  std::string json_path;  // empty = stdout
  std::string prefix;
  std::vector<std::string> positional;
};

void Usage() {
  std::fprintf(
      stderr,
      "usage: ros2_telemetryctl <dump|watch|diff> [options]\n"
      "  dump   [--targets=N] [--ops=N] [--serial] [--traces]\n"
      "         [--prefix=P] [--json[=PATH]] [--check] [--post-mortem]\n"
      "         [--no-telemetry] [--engines=N] [--replicas=R] [--rebuild]\n"
      "  watch  [--intervals=N] [--targets=N] [--ops=N] [--serial]\n"
      "         [--prefix=P]\n"
      "  diff   <a.json> <b.json>\n");
}

bool ParseArgs(int argc, char** argv, CliOptions* out) {
  if (argc < 2) return false;
  out->command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&arg](const char* flag) {
      return arg.substr(std::strlen(flag));
    };
    if (arg.rfind("--targets=", 0) == 0) {
      out->targets = std::uint32_t(std::strtoul(
          value_of("--targets=").c_str(), nullptr, 10));
      if (out->targets == 0) return false;
    } else if (arg.rfind("--ops=", 0) == 0) {
      out->ops = std::strtoull(value_of("--ops=").c_str(), nullptr, 10);
      if (out->ops == 0) return false;
    } else if (arg.rfind("--intervals=", 0) == 0) {
      out->intervals = std::uint32_t(std::strtoul(
          value_of("--intervals=").c_str(), nullptr, 10));
      if (out->intervals == 0) return false;
    } else if (arg.rfind("--engines=", 0) == 0) {
      out->engines = std::uint32_t(std::strtoul(
          value_of("--engines=").c_str(), nullptr, 10));
      if (out->engines == 0) return false;
    } else if (arg.rfind("--replicas=", 0) == 0) {
      out->replicas = std::uint32_t(std::strtoul(
          value_of("--replicas=").c_str(), nullptr, 10));
      if (out->replicas == 0) return false;
    } else if (arg == "--rebuild") {
      out->rebuild = true;
    } else if (arg.rfind("--prefix=", 0) == 0) {
      out->prefix = value_of("--prefix=");
    } else if (arg == "--serial") {
      out->serial = true;
    } else if (arg == "--no-telemetry") {
      out->telemetry = false;
    } else if (arg == "--traces") {
      out->traces = true;
    } else if (arg == "--check") {
      out->check = true;
    } else if (arg == "--post-mortem") {
      out->post_mortem = true;
    } else if (arg == "--json") {
      out->json = true;
    } else if (arg.rfind("--json=", 0) == 0) {
      out->json = true;
      out->json_path = value_of("--json=");
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
      return false;
    } else {
      out->positional.push_back(arg);
    }
  }
  if (out->rebuild) {
    // Scenario defaults: a fully replicated 3-engine pool unless told
    // otherwise; killing an engine must leave a survivor for every dkey.
    if (out->engines == 1) out->engines = 3;
    if (out->replicas == 1) out->replicas = out->engines;
    if (out->engines < 2 || out->replicas < 2) return false;
  }
  if (out->replicas > out->engines) return false;
  return true;
}

/// Plain += concatenation: the operator+(const char*, std::string&&)
/// forms trip a GCC 12 -Wrestrict false positive under -Werror.
std::string Cat(const char* prefix, const std::string& suffix) {
  std::string out(prefix);
  out += suffix;
  return out;
}

/// The self-hosted subject: one pool of N engines, one client, one
/// container. The client's progress hook pumps the engines (the standard
/// DaosClient wiring), so nothing here races the snapshot reads — metric
/// updates are atomics either way. The pool map (and, in --rebuild mode,
/// the rebuild manager) registers into engine 0's tree: one
/// kTelemetryQuery dump shows data-path, health, and rebuild state
/// together.
struct Demo {
  std::unique_ptr<daos::Cluster> cluster;
  std::unique_ptr<daos::DaosClient> client;
  std::unique_ptr<daos::RebuildManager> rebuild;
  std::unique_ptr<dfs::Dfs> dfs;
  std::uint64_t dfs_pass_ = 0;
  daos::ContainerId cont = 0;
  daos::ObjectId oid;

  /// The engine the --rebuild scenario kills and re-silvers.
  static constexpr std::uint32_t kVictim = 1;

  static Result<std::unique_ptr<Demo>> Boot(const CliOptions& options) {
    auto demo = std::make_unique<Demo>();
    daos::ClusterSpec spec;
    spec.engines = options.engines;
    spec.engine.address = "fabric://telemetryctl-engine";
    spec.engine.targets = options.targets;
    spec.engine.scm_per_target = 16 * kMiB;
    spec.engine.xstream_workers = !options.serial;
    spec.engine.telemetry = options.telemetry;
    ROS2_ASSIGN_OR_RETURN(demo->cluster, daos::Cluster::Boot(spec));
    telemetry::Telemetry* tree = demo->cluster->engine(0)->mutable_telemetry();
    demo->cluster->pool_map()->AttachTelemetry(tree);
    daos::DaosClient::ConnectOptions connect;
    connect.client_address = "fabric://telemetryctl-client";
    connect.replicas = options.replicas;
    ROS2_ASSIGN_OR_RETURN(demo->client, demo->cluster->Connect(connect));
    ROS2_ASSIGN_OR_RETURN(demo->cont,
                          demo->client->ContainerCreate("telemetryctl"));
    ROS2_ASSIGN_OR_RETURN(demo->oid, demo->client->AllocOid(demo->cont));
    // A DFS mount in its own container: the dfs/* subtree (chunk batches,
    // lookup cache, readdir pages) registers alongside the engine metrics.
    ROS2_ASSIGN_OR_RETURN(
        daos::ContainerId dfs_cont,
        demo->client->ContainerCreate("telemetryctl-dfs"));
    dfs::DfsConfig dfs_config;
    dfs_config.chunk_size = 64 * kKiB;  // multi-chunk I/O with small files
    ROS2_ASSIGN_OR_RETURN(
        demo->dfs,
        dfs::Dfs::Mount(demo->client.get(), dfs_cont, /*create=*/true,
                        dfs_config));
    demo->dfs->AttachTelemetry(tree);
    if (options.rebuild) {
      connect.client_address = "fabric://telemetryctl-rebuild";
      ROS2_ASSIGN_OR_RETURN(demo->rebuild,
                            demo->cluster->NewRebuildManager(connect));
      demo->rebuild->AttachTelemetry(tree);
    }
    return demo;
  }

  /// One mixed pass: pipelined array updates + fetches over `ops` dkeys
  /// (spreads every target), a few singles, and a dkey enumeration so the
  /// barrier path and several opcodes all light up.
  Status RunWorkload(std::uint64_t ops) {
    std::vector<Buffer> payloads;
    std::vector<daos::DaosClient::UpdateOp> updates;
    payloads.reserve(ops);
    updates.reserve(ops);
    for (std::uint64_t i = 0; i < ops; ++i) {
      payloads.push_back(MakePatternBuffer(2048, i + 1));
      daos::DaosClient::UpdateOp op;
      op.cont = cont;
      op.oid = oid;
      op.dkey = Cat("dkey-", std::to_string(i));
      op.akey = "a";
      op.data = payloads.back();
      updates.push_back(std::move(op));
    }
    ROS2_RETURN_IF_ERROR(client->UpdateBatch(updates).status());

    std::vector<Buffer> outs(ops, Buffer(2048));
    std::vector<daos::DaosClient::FetchOp> fetches;
    fetches.reserve(ops);
    for (std::uint64_t i = 0; i < ops; ++i) {
      daos::DaosClient::FetchOp op;
      op.cont = cont;
      op.oid = oid;
      op.dkey = Cat("dkey-", std::to_string(i));
      op.akey = "a";
      op.out = outs[i];
      fetches.push_back(std::move(op));
    }
    ROS2_RETURN_IF_ERROR(client->FetchBatch(fetches));

    Buffer small = MakePatternBuffer(64, 7);
    for (int i = 0; i < 4; ++i) {
      const std::string dkey = Cat("meta-", std::to_string(i));
      ROS2_RETURN_IF_ERROR(
          client->UpdateSingle(cont, oid, dkey, "a", small).status());
      ROS2_RETURN_IF_ERROR(
          client->FetchSingle(cont, oid, dkey, "a").status());
    }
    ROS2_RETURN_IF_ERROR(
        client->ListEntriesPage(cont, oid, "", "", 0).status());
    return RunDfsPass();
  }

  /// The DFS slice of the pass: a handful of multi-chunk files written,
  /// read back, re-stat'd (cache hits), and listed — every dfs/* counter
  /// moves. Fresh names per pass: object punch (O_TRUNC on an existing
  /// file) deliberately fails loudly while an engine is down, which the
  /// --rebuild degraded pass would trip.
  Status RunDfsPass() {
    Status made = dfs->Mkdir("/data");
    if (!made.ok() && made.code() != ErrorCode::kAlreadyExists) return made;
    const std::uint64_t pass = dfs_pass_++;
    Buffer block = MakePatternBuffer(96 * kKiB, 11);  // 2 chunks at 64 KiB
    Buffer back(block.size());
    for (int i = 0; i < 8; ++i) {
      std::string path = Cat("/data/file-", std::to_string(pass));
      path += '-';
      path += std::to_string(i);
      dfs::OpenFlags flags;
      flags.create = true;
      ROS2_ASSIGN_OR_RETURN(dfs::Fd fd, dfs->Open(path, flags));
      ROS2_RETURN_IF_ERROR(dfs->Write(fd, 0, block));
      ROS2_ASSIGN_OR_RETURN(std::uint64_t n, dfs->Read(fd, 0, back));
      if (n != back.size()) return DataLoss("short DFS read-back");
      ROS2_RETURN_IF_ERROR(dfs->Close(fd));
      ROS2_RETURN_IF_ERROR(dfs->Stat(path).status());  // warm-cache walk
    }
    return dfs->Readdir("/data").status();
  }

  /// The self-healing scenario (--rebuild): healthy pass, kill kVictim,
  /// degraded pass (writes journal, reads fail over), rebuild + straggler
  /// resync, healthy pass against the re-silvered pool.
  Status RunRebuildScenario(const CliOptions& options) {
    ROS2_RETURN_IF_ERROR(RunWorkload(options.ops));
    ROS2_RETURN_IF_ERROR(
        cluster->pool_map()->SetState(kVictim, daos::EngineState::kDown));
    ROS2_RETURN_IF_ERROR(RunWorkload(options.ops));
    ROS2_RETURN_IF_ERROR(rebuild->Rebuild(kVictim));
    ROS2_RETURN_IF_ERROR(rebuild->Resync(kVictim));
    return RunWorkload(options.ops);
  }
};

Status WriteOut(const std::string& text, const std::string& path) {
  if (path.empty()) {
    std::fputs(text.c_str(), stdout);
    return Status::Ok();
  }
  std::ofstream file(path);
  if (!file) return Internal("cannot write '" + path + "'");
  file << text;
  return Status::Ok();
}

Result<telemetry::TelemetrySnapshot> LoadSnapshotJson(
    const std::string& path) {
  std::ifstream file(path);
  if (!file) return NotFound("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << file.rdbuf();
  ROS2_ASSIGN_OR_RETURN(bench::Json doc, bench::Json::Parse(buffer.str()));
  return telemetry::TelemetrySnapshot::FromJson(doc);
}

/// --check: the acceptance wiring, end to end. Every failure prints; any
/// failure flips the exit code.
bool CheckSnapshot(const telemetry::TelemetrySnapshot& snap,
                   const CliOptions& options) {
  const std::uint64_t ops = options.ops;
  bool ok = true;
  auto require = [&ok](bool cond, const std::string& what) {
    if (!cond) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
      ok = false;
    }
  };
  // In --rebuild mode ops spread over several engines and only engine 0's
  // tree is dumped, so the data-path gates relax to "moved"; the rebuild
  // gates below carry the scenario.
  const std::uint64_t min_ops = options.rebuild ? 1 : ops;
  require(snap.ValueOr("engine/updates", 0) >= min_ops,
          "engine/updates covers the workload");
  require(snap.ValueOr("engine/fetches", 0) >= min_ops,
          "engine/fetches covers the workload");
  require(snap.ValueOr("rpc/requests_served", 0) > 0,
          "rpc/requests_served > 0");
  for (const char* op : {"obj_update", "obj_fetch", "single_update",
                         "single_fetch"}) {
    const std::string base = Cat("rpc/op/", op);
    const telemetry::MetricValue* total =
        snap.Find(base + "/latency/total");
    require(total != nullptr &&
                total->kind == telemetry::MetricKind::kHistogram &&
                total->count > 0,
            base + "/latency/total has samples");
    require(snap.ValueOr(base + "/requests", 0) > 0, base + "/requests > 0");
  }
  std::uint64_t executed = 0;
  for (std::uint32_t t = 0; t < options.targets; ++t) {
    const std::string base = Cat("sched/target/", std::to_string(t)) + "/";
    const telemetry::MetricValue* depth = snap.Find(base + "queue_depth");
    require(depth != nullptr &&
                depth->kind == telemetry::MetricKind::kGauge,
            base + "queue_depth gauge present");
    executed += snap.ValueOr(base + "executed", 0);
  }
  require(executed >= (options.rebuild ? 2 : 2 * ops),
          "per-target executed covers the workload");
  require(snap.ValueOr("engine/started_at", 0) > 0,
          "engine/started_at stamped");

  // The DFS pass: pipelined chunk batches moved data, the lookup cache
  // served the warm re-stats, readdir paged. All under dfs/*.
  require(snap.ValueOr("dfs/io/chunk_updates", 0) > 0,
          "dfs/io/chunk_updates > 0 (pipelined writes)");
  require(snap.ValueOr("dfs/io/chunk_fetches", 0) > 0,
          "dfs/io/chunk_fetches > 0 (pipelined reads)");
  require(snap.ValueOr("dfs/io/write_batches", 0) > 0,
          "dfs/io/write_batches > 0");
  require(snap.ValueOr("dfs/io/read_batches", 0) > 0,
          "dfs/io/read_batches > 0");
  require(snap.ValueOr("dfs/io/chunk_updates", 0) >
              snap.ValueOr("dfs/io/write_batches", 0),
          "dfs chunk updates batch (> 1 chunk per write batch)");
  require(snap.ValueOr("dfs/lookup_cache/hits", 0) > 0,
          "dfs/lookup_cache/hits > 0 (warm path walks)");
  require(snap.ValueOr("dfs/lookup_cache/misses", 0) > 0,
          "dfs/lookup_cache/misses > 0 (cold path walks)");
  require(snap.ValueOr("dfs/readdir/pages", 0) > 0,
          "dfs/readdir/pages > 0");
  require(snap.ValueOr("dfs/readdir/entries", 0) > 0,
          "dfs/readdir/entries > 0");
  require(snap.Find("dfs/open_files") != nullptr,
          "dfs/open_files gauge present");

  if (options.rebuild) {
    // The self-healing gates: the victim was killed, writes degraded into
    // the journal, the rebuild re-silvered it and marked it UP, and the
    // journal drained.
    const std::string victim = std::to_string(Demo::kVictim);
    const std::string rb = Cat("rebuild/", victim) + "/";
    require(snap.ValueOr(rb + "dkeys_scanned", 0) > 0,
            rb + "dkeys_scanned > 0");
    require(snap.ValueOr(rb + "bytes_copied", 0) > 0,
            rb + "bytes_copied > 0");
    const telemetry::MetricValue* progress = snap.Find(rb + "progress");
    require(progress != nullptr && progress->gauge == 100,
            rb + "progress == 100");
    require(snap.ValueOr("pool_map/journal_recorded", 0) > 0,
            "pool_map/journal_recorded > 0 (degraded writes journaled)");
    require(snap.ValueOr("pool_map/journal_depth", 0) == 0 &&
                snap.Find("pool_map/journal_depth") != nullptr,
            "pool_map/journal_depth == 0 (resync drained)");
    // DOWN -> REBUILDING -> UP is at least 3 transitions past the boot
    // version of 1.
    require(snap.ValueOr("pool_map/transitions", 0) >= 3,
            "pool_map/transitions >= 3");
    const telemetry::MetricValue* state =
        snap.Find(Cat("pool_map/engine/", victim) + "/state");
    require(state != nullptr && state->gauge == 0,
            "victim engine state back to UP");
  }
  return ok;
}

int RunDump(const CliOptions& options) {
  auto demo = Demo::Boot(options);
  if (!demo.ok()) {
    std::fprintf(stderr, "boot failed: %s\n",
                 demo.status().ToString().c_str());
    return 2;
  }
  Status ran = options.rebuild ? (*demo)->RunRebuildScenario(options)
                               : (*demo)->RunWorkload(options.ops);
  if (!ran.ok()) {
    std::fprintf(stderr, "workload failed: %s\n", ran.ToString().c_str());
    return 2;
  }

  telemetry::TelemetrySnapshot snap;
  if (options.post_mortem) {
    // The progress thread publishes a final snapshot on its way out; a
    // dump after Stop() reads that, not a live query.
    daos::DaosEngine* engine = (*demo)->cluster->engine(0);
    engine->StartProgressThread();
    engine->StopProgressThread();
    auto published = engine->published_snapshot();
    if (!published.ok()) {
      std::fprintf(stderr, "no published snapshot: %s\n",
                   published.status().ToString().c_str());
      return 2;
    }
    snap = std::move(*published);
  } else {
    auto live = (*demo)->client->TelemetryQuery(0, options.prefix,
                                               options.traces);
    if (!live.ok()) {
      std::fprintf(stderr, "telemetry query failed: %s\n",
                   live.status().ToString().c_str());
      return 2;
    }
    snap = std::move(*live);
  }

  if (options.json) {
    Status wrote = WriteOut(snap.ToJson().Dump(2) + "\n", options.json_path);
    if (!wrote.ok()) {
      std::fprintf(stderr, "%s\n", wrote.ToString().c_str());
      return 2;
    }
  } else {
    std::fputs(snap.RenderTable().c_str(), stdout);
  }
  if (options.check && !CheckSnapshot(snap, options)) {
    return 1;
  }
  return 0;
}

int RunWatch(const CliOptions& options) {
  auto demo = Demo::Boot(options);
  if (!demo.ok()) {
    std::fprintf(stderr, "boot failed: %s\n",
                 demo.status().ToString().c_str());
    return 2;
  }
  telemetry::TelemetrySnapshot prev;
  for (std::uint32_t interval = 0; interval < options.intervals;
       ++interval) {
    Status ran = (*demo)->RunWorkload(options.ops);
    if (!ran.ok()) {
      std::fprintf(stderr, "workload failed: %s\n", ran.ToString().c_str());
      return 2;
    }
    auto snap = (*demo)->client->TelemetryQuery(0, options.prefix, false);
    if (!snap.ok()) {
      std::fprintf(stderr, "telemetry query failed: %s\n",
                   snap.status().ToString().c_str());
      return 2;
    }
    AsciiTable table({"metric", "value", "delta"});
    for (const telemetry::MetricValue& m : snap->metrics) {
      std::uint64_t now = 0;
      if (m.kind == telemetry::MetricKind::kCounter) {
        now = m.value;
      } else if (m.kind == telemetry::MetricKind::kGauge) {
        now = std::uint64_t(m.gauge);
      } else if (m.kind == telemetry::MetricKind::kHistogram) {
        now = m.count;
      } else {
        continue;  // timestamps churn by definition; skip in watch
      }
      const std::uint64_t before = prev.ValueOr(m.path, 0);
      if (now == before) continue;
      const std::int64_t delta = std::int64_t(now) - std::int64_t(before);
      table.AddRow({m.path, std::to_string(now),
                    Cat(delta >= 0 ? "+" : "", std::to_string(delta))});
    }
    std::printf("--- interval %u/%u\n", interval + 1, options.intervals);
    table.Print();
    prev = std::move(*snap);
  }
  return 0;
}

int RunDiff(const CliOptions& options) {
  if (options.positional.size() != 2) {
    Usage();
    return 2;
  }
  auto a = LoadSnapshotJson(options.positional[0]);
  auto b = LoadSnapshotJson(options.positional[1]);
  if (!a.ok() || !b.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 (!a.ok() ? a.status() : b.status()).ToString().c_str());
    return 2;
  }
  AsciiTable table({"metric", options.positional[0], options.positional[1],
                    "delta"});
  std::size_t differing = 0;
  auto add_row = [&](const std::string& path, std::uint64_t va,
                     std::uint64_t vb) {
    if (va == vb) return;
    ++differing;
    const std::int64_t delta = std::int64_t(vb) - std::int64_t(va);
    table.AddRow({path, std::to_string(va), std::to_string(vb),
                  Cat(delta >= 0 ? "+" : "", std::to_string(delta))});
  };
  // Walk the union of paths (both metric lists are path-ordered).
  std::size_t ia = 0;
  std::size_t ib = 0;
  auto scalar = [](const telemetry::MetricValue& m) {
    if (m.kind == telemetry::MetricKind::kGauge) {
      return std::uint64_t(m.gauge);
    }
    if (m.kind == telemetry::MetricKind::kHistogram) return m.count;
    return m.value;
  };
  while (ia < a->metrics.size() || ib < b->metrics.size()) {
    if (ib >= b->metrics.size() ||
        (ia < a->metrics.size() &&
         a->metrics[ia].path < b->metrics[ib].path)) {
      add_row(a->metrics[ia].path, scalar(a->metrics[ia]), 0);
      ++ia;
    } else if (ia >= a->metrics.size() ||
               b->metrics[ib].path < a->metrics[ia].path) {
      add_row(b->metrics[ib].path, 0, scalar(b->metrics[ib]));
      ++ib;
    } else {
      add_row(a->metrics[ia].path, scalar(a->metrics[ia]),
              scalar(b->metrics[ib]));
      ++ia;
      ++ib;
    }
  }
  if (differing == 0) {
    std::printf("snapshots agree on every metric\n");
  } else {
    table.Print();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  CliOptions options;
  if (!ParseArgs(argc, argv, &options)) {
    Usage();
    return 2;
  }
  if (options.command == "dump") return RunDump(options);
  if (options.command == "watch") return RunWatch(options);
  if (options.command == "diff") return RunDiff(options);
  Usage();
  return 2;
}
