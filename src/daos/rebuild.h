// Background replica rebuild (DAOS's rebuild/reintegration service,
// upstream src/rebuild + src/object/srv_obj_migrate.c).
//
// When an engine returns after a failure, its replicas are stale: every
// write issued while it was DOWN skipped it (journaled in the pool map's
// resync journal), and everything it held before the failure is treated as
// lost. The RebuildManager re-silvers the replacement from the surviving
// replicas:
//
//   1. DOWN -> REBUILDING (new writes start landing on the replacement
//      again while history backfills).
//   2. Bulk scan: every survivor enumerates its (oid, dkey) pairs
//      (kObjScan); entries whose replica ring contains the rebuilt engine
//      are re-silvered — export the dkey's HEAD image from the first UP
//      replica (kDkeyExport), import it onto the replacement
//      (kDkeyImport). Imports are deferred per-target ops on the
//      replacement's xstreams, so they interleave with foreground traffic
//      instead of stalling it.
//   3. Journal drain loop: writes that degraded while the engine was DOWN
//      — and writes that raced an import while it was REBUILDING (marked
//      post-completion, see pool_map.h) — sit in the resync journal;
//      drain and re-silver until a pass finds it empty.
//   4. REBUILDING -> UP, plus one final drain for entries recorded
//      between the last pass and the transition. A write still in flight
//      at that instant can leave a journal entry behind; Resync() drains
//      such stragglers once traffic quiesces (DAOS's incremental
//      reintegration tick).
//
// The manager is a pool-service client: it owns its own fabric endpoint
// and an RPC connection per engine, and shares the PoolMap (and its
// journal) with the control plane and the data-path clients.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "daos/engine.h"
#include "daos/pool_map.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"
#include "telemetry/metrics.h"

namespace ros2::daos {

/// Single-owner concurrency contract: exactly one thread drives
/// Start/Step/Run (the orchestrator), so the worklist and cursors are
/// deliberately unguarded — no common::Mutex, nothing GUARDED_BY. The
/// pieces other threads DO observe are the atomic progress counters
/// (telemetry reads them) and the PoolMap/ResyncJournal, which carry
/// their own annotated locks. Adding cross-thread mutation here means
/// adding a common::Mutex and annotations first (scripts/lint.sh rejects
/// an unannotated raw mutex member).
class RebuildManager {
 public:
  struct Options {
    std::string address = "fabric://daos-rebuild";
    net::Transport transport = net::Transport::kRdma;
    std::string pool_label = "pool0";
    std::string access_token;
    net::TenantId tenant = net::kSystemTenant;
    /// Must match the data-path clients' replication factor: the ring
    /// membership test uses it to decide which dkeys the rebuilt engine
    /// owes a copy of.
    std::uint32_t replicas = 1;
    /// Journal-drain passes before giving up (a pass that finds the
    /// journal empty ends the loop early).
    std::uint32_t max_journal_passes = 64;
  };

  /// Dials every engine (PoolConnect handshake included). `pool_map` is
  /// the shared health authority; must outlive the manager and have
  /// engine_count == engines.size(). `progress_pump` as in
  /// DaosClient::Connect. daos::Cluster::NewRebuildManager fills in
  /// everything but `options`.
  static Result<std::unique_ptr<RebuildManager>> Create(
      net::Fabric* fabric, std::span<DaosEngine* const> engines,
      PoolMap* pool_map, bool progress_pump, const Options& options);

  RebuildManager(const RebuildManager&) = delete;
  RebuildManager& operator=(const RebuildManager&) = delete;

  /// Full rebuild of `engine` (currently DOWN or REBUILDING): scan,
  /// re-silver, drain the journal, mark UP. On success the engine serves
  /// reads again and holds a byte-identical HEAD copy of every dkey it
  /// owes. Fails without marking UP when no survivor covers some dkey or
  /// the journal refuses to quiesce within max_journal_passes.
  Status Rebuild(std::uint32_t engine);

  /// Drains whatever the resync journal currently holds for `engine`
  /// (which may be UP) and re-silvers those dkeys. The post-rebuild
  /// straggler sweep — cheap when the journal is empty.
  Status Resync(std::uint32_t engine);

  // Per-engine rebuild observables (cumulative across rebuilds).
  std::uint64_t dkeys_scanned(std::uint32_t engine) const;
  std::uint64_t bytes_copied(std::uint32_t engine) const;
  std::uint64_t journal_replayed(std::uint32_t engine) const;
  std::uint64_t passes(std::uint32_t engine) const;
  /// 0..100 through the current rebuild; 100 once it completed.
  std::int64_t progress(std::uint32_t engine) const;

  /// Registers rebuild/<engine>/{dkeys_scanned,bytes_copied,
  /// journal_replayed,passes,progress} in `tree`. The manager must
  /// outlive the tree (linked counters + callback views).
  void AttachTelemetry(telemetry::Telemetry* tree);

 private:
  /// Per-engine counters, telemetry-linkable (the tree is the one home
  /// for stats — no ad-hoc struct copies).
  struct PerEngine {
    telemetry::Counter dkeys_scanned{1};
    telemetry::Counter bytes_copied{1};
    telemetry::Counter journal_replayed{1};
    telemetry::Counter passes{1};
    std::atomic<std::uint64_t> planned{0};
    std::atomic<std::uint64_t> done{0};
    std::atomic<bool> complete{false};
  };

  RebuildManager() = default;

  /// Export (cont, oid, dkey) from its first UP surviving replica and
  /// import onto `engine`.
  Status Resilver(std::uint32_t engine, const ResyncEntry& entry);
  /// Survivor bulk scan: every dkey in the pool whose replica ring
  /// contains `engine`.
  Result<std::vector<ResyncEntry>> ScanSurvivors(std::uint32_t engine);
  Status DrainPass(std::uint32_t engine, bool* was_empty);

  std::vector<std::unique_ptr<rpc::RpcClient>> rpcs_;
  std::vector<std::unique_ptr<PerEngine>> stats_;
  PoolMap* map_ = nullptr;
  std::uint32_t replicas_ = 1;
  std::uint32_t max_journal_passes_ = 64;
};

}  // namespace ros2::daos
