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
// The manager holds only rebuild policy (which engine owes a dkey, which
// replica to copy it from, the journal loop and its counters). It moves
// data through a DaosClient it owns, whose engine-addressed scan, export
// and import calls share the one client stack and its PoolMap (and
// journal) with the control plane and the data-path clients, like
// upstream migration reading survivors through the object client.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/status.h"
#include "daos/client.h"
#include "daos/pool_map.h"
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
  /// Rebuilds through `client`, whose pool map is the shared health
  /// authority and whose replica count decides which dkeys an engine
  /// owes. daos::Cluster::NewRebuildManager connects it.
  explicit RebuildManager(std::unique_ptr<DaosClient> client);

  RebuildManager(const RebuildManager&) = delete;
  RebuildManager& operator=(const RebuildManager&) = delete;

  /// Full rebuild of `engine` (currently DOWN or REBUILDING): scan,
  /// re-silver, drain the journal, mark UP. On success the engine serves
  /// reads again and holds a byte-identical HEAD copy of every dkey it
  /// owes. Fails without marking UP when no survivor covers some dkey or
  /// the journal refuses to quiesce within kMaxJournalPasses. The copies
  /// go through DaosClient calls, so an engine marked DOWN mid-rebuild
  /// fails it fast with UNAVAILABLE instead of receiving imports; rebuild
  /// it again once it returns (the survivor scan re-derives the worklist).
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

  /// Journal-drain passes before giving up (a pass that finds the
  /// journal empty ends the loop early).
  static constexpr std::uint32_t kMaxJournalPasses = 64;

  /// Export (cont, oid, dkey) from its first UP replica other than
  /// `engine` and import onto `engine`.
  Status Resilver(std::uint32_t engine, const ResyncEntry& entry);
  /// Survivor bulk scan: every dkey in the pool whose replica ring
  /// contains `engine`.
  Result<std::vector<ResyncEntry>> ScanSurvivors(std::uint32_t engine);
  Status DrainPass(std::uint32_t engine, bool* was_empty);

  std::unique_ptr<DaosClient> client_;
  PoolMap* map_ = nullptr;
  std::vector<std::unique_ptr<PerEngine>> stats_;
};

}  // namespace ros2::daos
