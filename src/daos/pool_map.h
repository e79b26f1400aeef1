// Versioned pool map + per-engine resync journal (the DAOS pool map /
// rebuild-log shape, upstream src/pool + src/object/srv_obj_migrate.c).
//
// The pool map is the one authority on engine health. Each engine is UP,
// DOWN, or REBUILDING; every transition bumps a monotonic version, so any
// observer can tell "the map changed since I routed" apart from "my send
// raced the transition". Routing policy (enforced by DaosClient and the
// RebuildManager):
//
//   - reads     -> UP engines only (a REBUILDING engine may lack data)
//   - writes    -> UP and REBUILDING engines (new data lands on the
//                  replacement while the rebuild task backfills history)
//   - metadata  -> DOWN engines reject; no degraded mode for metadata
//
// Degraded writes do not fail: a replica copy that cannot land (engine
// DOWN, or a send that raced the down-transition) is recorded in the
// journal as {container, object, dkey} — the unit of placement — and the
// rebuild task replays the journal after its bulk scan. Writes that land
// on a REBUILDING engine are ALSO journaled (post-completion): the rebuild
// pass may overwrite the dkey with older survivor content at a higher
// epoch, and the journal replay re-silvers survivor HEAD (which includes
// the completed write), so the loop converges to byte-equality.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/thread_annotations.h"
#include "daos/types.h"
#include "telemetry/metrics.h"

namespace ros2::daos {

enum class EngineState : std::uint8_t {
  kUp = 0,
  kDown = 1,
  kRebuilding = 2,
};

const char* EngineStateName(EngineState state);

/// One missed (or rebuild-racing) replica write: the dkey to re-silver.
struct ResyncEntry {
  ContainerId cont = 0;
  ObjectId oid;
  std::string dkey;

  friend bool operator<(const ResyncEntry& a, const ResyncEntry& b) {
    if (a.cont != b.cont) return a.cont < b.cont;
    if (a.oid.hi != b.oid.hi) return a.oid.hi < b.oid.hi;
    if (a.oid.lo != b.oid.lo) return a.oid.lo < b.oid.lo;
    return a.dkey < b.dkey;
  }
  friend bool operator==(const ResyncEntry& a, const ResyncEntry& b) {
    return a.cont == b.cont && a.oid.hi == b.oid.hi && a.oid.lo == b.oid.lo &&
           a.dkey == b.dkey;
  }
};

/// Per-engine set of dkeys owed a replica copy. Deduplicated: a dkey
/// written a thousand times while its replica was down is re-silvered
/// once. Thread-safe (clients journal from their threads; the rebuild
/// task drains from its own).
class ResyncJournal {
 public:
  explicit ResyncJournal(std::uint32_t engines);
  ResyncJournal(const ResyncJournal&) = delete;
  ResyncJournal& operator=(const ResyncJournal&) = delete;

  void Record(std::uint32_t engine, ResyncEntry entry);
  /// Takes (and clears) the engine's pending set.
  std::vector<ResyncEntry> Drain(std::uint32_t engine);

  std::size_t depth(std::uint32_t engine) const;
  std::size_t total_depth() const;

  /// Entries ever recorded (dedup hits included count once; an entry a
  /// failed rebuild pass puts back counts again) — the telemetry tree
  /// links this counter.
  std::uint64_t recorded() const { return recorded_.value(); }
  const telemetry::Counter& recorded_counter() const { return recorded_; }

 private:
  struct PerEngine {
    mutable common::Mutex mu;
    std::set<ResyncEntry> entries ROS2_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<PerEngine>> engines_;
  telemetry::Counter recorded_{1};
};

/// The versioned engine-state map. Shared by the control plane, every
/// client, and the rebuild task; all of them see one truth. State reads
/// are single relaxed atomic loads (the data-path cost), transitions take
/// the map mutex and bump the version.
class PoolMap {
 public:
  explicit PoolMap(std::uint32_t engines);
  PoolMap(const PoolMap&) = delete;
  PoolMap& operator=(const PoolMap&) = delete;

  std::uint32_t engine_count() const {
    return std::uint32_t(states_.size());
  }
  EngineState state(std::uint32_t engine) const {
    if (engine >= states_.size()) return EngineState::kDown;
    return EngineState(states_[engine].load(std::memory_order_acquire));
  }
  /// UP only: a REBUILDING engine may not have the data yet.
  bool readable(std::uint32_t engine) const {
    return state(engine) == EngineState::kUp;
  }
  /// UP or REBUILDING: new writes land on the replacement while the
  /// rebuild backfills.
  bool writable(std::uint32_t engine) const {
    return state(engine) != EngineState::kDown;
  }

  /// Transitions `engine` and bumps the version (idempotent transitions
  /// still bump: the observer contract is "version moved => re-read").
  Status SetState(std::uint32_t engine, EngineState state);

  /// Monotonic: starts at 1, bumps on every SetState.
  std::uint64_t version() const {
    return version_.load(std::memory_order_acquire);
  }
  std::uint64_t transitions() const { return transitions_.value(); }

  ResyncJournal& journal() { return journal_; }
  const ResyncJournal& journal() const { return journal_; }

  /// Registers the map's observables under pool_map/ in `tree`: version,
  /// per-engine state, journal depth + recorded total. The map must
  /// outlive the tree (callback views).
  void AttachTelemetry(telemetry::Telemetry* tree);

 private:
  std::vector<std::atomic<std::uint8_t>> states_;
  std::atomic<std::uint64_t> version_{1};
  telemetry::Counter transitions_{1};
  /// Serializes SetState (state+version move together). Nothing is read
  /// under it — states_ stays lock-free for the data path — so no member
  /// is GUARDED_BY it; the capability only orders writers.
  common::Mutex mu_;
  ResyncJournal journal_;
};

}  // namespace ros2::daos
