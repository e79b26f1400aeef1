#include "daos/rebuild.h"

#include <set>

namespace ros2::daos {

RebuildManager::RebuildManager(std::unique_ptr<DaosClient> client)
    : client_(std::move(client)), map_(client_->pool_map()) {
  for (std::uint32_t e = 0; e < client_->engine_count(); ++e) {
    stats_.push_back(std::make_unique<PerEngine>());
  }
}

Result<std::vector<ResyncEntry>> RebuildManager::ScanSurvivors(
    std::uint32_t engine) {
  const std::uint32_t n = client_->engine_count();
  std::set<ResyncEntry> owed;
  bool any_survivor = false;
  for (std::uint32_t s = 0; s < n; ++s) {
    if (s == engine || !map_->readable(s)) continue;
    any_survivor = true;
    ROS2_ASSIGN_OR_RETURN(std::vector<ResyncEntry> resident,
                          client_->ScanEngine(s));
    for (ResyncEntry& entry : resident) {
      // Does the rebuilt engine owe a copy (is it on the dkey's ring)?
      const std::uint32_t primary =
          client_->PrimaryEngine(entry.oid, entry.dkey);
      for (std::uint32_t r = 0; r < client_->replicas(); ++r) {
        if (client_->ReplicaEngine(primary, r) == engine) {
          owed.insert(std::move(entry));
          break;
        }
      }
    }
  }
  if (!any_survivor && n > 1) {
    return Status(Unavailable("no UP survivor to rebuild from"));
  }
  return std::vector<ResyncEntry>(owed.begin(), owed.end());
}

Status RebuildManager::Resilver(std::uint32_t engine,
                                const ResyncEntry& entry) {
  const std::uint32_t n = client_->engine_count();
  const std::uint32_t primary = client_->PrimaryEngine(entry.oid, entry.dkey);
  std::uint32_t source = n;
  for (std::uint32_t r = 0; r < client_->replicas(); ++r) {
    const std::uint32_t s = client_->ReplicaEngine(primary, r);
    if (s != engine && map_->readable(s)) {
      source = s;
      break;
    }
  }
  if (source == n) {
    return Unavailable("no UP replica of dkey '" + entry.dkey +
                       "' to rebuild from (pool map v" +
                       std::to_string(map_->version()) + ")");
  }
  ROS2_ASSIGN_OR_RETURN(Buffer image, client_->ExportDkey(source, entry));
  ROS2_ASSIGN_OR_RETURN(std::uint64_t bytes,
                        client_->ImportDkey(engine, entry, image));
  stats_[engine]->bytes_copied.Add(bytes);
  return Status::Ok();
}

Status RebuildManager::DrainPass(std::uint32_t engine, bool* was_empty) {
  std::vector<ResyncEntry> drained = map_->journal().Drain(engine);
  *was_empty = drained.empty();
  for (const ResyncEntry& entry : drained) {
    ROS2_RETURN_IF_ERROR(Resilver(engine, entry));
    stats_[engine]->journal_replayed.Add(1);
    stats_[engine]->done.fetch_add(1, std::memory_order_relaxed);
  }
  if (!drained.empty()) stats_[engine]->passes.Add(1);
  return Status::Ok();
}

Status RebuildManager::Rebuild(std::uint32_t engine) {
  if (engine >= stats_.size()) return InvalidArgument("no such engine");
  if (map_->state(engine) == EngineState::kUp) {
    return FailedPrecondition("engine " + std::to_string(engine) +
                              " is UP; nothing to rebuild");
  }
  PerEngine& st = *stats_[engine];
  st.complete.store(false, std::memory_order_release);
  st.planned.store(0, std::memory_order_relaxed);
  st.done.store(0, std::memory_order_relaxed);
  // REBUILDING: writes start landing on the replacement again (and racing
  // writes journal post-completion); reads keep failing over.
  ROS2_RETURN_IF_ERROR(map_->SetState(engine, EngineState::kRebuilding));

  // Bulk scan, then the first journal drain folded in (everything the
  // engine missed while DOWN): one deduplicated worklist.
  ROS2_ASSIGN_OR_RETURN(std::vector<ResyncEntry> owed,
                        ScanSurvivors(engine));
  std::uint64_t journal_merged = 0;
  {
    std::set<ResyncEntry> merged(owed.begin(), owed.end());
    for (ResyncEntry& entry : map_->journal().Drain(engine)) {
      ++journal_merged;
      merged.insert(std::move(entry));
    }
    owed.assign(merged.begin(), merged.end());
  }
  st.planned.store(owed.size(), std::memory_order_relaxed);
  for (const ResyncEntry& entry : owed) {
    ROS2_RETURN_IF_ERROR(Resilver(engine, entry));
    st.dkeys_scanned.Add(1);
    st.done.fetch_add(1, std::memory_order_relaxed);
  }
  // The folded-in journal entries were replayed as part of the worklist.
  if (journal_merged > 0) st.journal_replayed.Add(journal_merged);
  st.passes.Add(1);

  // Converge on the journal: foreground writes that degraded (or raced an
  // import on the REBUILDING engine) keep feeding it; each pass re-silvers
  // survivor HEAD, which includes those writes.
  bool empty = false;
  for (std::uint32_t pass = 0; pass < kMaxJournalPasses && !empty;
       ++pass) {
    ROS2_RETURN_IF_ERROR(DrainPass(engine, &empty));
  }
  if (!empty) {
    return Unavailable(
        "resync journal did not quiesce within " +
        std::to_string(kMaxJournalPasses) +
        " passes; engine left REBUILDING (writes land, reads fail over)");
  }
  ROS2_RETURN_IF_ERROR(map_->SetState(engine, EngineState::kUp));
  // Entries recorded between the last empty pass and the UP transition:
  // sweep once more (an in-flight write can still journal after this —
  // Resync() catches those once traffic quiesces).
  ROS2_RETURN_IF_ERROR(DrainPass(engine, &empty));
  st.complete.store(true, std::memory_order_release);
  return Status::Ok();
}

Status RebuildManager::Resync(std::uint32_t engine) {
  if (engine >= stats_.size()) return InvalidArgument("no such engine");
  bool empty = false;
  for (std::uint32_t pass = 0; pass < kMaxJournalPasses && !empty;
       ++pass) {
    ROS2_RETURN_IF_ERROR(DrainPass(engine, &empty));
  }
  if (!empty) {
    return Unavailable("resync journal did not quiesce within " +
                       std::to_string(kMaxJournalPasses) + " passes");
  }
  return Status::Ok();
}

std::uint64_t RebuildManager::dkeys_scanned(std::uint32_t engine) const {
  return engine < stats_.size() ? stats_[engine]->dkeys_scanned.value() : 0;
}
std::uint64_t RebuildManager::bytes_copied(std::uint32_t engine) const {
  return engine < stats_.size() ? stats_[engine]->bytes_copied.value() : 0;
}
std::uint64_t RebuildManager::journal_replayed(std::uint32_t engine) const {
  return engine < stats_.size() ? stats_[engine]->journal_replayed.value()
                                : 0;
}
std::uint64_t RebuildManager::passes(std::uint32_t engine) const {
  return engine < stats_.size() ? stats_[engine]->passes.value() : 0;
}

std::int64_t RebuildManager::progress(std::uint32_t engine) const {
  if (engine >= stats_.size()) return 0;
  const PerEngine& st = *stats_[engine];
  if (st.complete.load(std::memory_order_acquire)) return 100;
  const std::uint64_t planned = st.planned.load(std::memory_order_relaxed);
  if (planned == 0) return 0;
  const std::uint64_t done = st.done.load(std::memory_order_relaxed);
  return std::int64_t(done >= planned ? 99 : done * 100 / planned);
}

void RebuildManager::AttachTelemetry(telemetry::Telemetry* tree) {
  if (tree == nullptr) return;
  for (std::uint32_t e = 0; e < stats_.size(); ++e) {
    const std::string base = "rebuild/" + std::to_string(e) + "/";
    tree->LinkCounter(base + "dkeys_scanned", &stats_[e]->dkeys_scanned);
    tree->LinkCounter(base + "bytes_copied", &stats_[e]->bytes_copied);
    tree->LinkCounter(base + "journal_replayed",
                      &stats_[e]->journal_replayed);
    tree->LinkCounter(base + "passes", &stats_[e]->passes);
    tree->RegisterCallback(base + "progress",
                           [this, e] { return progress(e); });
  }
}

}  // namespace ros2::daos
