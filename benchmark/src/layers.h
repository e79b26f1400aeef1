// Per-layer metrics: counters read from public accessors before and after
// the timed phase (both runs), and span means with self times (traced run).
//
// Read-path ladder, each layer's self time being its mean span minus the
// means of the child spans it covers (means add up; medians do not):
//
//   core.pread   = core.self + core.control.grant + [core.crypto] + dfs.read
//   dfs.read     = dfs.self + daos.fetch
//   daos.fetch   = daos.client_self + rpc.obj_fetch.total (engine side)
//   rpc total    = engine self + vos.fetch
#pragma once

#include <cstdint>

#include "core/ros2_client.h"
#include "report.h"
#include "runner.h"
#include "telemetry/snapshot.h"

namespace wallbench {

struct LayerSnapshot {
  ros2::core::ClientCounters client;
  ros2::telemetry::TelemetrySnapshot dfs;     ///< dfs/*
  ros2::telemetry::TelemetrySnapshot engine;  ///< rpc/, net/, sched/
  std::uint64_t mr_hits = 0;    ///< client endpoint's MR cache
  std::uint64_t mr_misses = 0;
  ros2::net::Endpoint::Traffic client_traffic;
  std::uint64_t nvme_read = 0;  ///< summed over the cluster's devices
  std::uint64_t nvme_written = 0;
  std::uint64_t scm_bytes = 0;  ///< summed over every target's VOS
  std::uint64_t nvme_bytes = 0;
  std::uint64_t records = 0;
};

LayerSnapshot CaptureLayers(Rig& rig);

/// Adds the per-layer metrics for the timed phase between `before` and
/// `after`. The BENCHMARK.json per_layer set goes into the JSON line when
/// the run is traced; the rest (and every counter of an untraced run) is
/// printed only.
void AddLayerMetrics(const LayerSnapshot& before, const LayerSnapshot& after,
                     const Runner& runner, const Deployment& deployment,
                     Report& report);

}  // namespace wallbench
