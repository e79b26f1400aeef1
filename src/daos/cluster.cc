#include "daos/cluster.h"

#include <string>
#include <utility>

#include "common/heap.h"

namespace ros2::daos {

Cluster::Cluster(ClusterSpec spec)
    : spec_(std::move(spec)), map_(spec_.engines) {}

Result<std::unique_ptr<Cluster>> Cluster::Boot(ClusterSpec spec) {
  if (spec.engines == 0) {
    return Status(InvalidArgument("cluster needs at least one engine"));
  }
  common::KeepFreedHeapResident();
  auto cluster = std::unique_ptr<Cluster>(new Cluster(std::move(spec)));
  const ClusterSpec& s = cluster->spec_;
  for (std::uint32_t e = 0; e < s.engines; ++e) {
    std::vector<storage::NvmeDevice*> raw;
    for (std::uint32_t d = 0; d < s.ssds_per_engine; ++d) {
      storage::NvmeDeviceConfig dev;
      dev.model = "SIM-NVME-" + std::to_string(cluster->devices_.size());
      dev.capacity_bytes = 64ull * 1024 * 1024 * 1024;  // sparse
      cluster->devices_.push_back(std::make_unique<storage::NvmeDevice>(dev));
      raw.push_back(cluster->devices_.back().get());
    }
    EngineConfig config = s.engine;
    if (s.engines > 1) config.address += "-" + std::to_string(e);
    ROS2_ASSIGN_OR_RETURN(
        auto engine, DaosEngine::Create(&cluster->fabric_, config, raw));
    if (s.progress_threads) engine->StartProgressThread();
    cluster->raw_engines_.push_back(engine.get());
    cluster->engines_.push_back(std::move(engine));
  }
  return cluster;
}

Result<std::unique_ptr<DaosClient>> Cluster::Connect(
    const DaosClient::ConnectOptions& options) {
  return DaosClient::Connect(&fabric_, raw_engines_, &map_,
                             !spec_.progress_threads, options);
}

Result<std::unique_ptr<RebuildManager>> Cluster::NewRebuildManager(
    const DaosClient::ConnectOptions& options) {
  ROS2_ASSIGN_OR_RETURN(std::unique_ptr<DaosClient> client, Connect(options));
  return std::make_unique<RebuildManager>(std::move(client));
}

}  // namespace ros2::daos
