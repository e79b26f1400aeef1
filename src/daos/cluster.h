// One booted DAOS deployment: N engines on M sparse NVMe SSDs each, their
// fabric, and the one PoolMap of the pool. The paper compares deployments
// of one unchanged engine (host vs BlueField-3 client, RDMA vs TCP, one
// SSD vs four); this is the single way to stand one up, so the rules every
// boot site must agree on live here: engines come only from
// DaosEngine::Create, every client and rebuild manager shares the map, and
// they pump the engines exactly when no progress thread serves them.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "common/status.h"
#include "daos/client.h"
#include "daos/engine.h"
#include "daos/pool_map.h"
#include "daos/rebuild.h"
#include "net/fabric.h"
#include "storage/nvme_device.h"

namespace ros2::daos {

struct ClusterSpec {
  /// A one-engine cluster listens at engine.address; engine i of several
  /// at engine.address + "-<i>".
  std::uint32_t engines = 1;
  /// Sparse 64 GiB devices (free per unwritten byte), partitioned
  /// round-robin among the engine's targets.
  std::uint32_t ssds_per_engine = 1;
  /// Every engine's configuration (address derived as above).
  EngineConfig engine;
  /// True: every engine runs a progress thread and the cluster's clients
  /// and rebuild managers get no progress hook. False: they pump.
  bool progress_threads = false;
};

class Cluster {
 public:
  /// INVALID_ARGUMENT for zero engines, SSDs or targets.
  [[nodiscard]] static Result<std::unique_ptr<Cluster>> Boot(
      ClusterSpec spec);

  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;
  ~Cluster() = default;

  net::Fabric* fabric() { return &fabric_; }
  DaosEngine* engine(std::uint32_t i) const { return raw_engines_.at(i); }
  std::span<DaosEngine* const> engines() const { return raw_engines_; }
  PoolMap* pool_map() { return &map_; }
  /// SSD `i` in boot order (engine e owns the e-th run of
  /// ssds_per_engine); nullptr past the end.
  storage::NvmeDevice* device(std::uint32_t i) const {
    return i < devices_.size() ? devices_[i].get() : nullptr;
  }

  /// DaosClient::Connect over every engine, with the shared map and
  /// progress_pump = !spec.progress_threads filled in.
  Result<std::unique_ptr<DaosClient>> Connect(
      const DaosClient::ConnectOptions& options);
  /// A RebuildManager on a client connected as above; `options.replicas`
  /// must match the data-path clients'.
  Result<std::unique_ptr<RebuildManager>> NewRebuildManager(
      const DaosClient::ConnectOptions& options);

 private:
  explicit Cluster(ClusterSpec spec);

  ClusterSpec spec_;
  net::Fabric fabric_;
  std::vector<std::unique_ptr<storage::NvmeDevice>> devices_;
  std::vector<std::unique_ptr<DaosEngine>> engines_;
  std::vector<DaosEngine*> raw_engines_;
  PoolMap map_;
};

}  // namespace ros2::daos
