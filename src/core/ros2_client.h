// ROS2 public API (§3): cluster fixture, DPU agent, and client.
//
// Deployment modes mirror the paper's comparison:
//
//  - HOST DIRECT: the DAOS/DFS client stack runs on the computing server's
//    CPUs; the application calls straight into it.
//  - DPU OFFLOAD: the client stack runs on the BlueField-3. The host talks
//    to the DpuAgent over the gRPC-like control channel for session and
//    namespace operations; file payloads terminate in DPU DRAM, crossing
//    to host memory (or GPU HBM) only through an explicit staging copy —
//    or not at all with GPUDirect placement (§3.5).
//
// Either way the DAOS engine is untouched: the client side is the only
// thing that moves, which is the paper's architectural claim.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/control_plane.h"
#include "core/gpu.h"
#include "core/tenant.h"
#include "daos/client.h"
#include "daos/cluster.h"
#include "daos/engine.h"
#include "dfs/dfs.h"
#include "net/fabric.h"
#include "perf/types.h"
#include "storage/nvme_device.h"

namespace ros2::core {

/// Everything on the storage-server side plus the fabric: a one-engine
/// daos::Cluster (the unmodified DAOS engine on `num_ssds` sparse NVMe
/// devices), tenants, and the control-plane service.
class Ros2Cluster {
 public:
  struct Config {
    std::uint32_t num_ssds = 1;
    std::uint32_t engine_targets = 16;
    std::uint64_t scm_per_target = 64ull * 1024 * 1024;
    std::string pool_label = "pool0";
    std::string pool_token;
    std::string container_label = "posix";
  };

  /// Aborts with the boot Status message if the cluster cannot boot.
  Ros2Cluster();  ///< default Config
  explicit Ros2Cluster(Config config);
  ~Ros2Cluster();

  net::Fabric* fabric() { return cluster_->fabric(); }
  daos::DaosEngine* engine() { return cluster_->engine(0); }
  daos::Cluster* daos_cluster() { return cluster_.get(); }
  TenantRegistry* tenants() { return &tenants_; }
  Ros2ControlService* control() { return control_.get(); }
  storage::NvmeDevice* device(std::uint32_t i) { return cluster_->device(i); }
  const Config& config() const { return config_; }

 private:
  Config config_;
  std::unique_ptr<daos::Cluster> cluster_;
  TenantRegistry tenants_;
  std::unique_ptr<Ros2ControlService> control_;
};

/// Client configuration (one per application/tenant connection).
struct ClientConfig {
  /// kServerHost = host-direct; kBlueField3 = DPU-offloaded client stack.
  perf::Platform platform = perf::Platform::kServerHost;
  net::Transport transport = net::Transport::kRdma;
  std::string tenant_name;
  std::string tenant_token;
  /// DPU-resident inline encryption (ChaCha20, per-tenant key).
  bool inline_crypto = false;
  /// Container to mount; created on first use when absent.
  std::string container_label;  // empty = cluster default
  /// Unique fabric address for this client's endpoint (auto if empty).
  std::string client_address;
};

struct ClientCounters {
  std::uint64_t control_calls = 0;      ///< gRPC-like messages
  std::uint64_t staging_copies = 0;     ///< DPU DRAM <-> host/GPU copies
  std::uint64_t staging_bytes = 0;
  std::uint64_t encrypted_bytes = 0;
  std::uint64_t decrypted_bytes = 0;
};

/// The ROS2 client: POSIX-style file API in front of the (possibly
/// offloaded) DFS stack.
class Ros2Client {
 public:
  static Result<std::unique_ptr<Ros2Client>> Connect(Ros2Cluster* cluster,
                                                     ClientConfig config);
  ~Ros2Client();

  // --- namespace (control-plane path when offloaded) ----------------------
  Status Mkdir(const std::string& path, std::uint32_t mode = 0755);
  Result<dfs::Fd> Open(const std::string& path, dfs::OpenFlags flags,
                       std::uint32_t mode = 0644);
  Status Close(dfs::Fd fd);
  Result<dfs::DfsStat> Stat(const std::string& path);
  Result<std::vector<dfs::DirEntry>> Readdir(const std::string& path);
  Status Unlink(const std::string& path);
  Status Rename(const std::string& from, const std::string& to);
  Status Fsync(dfs::Fd fd);

  // --- data plane ----------------------------------------------------------
  /// pread(2)-style: returns bytes read. When offloaded, payloads land in
  /// DPU DRAM and reach `out` through a counted staging copy.
  Result<std::uint64_t> Pread(dfs::Fd fd, std::uint64_t offset,
                              std::span<std::byte> out);
  Status Pwrite(dfs::Fd fd, std::uint64_t offset,
                std::span<const std::byte> data);

  /// GPU placement (§3.5). With `gpudirect` the storage server's RDMA
  /// writes target the GPU buffer itself (requires RDMA transport and no
  /// inline crypto); otherwise the payload stages through DPU DRAM.
  Result<std::uint64_t> PreadGpu(dfs::Fd fd, std::uint64_t offset,
                                 GpuBuffer* gpu, std::size_t gpu_offset,
                                 std::size_t length, bool gpudirect);

  // --- introspection -------------------------------------------------------
  std::uint64_t session() const { return session_; }
  net::TenantId tenant() const { return tenant_; }
  perf::Platform platform() const { return config_.platform; }
  net::Transport transport() const { return config_.transport; }
  bool inline_crypto() const { return config_.inline_crypto; }
  bool offloaded() const {
    return config_.platform == perf::Platform::kBlueField3;
  }
  const ClientCounters& counters() const { return counters_; }
  dfs::Dfs* dfs() { return dfs_.get(); }
  daos::DaosClient* daos_client() { return daos_.get(); }

 private:
  Ros2Client(Ros2Cluster* cluster, ClientConfig config)
      : cluster_(cluster), config_(std::move(config)) {}

  /// QoS admission via the control plane's grant method.
  Status AdmitBytes(std::uint64_t bytes);
  Status CryptInPlace(dfs::Fd fd, std::uint64_t offset,
                      std::span<std::byte> data, bool encrypt);

  Ros2Cluster* cluster_;
  ClientConfig config_;
  std::unique_ptr<rpc::ControlChannel> control_;
  std::unique_ptr<daos::DaosClient> daos_;
  std::unique_ptr<dfs::Dfs> dfs_;
  daos::ContainerId container_ = 0;
  std::uint64_t session_ = 0;
  net::TenantId tenant_ = 0;
  ChaChaKey crypto_key_{};
  Buffer dpu_dram_;  ///< staging buffer standing in for DPU memory
  ClientCounters counters_;
};

}  // namespace ros2::core
