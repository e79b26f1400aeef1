#include "core/ros2_client.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "rpc/wire.h"

namespace ros2::core {
namespace {

std::string AutoClientAddress() {
  static std::atomic<std::uint64_t> counter{0};
  return "fabric://ros2-client-" + std::to_string(counter.fetch_add(1));
}

}  // namespace

// ------------------------------------------------------------ Ros2Cluster

Ros2Cluster::Ros2Cluster() : Ros2Cluster(Config()) {}

Ros2Cluster::Ros2Cluster(Config config) : config_(std::move(config)) {
  daos::ClusterSpec spec;
  spec.ssds_per_engine = config_.num_ssds;
  spec.engine.pool_label = config_.pool_label;
  spec.engine.access_token = config_.pool_token;
  spec.engine.targets = config_.engine_targets;
  spec.engine.scm_per_target = config_.scm_per_target;
  auto cluster = daos::Cluster::Boot(std::move(spec));
  if (!cluster.ok()) {
    std::fprintf(stderr, "ros2 cluster boot failed: %s\n",
                 cluster.status().ToString().c_str());
    std::abort();
  }
  cluster_ = std::move(*cluster);
  control_ = std::make_unique<Ros2ControlService>(
      &tenants_, fabric(), config_.pool_label, config_.container_label);
}

Ros2Cluster::~Ros2Cluster() = default;

// ------------------------------------------------------------- Ros2Client

Result<std::unique_ptr<Ros2Client>> Ros2Client::Connect(Ros2Cluster* cluster,
                                                        ClientConfig config) {
  if (cluster == nullptr) return Status(InvalidArgument("null cluster"));
  if (config.client_address.empty()) {
    config.client_address = AutoClientAddress();
  }
  if (config.container_label.empty()) {
    config.container_label = cluster->config().container_label;
  }
  auto client =
      std::unique_ptr<Ros2Client>(new Ros2Client(cluster, config));

  // --- control plane: authenticate and mount (gRPC-like) ---
  client->control_ =
      std::make_unique<rpc::ControlChannel>(cluster->control()->service());
  {
    rpc::Encoder enc;
    enc.Str(config.tenant_name).Str(config.tenant_token);
    ROS2_ASSIGN_OR_RETURN(Buffer reply,
                          client->control_->Call("ros2.auth", enc));
    rpc::Decoder dec(reply);
    ROS2_ASSIGN_OR_RETURN(client->session_, dec.U64());
    ROS2_ASSIGN_OR_RETURN(client->tenant_, dec.U32());
    client->counters_.control_calls++;
  }
  std::string pool_label;
  std::string container_label;
  {
    rpc::Encoder enc;
    enc.U64(client->session_);
    ROS2_ASSIGN_OR_RETURN(Buffer reply,
                          client->control_->Call("ros2.mount", enc));
    rpc::Decoder dec(reply);
    ROS2_ASSIGN_OR_RETURN(pool_label, dec.Str());
    ROS2_ASSIGN_OR_RETURN(container_label, dec.Str());
    client->counters_.control_calls++;
  }
  if (!config.container_label.empty()) {
    container_label = config.container_label;
  }

  // --- data plane: DAOS client under the tenant's protection domain ---
  daos::DaosClient::ConnectOptions daos_options;
  daos_options.client_address = config.client_address;
  daos_options.transport = config.transport;
  daos_options.pool_label = pool_label;
  daos_options.access_token = cluster->config().pool_token;
  daos_options.tenant = client->tenant_;
  ROS2_ASSIGN_OR_RETURN(
      client->daos_,
      cluster->daos_cluster()->Connect(daos_options));

  // Open (or create) the POSIX container and mount DFS.
  auto cont = client->daos_->ContainerOpen(container_label);
  bool fresh = false;
  if (!cont.ok()) {
    cont = client->daos_->ContainerCreate(container_label);
    fresh = true;
  }
  if (!cont.ok()) return cont.status();
  client->container_ = *cont;
  ROS2_ASSIGN_OR_RETURN(
      client->dfs_,
      dfs::Dfs::Mount(client->daos_.get(), client->container_, fresh));

  if (config.inline_crypto) {
    ROS2_ASSIGN_OR_RETURN(Tenant * tenant,
                          cluster->tenants()->Find(client->tenant_));
    client->crypto_key_ = tenant->crypto_key;
  }
  ROS2_INFO << "ros2 client up: " << perf::PlatformName(config.platform)
            << "/" << perf::TransportName(config.transport)
            << (config.inline_crypto ? " +crypto" : "");
  return client;
}

Ros2Client::~Ros2Client() = default;

Status Ros2Client::AdmitBytes(std::uint64_t bytes) {
  rpc::Encoder enc;
  enc.U64(session_).U64(bytes);
  counters_.control_calls++;
  return control_->Call("ros2.grant_qos", enc).status();
}

Status Ros2Client::CryptInPlace(dfs::Fd fd, std::uint64_t offset,
                                std::span<std::byte> data, bool encrypt) {
  ROS2_ASSIGN_OR_RETURN(daos::ObjectId oid, dfs_->Oid(fd));
  ChaCha20Xor(crypto_key_, DeriveNonce(oid.hi, oid.lo), offset, data);
  if (encrypt) {
    counters_.encrypted_bytes += data.size();
  } else {
    counters_.decrypted_bytes += data.size();
  }
  return Status::Ok();
}

// Namespace operations forward to the DFS stack (which runs "on the DPU"
// in offloaded mode; the command itself is what crosses the control
// channel, so we count a control call per namespace op when offloaded).

Status Ros2Client::Mkdir(const std::string& path, std::uint32_t mode) {
  if (offloaded()) counters_.control_calls++;
  return dfs_->Mkdir(path, mode);
}

Result<dfs::Fd> Ros2Client::Open(const std::string& path,
                                 dfs::OpenFlags flags, std::uint32_t mode) {
  if (offloaded()) counters_.control_calls++;
  return dfs_->Open(path, flags, mode);
}

Status Ros2Client::Close(dfs::Fd fd) {
  if (offloaded()) counters_.control_calls++;
  return dfs_->Close(fd);
}

Result<dfs::DfsStat> Ros2Client::Stat(const std::string& path) {
  if (offloaded()) counters_.control_calls++;
  return dfs_->Stat(path);
}

Result<std::vector<dfs::DirEntry>> Ros2Client::Readdir(
    const std::string& path) {
  if (offloaded()) counters_.control_calls++;
  return dfs_->Readdir(path);
}

Status Ros2Client::Unlink(const std::string& path) {
  if (offloaded()) counters_.control_calls++;
  return dfs_->Unlink(path);
}

Status Ros2Client::Rename(const std::string& from, const std::string& to) {
  if (offloaded()) counters_.control_calls++;
  return dfs_->Rename(from, to);
}

Status Ros2Client::Fsync(dfs::Fd fd) { return dfs_->Fsync(fd); }

Result<std::uint64_t> Ros2Client::Pread(dfs::Fd fd, std::uint64_t offset,
                                        std::span<std::byte> out) {
  ROS2_RETURN_IF_ERROR(AdmitBytes(out.size()));
  if (!offloaded()) {
    ROS2_ASSIGN_OR_RETURN(std::uint64_t n, dfs_->Read(fd, offset, out));
    if (config_.inline_crypto && n > 0) {
      ROS2_RETURN_IF_ERROR(
          CryptInPlace(fd, offset, out.subspan(0, n), /*encrypt=*/false));
    }
    return n;
  }
  // Offloaded: payload terminates in DPU DRAM (§3.2 "all payloads
  // currently terminate in DPU DRAM"), then stages to the host buffer.
  if (dpu_dram_.size() < out.size()) dpu_dram_.resize(out.size());
  std::span<std::byte> staging(dpu_dram_.data(), out.size());
  ROS2_ASSIGN_OR_RETURN(std::uint64_t n, dfs_->Read(fd, offset, staging));
  if (config_.inline_crypto && n > 0) {
    // Decryption happens on the DPU, before the payload leaves it.
    ROS2_RETURN_IF_ERROR(
        CryptInPlace(fd, offset, staging.subspan(0, n), /*encrypt=*/false));
  }
  std::copy_n(staging.begin(), n, out.begin());
  counters_.staging_copies++;
  counters_.staging_bytes += n;
  return n;
}

Status Ros2Client::Pwrite(dfs::Fd fd, std::uint64_t offset,
                          std::span<const std::byte> data) {
  ROS2_RETURN_IF_ERROR(AdmitBytes(data.size()));
  if (!offloaded() && !config_.inline_crypto) {
    return dfs_->Write(fd, offset, data);
  }
  // Stage into DPU DRAM (offload) and/or a scratch copy (crypto needs a
  // mutable view either way).
  if (dpu_dram_.size() < data.size()) dpu_dram_.resize(data.size());
  std::span<std::byte> staging(dpu_dram_.data(), data.size());
  std::copy(data.begin(), data.end(), staging.begin());
  if (offloaded()) {
    counters_.staging_copies++;
    counters_.staging_bytes += data.size();
  }
  if (config_.inline_crypto) {
    ROS2_RETURN_IF_ERROR(CryptInPlace(fd, offset, staging, /*encrypt=*/true));
  }
  return dfs_->Write(fd, offset, staging);
}

Result<std::uint64_t> Ros2Client::PreadGpu(dfs::Fd fd, std::uint64_t offset,
                                           GpuBuffer* gpu,
                                           std::size_t gpu_offset,
                                           std::size_t length,
                                           bool gpudirect) {
  if (gpu == nullptr) return Status(InvalidArgument("null gpu buffer"));
  if (gpu_offset + length > gpu->size()) {
    return Status(OutOfRange("read beyond gpu buffer"));
  }
  ROS2_RETURN_IF_ERROR(AdmitBytes(length));
  if (gpudirect) {
    if (config_.transport != net::Transport::kRdma) {
      return Status(FailedPrecondition(
          "GPUDirect placement requires the RDMA transport (§3.5)"));
    }
    if (config_.inline_crypto) {
      return Status(FailedPrecondition(
          "inline crypto decrypts on the DPU; incompatible with GPUDirect"));
    }
    // §3.5 step 2: convey the GPU buffer descriptor via the control plane
    // (the data-plane RPC registers per op through the pooled MrCache, as
    // DAOS does; the exchange is what an out-of-band consumer — the
    // storage server — keys on).
    {
      rpc::Encoder enc;
      enc.U64(session_)
          .U64(std::uint64_t(
              reinterpret_cast<std::uintptr_t>(gpu->bytes().data())))
          .U64(length)
          .U64(0 /*rkey conveyed per-op by the data plane*/);
      ROS2_RETURN_IF_ERROR(
          control_->Call("ros2.exchange_mr", enc).status());
      counters_.control_calls++;
    }
    // §3.5 step 3: the server's RDMA writes target GPU memory directly —
    // the recv window handed to the fetch RPC *is* GPU HBM. No staging.
    std::span<std::byte> window = gpu->bytes().subspan(gpu_offset, length);
    return dfs_->Read(fd, offset, window);
  }
  // Staged path: DPU DRAM first, then a copy into GPU memory.
  if (dpu_dram_.size() < length) dpu_dram_.resize(length);
  std::span<std::byte> staging(dpu_dram_.data(), length);
  ROS2_ASSIGN_OR_RETURN(std::uint64_t n, dfs_->Read(fd, offset, staging));
  if (config_.inline_crypto && n > 0) {
    ROS2_RETURN_IF_ERROR(
        CryptInPlace(fd, offset, staging.subspan(0, n), /*encrypt=*/false));
  }
  std::copy_n(staging.begin(), n,
              gpu->bytes().begin() + std::ptrdiff_t(gpu_offset));
  counters_.staging_copies++;
  counters_.staging_bytes += n;
  return n;
}

}  // namespace ros2::core
