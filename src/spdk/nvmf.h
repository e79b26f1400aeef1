// NVMe-over-Fabrics target and initiator (§4.3).
//
// The remote-SPDK experiment (Fig. 4) exports one NVMe SSD from the storage
// node and drives it from a client over TCP or RDMA. NvmfTarget serves
// namespace I/O over the data-plane RPC layer; NvmfInitiator is the
// host-side driver. Payloads move per transport: RDMA rendezvous
// (server-driven one-sided ops into initiator buffers) or TCP inline.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "common/status.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"
#include "spdk/bdev.h"

namespace ros2::spdk {

/// NVMe-oF command opcodes carried in the RPC header.
enum class NvmfOpcode : std::uint32_t {
  kIdentify = 1,
  kRead = 2,
  kWrite = 3,
  kFlush = 4,
};

struct NvmfNamespaceInfo {
  std::uint32_t nsid = 0;
  std::uint64_t size_bytes = 0;
  std::uint32_t block_size = 0;
};

/// Target: exports bdevs as namespaces at a fabric address.
class NvmfTarget {
 public:
  /// Creates the target's fabric endpoint at `address`.
  NvmfTarget(net::Fabric* fabric, const std::string& address);

  /// Exports `bdev` as namespace `nsid`.
  Status AddNamespace(std::uint32_t nsid, Bdev* bdev);

  net::Endpoint* endpoint() const { return endpoint_; }
  net::PdId pd() const { return pd_; }
  rpc::RpcServer* server() { return &server_; }

  std::uint64_t commands_served() const { return server_.requests_served(); }

 private:
  Result<Buffer> HandleIdentify(ByteView header, rpc::BulkIo& bulk);
  Result<Buffer> HandleRead(ByteView header, rpc::BulkIo& bulk);
  Result<Buffer> HandleWrite(ByteView header, rpc::BulkIo& bulk);
  Result<Buffer> HandleFlush(ByteView header, rpc::BulkIo& bulk);
  Result<Bdev*> LookupNs(std::uint32_t nsid);

  net::Endpoint* endpoint_;
  net::PdId pd_;
  rpc::RpcServer server_;
  std::map<std::uint32_t, Bdev*> namespaces_;
};

/// Initiator: remote block I/O over a connected Qp.
class NvmfInitiator {
 public:
  Result<NvmfNamespaceInfo> Identify(std::uint32_t nsid);
  Status Read(std::uint32_t nsid, std::uint64_t offset,
              std::span<std::byte> out);
  Status Write(std::uint32_t nsid, std::uint64_t offset,
               std::span<const std::byte> data);
  Status Flush(std::uint32_t nsid);

  net::Transport transport() const { return transport_; }

 private:
  friend Result<std::unique_ptr<NvmfInitiator>> NvmfConnect(
      net::Fabric* fabric, NvmfTarget* target, net::Transport transport,
      const std::string& client_address);

  std::unique_ptr<rpc::RpcClient> client_;
  net::Transport transport_ = net::Transport::kRdma;
};

/// Dials `target` from a fresh client endpooint and returns an initiator.
[[nodiscard]] Result<std::unique_ptr<NvmfInitiator>> NvmfConnect(
    net::Fabric* fabric, NvmfTarget* target, net::Transport transport,
    const std::string& client_address);

}  // namespace ros2::spdk
