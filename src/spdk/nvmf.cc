#include "spdk/nvmf.h"

#include "rpc/wire.h"

namespace ros2::spdk {
namespace {

/// Header for read/write/flush: nsid + byte range.
struct IoHeader {
  std::uint32_t nsid = 0;
  std::uint64_t offset = 0;
  std::uint64_t length = 0;
};

rpc::Encoder EncodeIoHeader(const IoHeader& h) {
  rpc::Encoder enc;
  enc.U32(h.nsid).U64(h.offset).U64(h.length);
  return enc;
}

Result<IoHeader> DecodeIoHeader(ByteView raw) {
  rpc::Decoder dec(raw);
  IoHeader h;
  ROS2_ASSIGN_OR_RETURN(h.nsid, dec.U32());
  ROS2_ASSIGN_OR_RETURN(h.offset, dec.U64());
  ROS2_ASSIGN_OR_RETURN(h.length, dec.U64());
  return h;
}

}  // namespace

NvmfTarget::NvmfTarget(net::Fabric* fabric, const std::string& address) {
  auto ep = fabric->CreateEndpoint(address);
  // Address collisions are a programming error in test/bench setup.
  endpoint_ = ep.ok() ? ep.value() : nullptr;
  pd_ = endpoint_ != nullptr ? endpoint_->AllocPd() : 0;
  using std::placeholders::_1;
  server_.Register(std::uint32_t(NvmfOpcode::kIdentify),
                   [this](ByteView h, rpc::BulkIo& b) {
                     return HandleIdentify(h, b);
                   });
  server_.Register(std::uint32_t(NvmfOpcode::kRead),
                   [this](ByteView h, rpc::BulkIo& b) {
                     return HandleRead(h, b);
                   });
  server_.Register(std::uint32_t(NvmfOpcode::kWrite),
                   [this](ByteView h, rpc::BulkIo& b) {
                     return HandleWrite(h, b);
                   });
  server_.Register(std::uint32_t(NvmfOpcode::kFlush),
                   [this](ByteView h, rpc::BulkIo& b) {
                     return HandleFlush(h, b);
                   });
}

Status NvmfTarget::AddNamespace(std::uint32_t nsid, Bdev* bdev) {
  if (bdev == nullptr) return InvalidArgument("null bdev");
  if (namespaces_.contains(nsid)) return AlreadyExists("nsid in use");
  namespaces_[nsid] = bdev;
  return Status::Ok();
}

Result<Bdev*> NvmfTarget::LookupNs(std::uint32_t nsid) {
  auto it = namespaces_.find(nsid);
  if (it == namespaces_.end()) return NotFound("unknown namespace");
  return it->second;
}

Result<Buffer> NvmfTarget::HandleIdentify(ByteView header,
                                          rpc::BulkIo&) {
  ROS2_ASSIGN_OR_RETURN(IoHeader h, DecodeIoHeader(header));
  ROS2_ASSIGN_OR_RETURN(Bdev * bdev, LookupNs(h.nsid));
  rpc::Encoder enc;
  enc.U64(bdev->size_bytes()).U32(bdev->block_size());
  return enc.Take();
}

Result<Buffer> NvmfTarget::HandleRead(ByteView header,
                                      rpc::BulkIo& bulk) {
  ROS2_ASSIGN_OR_RETURN(IoHeader h, DecodeIoHeader(header));
  ROS2_ASSIGN_OR_RETURN(Bdev * bdev, LookupNs(h.nsid));
  if (h.length != bulk.out_capacity()) {
    return Status(InvalidArgument("read length != client bulk window"));
  }
  ROS2_RETURN_IF_ERROR(
      bulk.PushInPlace(h.length, [&](std::span<std::byte> data) {
        return bdev->Read(h.offset, data);
      }));
  return Buffer{};
}

Result<Buffer> NvmfTarget::HandleWrite(ByteView header,
                                       rpc::BulkIo& bulk) {
  ROS2_ASSIGN_OR_RETURN(IoHeader h, DecodeIoHeader(header));
  ROS2_ASSIGN_OR_RETURN(Bdev * bdev, LookupNs(h.nsid));
  if (h.length != bulk.in_size()) {
    return Status(InvalidArgument("write length != client payload"));
  }
  ROS2_RETURN_IF_ERROR(bulk.PullInPlace(
      [&](ByteView data) { return bdev->Write(h.offset, data); }));
  return Buffer{};
}

Result<Buffer> NvmfTarget::HandleFlush(ByteView header, rpc::BulkIo&) {
  ROS2_ASSIGN_OR_RETURN(IoHeader h, DecodeIoHeader(header));
  ROS2_ASSIGN_OR_RETURN(Bdev * bdev, LookupNs(h.nsid));
  ROS2_RETURN_IF_ERROR(bdev->Flush());
  return Buffer{};
}

Result<NvmfNamespaceInfo> NvmfInitiator::Identify(std::uint32_t nsid) {
  const rpc::Encoder header = EncodeIoHeader({nsid, 0, 0});
  auto reply =
      client_->Call(std::uint32_t(NvmfOpcode::kIdentify), header, {});
  if (!reply.ok()) return reply.status();
  rpc::Decoder dec(reply->header);
  NvmfNamespaceInfo info;
  info.nsid = nsid;
  ROS2_ASSIGN_OR_RETURN(info.size_bytes, dec.U64());
  ROS2_ASSIGN_OR_RETURN(info.block_size, dec.U32());
  return info;
}

Status NvmfInitiator::Read(std::uint32_t nsid, std::uint64_t offset,
                           std::span<std::byte> out) {
  const rpc::Encoder header = EncodeIoHeader({nsid, offset, out.size()});
  rpc::CallOptions options;
  options.recv_bulk = out;
  auto reply = client_->Call(std::uint32_t(NvmfOpcode::kRead), header,
                             options);
  if (!reply.ok()) return reply.status();
  if (reply->bulk_received != out.size()) {
    return DataLoss("short NVMe-oF read");
  }
  return Status::Ok();
}

Status NvmfInitiator::Write(std::uint32_t nsid, std::uint64_t offset,
                            std::span<const std::byte> data) {
  const rpc::Encoder header = EncodeIoHeader({nsid, offset, data.size()});
  rpc::CallOptions options;
  options.send_bulk = data;
  return client_->Call(std::uint32_t(NvmfOpcode::kWrite), header, options)
      .status();
}

Status NvmfInitiator::Flush(std::uint32_t nsid) {
  const rpc::Encoder header = EncodeIoHeader({nsid, 0, 0});
  return client_->Call(std::uint32_t(NvmfOpcode::kFlush), header, {})
      .status();
}

Result<std::unique_ptr<NvmfInitiator>> NvmfConnect(
    net::Fabric* fabric, NvmfTarget* target, net::Transport transport,
    const std::string& client_address) {
  if (target == nullptr || target->endpoint() == nullptr) {
    return Status(InvalidArgument("target has no endpoint"));
  }
  ROS2_ASSIGN_OR_RETURN(net::Endpoint * client_ep,
                        fabric->CreateEndpoint(client_address));
  const net::PdId client_pd = client_ep->AllocPd();
  ROS2_ASSIGN_OR_RETURN(
      net::Qp * qp,
      client_ep->Connect(target->endpoint(), transport, client_pd,
                         target->pd()));
  auto initiator = std::unique_ptr<NvmfInitiator>(new NvmfInitiator());
  initiator->transport_ = transport;
  // The progress hook pumps the target's RPC loop on the server half of
  // this connection — the in-process stand-in for its polling thread.
  rpc::RpcServer* server = target->server();
  net::Qp* server_qp = qp->peer();
  initiator->client_ = std::make_unique<rpc::RpcClient>(
      qp, client_ep,
      [server, server_qp] { (void)server->Progress(server_qp); });
  return initiator;
}

}  // namespace ros2::spdk
