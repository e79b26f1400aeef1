// Data-plane RPC tests, parameterized over both transports: the same
// handler code must move bulk payloads via one-sided RDMA (rendezvous) and
// via inline TCP bytes. RDMA bulk windows go through the endpoint's
// pooled MrCache (leases, not ad-hoc registrations), so the MR-lifetime
// tests assert pool invariants: bounded registrations, zero outstanding
// leases after every call, and nothing left behind once the pool is
// cleared — including after injected registration/send failures, the leak
// paths the pre-pool code had.
#include "rpc/data_rpc.h"

#include <gtest/gtest.h>

#include "common/bytes.h"
#include "net/fabric.h"
#include "rpc/wire.h"

namespace ros2::rpc {
namespace {

constexpr std::span<const std::byte> kNoHeader{};

class DataRpcTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  void SetUp() override {
    auto server_ep = fabric_.CreateEndpoint("fabric://server");
    auto client_ep = fabric_.CreateEndpoint("fabric://client");
    ASSERT_TRUE(server_ep.ok() && client_ep.ok());
    server_ep_ = *server_ep;
    client_ep_ = *client_ep;
    const auto server_pd = server_ep_->AllocPd();
    const auto client_pd = client_ep_->AllocPd();
    auto qp = client_ep_->Connect(server_ep_, GetParam(), client_pd,
                                  server_pd);
    ASSERT_TRUE(qp.ok());
    qp_ = *qp;
    client_ = std::make_unique<RpcClient>(
        qp_, client_ep_, [this] { (void)server_.Progress(qp_->peer()); });
  }

  bool rdma() const { return GetParam() == net::Transport::kRdma; }

  net::Fabric fabric_;
  net::Endpoint* server_ep_ = nullptr;
  net::Endpoint* client_ep_ = nullptr;
  net::Qp* qp_ = nullptr;
  RpcServer server_;
  std::unique_ptr<RpcClient> client_;
};

TEST_P(DataRpcTest, UnaryCallRoundTrip) {
  server_.Register(1, [](ByteView header, BulkIo&) -> Result<Buffer> {
    Buffer reply(header.begin(), header.end());
    reply.push_back(std::byte(0xFF));
    return reply;
  });
  Buffer header = MakePatternBuffer(16, 1);
  auto reply = client_->Call(1, header, {});
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->header.size(), 17u);
}

TEST_P(DataRpcTest, UnknownOpcode) {
  EXPECT_EQ(client_->Call(42, kNoHeader, {}).status().code(),
            ErrorCode::kNotFound);
}

TEST_P(DataRpcTest, HandlerErrorPropagatesWithMessage) {
  server_.Register(2, [](ByteView, BulkIo&) -> Result<Buffer> {
    return Status(OutOfRange("beyond eof"));
  });
  auto reply = client_->Call(2, kNoHeader, {});
  EXPECT_EQ(reply.status().code(), ErrorCode::kOutOfRange);
  EXPECT_EQ(reply.status().message(), "beyond eof");
}

TEST_P(DataRpcTest, EncoderOverloadRejectsOverflowedHeader) {
  server_.Register(1, [](ByteView header, BulkIo&) -> Result<Buffer> {
    return Buffer(header.begin(), header.end());
  });
  Encoder good;
  good.U32(7);
  EXPECT_TRUE(client_->Call(1, good, {}).ok());

  static const std::byte kByte{0x5A};
  Encoder bad;
  // A span whose size field overflows the u32 length prefix; the encoder
  // latches the overflow without reading the (bogus) span contents.
  bad.Bytes(std::span<const std::byte>(&kByte, std::size_t(1) << 33));
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(client_->Call(1, bad, {}).status().code(),
            ErrorCode::kOutOfRange);
}

TEST_P(DataRpcTest, SendBulkReachesServer) {
  Buffer received;
  server_.Register(3, [&](ByteView, BulkIo& bulk) -> Result<Buffer> {
    received.resize(bulk.in_size());
    ROS2_RETURN_IF_ERROR(bulk.Pull(received));
    return Buffer{};
  });
  Buffer payload = MakePatternBuffer(256 * 1024, 7);
  CallOptions options;
  options.send_bulk = payload;
  ASSERT_TRUE(client_->Call(3, kNoHeader, options).ok());
  EXPECT_EQ(received, payload);
  EXPECT_EQ(server_.bulk_bytes_in(), payload.size());
}

TEST_P(DataRpcTest, RecvBulkReachesClient) {
  Buffer source = MakePatternBuffer(128 * 1024, 9);
  server_.Register(4, [&](ByteView, BulkIo& bulk) -> Result<Buffer> {
    ROS2_RETURN_IF_ERROR(bulk.Push(source));
    return Buffer{};
  });
  Buffer sink(source.size());
  CallOptions options;
  options.recv_bulk = sink;
  auto reply = client_->Call(4, kNoHeader, options);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->bulk_received, source.size());
  EXPECT_EQ(sink, source);
}

TEST_P(DataRpcTest, BothDirectionsInOneCall) {
  server_.Register(5, [&](ByteView, BulkIo& bulk) -> Result<Buffer> {
    Buffer data(bulk.in_size());
    ROS2_RETURN_IF_ERROR(bulk.Pull(data));
    for (auto& b : data) b ^= std::byte(0xFF);  // transform
    ROS2_RETURN_IF_ERROR(bulk.Push(data));
    return Buffer{};
  });
  Buffer out = MakePatternBuffer(4096, 3);
  Buffer in(4096);
  CallOptions options;
  options.send_bulk = out;
  options.recv_bulk = in;
  ASSERT_TRUE(client_->Call(5, kNoHeader, options).ok());
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(in[i], out[i] ^ std::byte(0xFF));
  }
}

TEST_P(DataRpcTest, PushBeyondWindowRejected) {
  server_.Register(6, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    Buffer big(bulk.out_capacity() + 1);
    ROS2_RETURN_IF_ERROR(bulk.Push(big));
    return Buffer{};
  });
  Buffer window(64);
  CallOptions options;
  options.recv_bulk = window;
  EXPECT_EQ(client_->Call(6, kNoHeader, options).status().code(),
            ErrorCode::kOutOfRange);
}

TEST_P(DataRpcTest, IncrementalPushesAccumulate) {
  server_.Register(7, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    Buffer chunk = MakePatternBuffer(100, 1);
    ROS2_RETURN_IF_ERROR(bulk.Push(chunk));
    Buffer chunk2 = MakePatternBuffer(100, 1, 100);
    ROS2_RETURN_IF_ERROR(bulk.Push(chunk2));
    return Buffer{};
  });
  Buffer window(200);
  CallOptions options;
  options.recv_bulk = window;
  auto reply = client_->Call(7, kNoHeader, options);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->bulk_received, 200u);
  EXPECT_EQ(VerifyPattern(window, 1, 0), -1);
}

TEST_P(DataRpcTest, PullSizeMismatchRejected) {
  server_.Register(8, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    Buffer wrong(bulk.in_size() + 1);
    ROS2_RETURN_IF_ERROR(bulk.Pull(wrong));
    return Buffer{};
  });
  Buffer payload(64);
  CallOptions options;
  options.send_bulk = payload;
  EXPECT_EQ(client_->Call(8, kNoHeader, options).status().code(),
            ErrorCode::kInvalidArgument);
}

// The pre-pool code registered and destroyed MRs on every call; pooled
// calls must instead converge to cache hits with a bounded MR count and
// leave nothing behind once the pool is cleared.
TEST_P(DataRpcTest, PooledMrsAreCachedBoundedAndReclaimable) {
  server_.Register(9, [](ByteView, BulkIo&) -> Result<Buffer> {
    return Buffer{};
  });
  Buffer payload(1024);
  Buffer window(1024);
  CallOptions options;
  options.send_bulk = payload;
  options.recv_bulk = window;
  const auto before = client_ep_->mr_count();
  ASSERT_TRUE(client_->Call(9, kNoHeader, options).ok());
  const auto after_first = client_ep_->mr_count();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(client_->Call(9, kNoHeader, options).ok());
  }
  // Same buffers, same windows: no new registrations after the first call.
  EXPECT_EQ(client_ep_->mr_count(), after_first);
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
  if (rdma()) {
    EXPECT_EQ(after_first, before + 2);  // send + recv windows, cached
    EXPECT_GE(client_ep_->mr_cache().hits(), 20u);  // 10 calls x 2 windows
  } else {
    EXPECT_EQ(after_first, before);  // TCP never registers
  }
  // Every registration the data path made is pool-owned: clearing the
  // pool returns the endpoint to its pre-call MR census (leak == a
  // registration the pool does NOT own == count stays elevated).
  client_ep_->mr_cache().Clear();
  EXPECT_EQ(client_ep_->mr_count(), before);
}

TEST_P(DataRpcTest, NoMrLeakWhenRecvRegistrationFails) {
  if (!rdma()) GTEST_SKIP() << "registration is RDMA-only";
  server_.Register(9, [](ByteView, BulkIo&) -> Result<Buffer> {
    return Buffer{};
  });
  Buffer payload(2048);
  Buffer window(2048);
  CallOptions options;
  options.send_bulk = payload;
  options.recv_bulk = window;
  const auto before = client_ep_->mr_count();

  // Unpooled (the seed's per-call mode): the send MR is registered, then
  // the recv registration fails — the seed leaked the send MR here.
  client_->set_mr_pooling(false);
  client_ep_->fault_plan().Arm(common::FaultPoint::kNetRegister,
                               {/*skip=*/1, /*count=*/1});
  EXPECT_EQ(client_->Call(9, kNoHeader, options).status().code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(client_ep_->mr_count(), before) << "send MR leaked";

  // Pooled: same forced failure; the send registration stays CACHED (not
  // leaked), no lease stays outstanding, and Clear() reclaims everything.
  client_->set_mr_pooling(true);
  client_ep_->fault_plan().Arm(common::FaultPoint::kNetRegister,
                               {/*skip=*/1, /*count=*/1});
  EXPECT_EQ(client_->Call(9, kNoHeader, options).status().code(),
            ErrorCode::kResourceExhausted);
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
  client_ep_->mr_cache().Clear();
  EXPECT_EQ(client_ep_->mr_count(), before);
}

TEST_P(DataRpcTest, NoMrLeakWhenSendFails) {
  server_.Register(9, [](ByteView, BulkIo&) -> Result<Buffer> {
    return Buffer{};
  });
  Buffer payload(2048);
  Buffer window(2048);
  CallOptions options;
  options.send_bulk = payload;
  options.recv_bulk = window;
  const auto before = client_ep_->mr_count();

  client_->set_mr_pooling(false);
  qp_->fault_plan().Arm(common::FaultPoint::kNetSend,
                        {/*skip=*/0, /*count=*/1});
  EXPECT_EQ(client_->Call(9, kNoHeader, options).status().code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(client_ep_->mr_count(), before)
      << "MRs leaked on the send-failed path";
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);

  client_->set_mr_pooling(true);
  qp_->fault_plan().Arm(common::FaultPoint::kNetSend,
                        {/*skip=*/0, /*count=*/1});
  EXPECT_EQ(client_->Call(9, kNoHeader, options).status().code(),
            ErrorCode::kUnavailable);
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
  client_ep_->mr_cache().Clear();
  EXPECT_EQ(client_ep_->mr_count(), before);
}

TEST_P(DataRpcTest, ServerDrainsPipelinedRequestsInOrder) {
  // CaRT progress-loop semantics: several requests queued on the QP before
  // the server runs are all served, in arrival order.
  std::vector<std::uint32_t> order;
  server_.Register(11, [&](ByteView header, BulkIo&) -> Result<Buffer> {
    rpc::Decoder dec(header);
    order.push_back(dec.U32().value_or(0));
    return Buffer{};
  });
  for (std::uint32_t i = 0; i < 5; ++i) {
    Encoder req;
    // opcode, sequence tag, trace id, header, no-bulk flags (the
    // CallAsync frame).
    req.U32(11).U64(i + 1).U64(i + 1).Bytes(Encoder().U32(i).buffer());
    req.U8(0).U8(0);
    ASSERT_TRUE(qp_->Send(req.buffer()).ok());
  }
  ASSERT_TRUE(server_.Progress(qp_->peer()).ok());
  ASSERT_EQ(order.size(), 5u);
  for (std::uint32_t i = 0; i < 5; ++i) {
    EXPECT_EQ(order[i], i);
  }
  // Five replies are waiting on the client QP.
  for (int i = 0; i < 5; ++i) {
    EXPECT_TRUE(qp_->Recv().ok()) << i;
  }
  EXPECT_FALSE(qp_->HasMessage());
}

TEST_P(DataRpcTest, ZeroLengthBulkWindowsAreNoops) {
  server_.Register(12, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    if (bulk.in_size() != 0 || bulk.out_capacity() != 0) {
      return Status(Internal("unexpected bulk state"));
    }
    return Buffer{};
  });
  CallOptions options;  // both spans empty
  EXPECT_TRUE(client_->Call(12, kNoHeader, options).ok());
}

// Transport parity: a zero-byte Push must succeed on BOTH transports,
// with or without a client window. (It used to RdmaWrite against the
// zero-initialized descriptor when the client exposed no window — rkey 0
// -> PermissionDenied on RDMA while TCP succeeded.)
TEST_P(DataRpcTest, EmptyPushIsANoopOnBothTransports) {
  server_.Register(13, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    ROS2_RETURN_IF_ERROR(bulk.Push({}));
    return Buffer{};
  });
  EXPECT_TRUE(client_->Call(13, kNoHeader, {}).ok()) << "no recv window";

  Buffer window(64);
  CallOptions options;
  options.recv_bulk = window;
  auto reply = client_->Call(13, kNoHeader, options);
  ASSERT_TRUE(reply.ok()) << "with recv window";
  EXPECT_EQ(reply->bulk_received, 0u);

  // Empty pushes interleaved with real ones keep the offset intact.
  server_.Register(14, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    ROS2_RETURN_IF_ERROR(bulk.Push({}));
    Buffer chunk = MakePatternBuffer(32, 5);
    ROS2_RETURN_IF_ERROR(bulk.Push(chunk));
    ROS2_RETURN_IF_ERROR(bulk.Push({}));
    return Buffer{};
  });
  reply = client_->Call(14, kNoHeader, options);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->bulk_received, 32u);
  EXPECT_EQ(VerifyPattern(std::span<const std::byte>(window.data(), 32), 5,
                          0),
            -1);
}

// A handler that pushes bulk and THEN fails must not hand the client
// partial output: error replies report pushed = 0, ship no inline bulk,
// and leave the client's recv window untouched on TCP.
TEST_P(DataRpcTest, FailedHandlerReportsNoBulk) {
  server_.Register(15, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    Buffer partial = MakePatternBuffer(64, 2);
    ROS2_RETURN_IF_ERROR(bulk.Push(partial));
    return Status(Internal("handler failed after pushing"));
  });
  Buffer window(128, std::byte(0xEE));  // sentinel fill
  CallOptions options;
  options.recv_bulk = window;
  const auto bulk_out_before = server_.bulk_bytes_out();
  auto reply = client_->Call(15, kNoHeader, options);
  EXPECT_EQ(reply.status().code(), ErrorCode::kInternal);
  // The reply advertised zero pushed bytes (and the server's counter
  // agrees: failed handlers contribute nothing).
  EXPECT_EQ(server_.bulk_bytes_out(), bulk_out_before);
  if (!rdma()) {
    // TCP: the partial inline bulk was dropped server-side; the window
    // still holds the sentinel. (RDMA pushes land one-sided before the
    // handler returns, so the window is undefined there — that's what
    // pushed = 0 tells the caller.)
    for (std::size_t i = 0; i < window.size(); ++i) {
      ASSERT_EQ(window[i], std::byte(0xEE)) << "byte " << i;
    }
  }
}

TEST_P(DataRpcTest, ServedCounterTicks) {
  server_.Register(10, [](ByteView, BulkIo&) -> Result<Buffer> {
    return Buffer{};
  });
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(client_->Call(10, kNoHeader, {}).ok());
  }
  EXPECT_EQ(server_.requests_served(), 5u);
}

INSTANTIATE_TEST_SUITE_P(Transports, DataRpcTest,
                         ::testing::Values(net::Transport::kTcp,
                                           net::Transport::kRdma),
                         [](const auto& info) {
                           return std::string(
                               perf::TransportName(info.param));
                         });

}  // namespace
}  // namespace ros2::rpc
