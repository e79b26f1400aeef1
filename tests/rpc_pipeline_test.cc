// Async RPC pipeline tests: CallAsync/Poll/Flush/Take on the client,
// decode->dispatch with deferred RpcContext completion on the server, and
// the poll-set progress path. Covers out-of-order completion (replies
// matched by sequence tag, including TCP inline bulk landing in the RIGHT
// pending window), in-flight window backpressure, abandoned-call lease
// hygiene, and the exactly-once Complete contract.
#include <gtest/gtest.h>

#include <deque>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "net/fabric.h"
#include "net/mr_cache.h"
#include "rpc/data_rpc.h"
#include "rpc/wire.h"

namespace ros2::rpc {
namespace {

constexpr std::span<const std::byte> kNoHeader{};

class RpcPipelineTest : public ::testing::TestWithParam<net::Transport> {
 protected:
  void SetUp() override {
    auto server_ep = fabric_.CreateEndpoint("fabric://server");
    auto client_ep = fabric_.CreateEndpoint("fabric://client");
    ASSERT_TRUE(server_ep.ok() && client_ep.ok());
    server_ep_ = *server_ep;
    client_ep_ = *client_ep;
    auto qp = client_ep_->Connect(server_ep_, GetParam(),
                                  client_ep_->AllocPd(),
                                  server_ep_->AllocPd());
    ASSERT_TRUE(qp.ok());
    qp_ = *qp;
    client_ = std::make_unique<RpcClient>(
        qp_, client_ep_, [this] { (void)server_.Progress(qp_->peer()); });
  }

  bool tcp() const { return GetParam() == net::Transport::kTcp; }

  net::Fabric fabric_;
  net::Endpoint* server_ep_ = nullptr;
  net::Endpoint* client_ep_ = nullptr;
  net::Qp* qp_ = nullptr;
  RpcServer server_;
  std::unique_ptr<RpcClient> client_;
};

TEST_P(RpcPipelineTest, AsyncCallsCompleteViaFlush) {
  server_.Register(1, [](ByteView header, BulkIo&) -> Result<Buffer> {
    Buffer reply(header.begin(), header.end());
    reply.push_back(std::byte(0xAB));
    return reply;
  });
  std::vector<RpcClient::CallId> ids;
  for (std::uint32_t i = 0; i < 10; ++i) {
    Encoder header;
    header.U32(i);
    auto id = client_->CallAsync(1, header);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    EXPECT_FALSE(client_->Done(*id));
    ids.push_back(*id);
  }
  EXPECT_EQ(client_->in_flight(), 10u);
  ASSERT_TRUE(client_->Flush().ok());
  EXPECT_EQ(client_->in_flight(), 0u);
  for (std::uint32_t i = 0; i < ids.size(); ++i) {
    ASSERT_TRUE(client_->Done(ids[i]));
    auto reply = client_->Take(ids[i]);
    ASSERT_TRUE(reply.ok());
    Decoder dec(reply->header);
    EXPECT_EQ(dec.U32().value_or(999), i) << "reply matched to wrong call";
  }
  // Taken handles are gone.
  EXPECT_EQ(client_->Take(ids[0]).status().code(), ErrorCode::kNotFound);
}

TEST_P(RpcPipelineTest, OutOfOrderCompletionMatchesBySequence) {
  // The server parks every request; the test completes them in REVERSE
  // arrival order. Each reply must still land on its own call — and its
  // bulk in its own window.
  std::vector<RpcContextPtr> parked;
  server_.RegisterAsync(7, [&](RpcContextPtr ctx) {
    parked.push_back(std::move(ctx));
    return HandlerVerdict::kDeferred;
  });
  constexpr int kCalls = 4;
  std::vector<Buffer> windows(kCalls);
  std::vector<RpcClient::CallId> ids;
  for (int i = 0; i < kCalls; ++i) {
    windows[i].resize(64);
    Encoder header;
    header.U32(std::uint32_t(i));
    CallOptions options;
    options.recv_bulk = windows[i];
    auto id = client_->CallAsync(7, header, options);
    ASSERT_TRUE(id.ok());
    ids.push_back(*id);
  }
  // Decode + dispatch only: everything defers.
  ASSERT_TRUE(server_.Progress(qp_->peer()).ok());
  ASSERT_EQ(parked.size(), std::size_t(kCalls));
  EXPECT_EQ(server_.requests_deferred(), std::uint64_t(kCalls));
  EXPECT_EQ(server_.requests_served(), 0u);

  // Complete newest-first, each pushing a payload derived from its own
  // request header.
  for (int i = kCalls - 1; i >= 0; --i) {
    RpcContextPtr ctx = std::move(parked[std::size_t(i)]);
    Decoder dec(ctx->header());
    const std::uint32_t tag = dec.U32().value_or(999);
    Buffer payload = MakePatternBuffer(64, tag + 1);
    ASSERT_TRUE(ctx->bulk().Push(payload).ok());
    Encoder reply;
    reply.U32(tag);
    ASSERT_TRUE(ctx->Complete(reply.Take()).ok());
  }
  EXPECT_EQ(server_.requests_served(), std::uint64_t(kCalls));

  EXPECT_EQ(client_->Poll(), std::size_t(kCalls));
  for (int i = 0; i < kCalls; ++i) {
    auto reply = client_->Take(ids[std::size_t(i)]);
    ASSERT_TRUE(reply.ok());
    Decoder dec(reply->header);
    EXPECT_EQ(dec.U32().value_or(999), std::uint32_t(i));
    EXPECT_EQ(reply->bulk_received, 64u);
    // The window holds THIS call's pattern even though replies arrived
    // reversed.
    EXPECT_EQ(VerifyPattern(windows[std::size_t(i)], std::uint64_t(i) + 1,
                            0),
              -1)
        << "bulk landed in the wrong window for call " << i;
  }
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
}

TEST_P(RpcPipelineTest, InFlightWindowAppliesBackpressure) {
  std::vector<RpcContextPtr> parked;
  server_.RegisterAsync(2, [&](RpcContextPtr ctx) {
    parked.push_back(std::move(ctx));
    return HandlerVerdict::kDeferred;
  });
  client_->set_max_in_flight(2);
  // Zero stall tolerance = the pre-threading semantics: one no-progress
  // pump round fails fast (keeps this test instant).
  client_->set_stall_timeout_ms(0.0);
  auto a = client_->CallAsync(2, kNoHeader);
  auto b = client_->CallAsync(2, kNoHeader);
  ASSERT_TRUE(a.ok() && b.ok());
  // Window full and the server only parks: the third call pumps, frees
  // nothing, and reports exhaustion instead of deadlocking.
  EXPECT_EQ(client_->CallAsync(2, kNoHeader).status().code(),
            ErrorCode::kResourceExhausted);
  // Completing one parked context frees a slot.
  ASSERT_EQ(parked.size(), 2u);  // the failed CallAsync pumped decode
  RpcContextPtr first = std::move(parked.front());
  parked.erase(parked.begin());
  ASSERT_TRUE(first->Complete(Buffer{}).ok());
  auto c = client_->CallAsync(2, kNoHeader);
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  // Cleanup: complete the stragglers so leases drain.
  for (auto& ctx : parked) ASSERT_TRUE(ctx->Complete(Buffer{}).ok());
  parked.clear();
  ASSERT_TRUE(server_.Progress(qp_->peer()).ok());
  // c's context parked by that progress call; it defers forever — flush
  // abandons it, which is the documented stall contract.
  (void)client_->Flush();
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
}

TEST_P(RpcPipelineTest, AwaitOnDeadServerAbandonsAndReleasesLeases) {
  RpcClient dead(qp_, client_ep_, nullptr);  // no progress hook
  dead.set_stall_timeout_ms(0.0);  // genuinely dead: no need to linger
  Buffer payload = MakePatternBuffer(4096, 3);
  Buffer window(4096);
  CallOptions options;
  options.send_bulk = payload;
  options.recv_bulk = window;
  auto id = dead.CallAsync(5, kNoHeader, options);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(dead.in_flight(), 1u);
  auto reply = dead.Await(*id);
  EXPECT_EQ(reply.status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(dead.in_flight(), 0u);
  // The abandoned call released its MR leases and forgot the handle.
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
  EXPECT_EQ(dead.Take(*id).status().code(), ErrorCode::kNotFound);
  // Drain the request the dead client left on the server queue.
  while (qp_->peer()->HasMessage()) (void)qp_->peer()->Recv();
}

TEST_P(RpcPipelineTest, DroppedContextAutoRepliesInternal) {
  server_.RegisterAsync(3, [](RpcContextPtr ctx) {
    ctx.reset();  // handler loses the request on an error path
    return HandlerVerdict::kDeferred;
  });
  auto reply = client_->Call(3, kNoHeader, {});
  EXPECT_EQ(reply.status().code(), ErrorCode::kInternal);
  EXPECT_EQ(server_.requests_served(), 1u);
}

TEST_P(RpcPipelineTest, CompleteIsExactlyOnce) {
  Status second = Status::Ok();
  server_.RegisterAsync(4, [&](RpcContextPtr ctx) {
    EXPECT_TRUE(ctx->Complete(Buffer{}).ok());
    second = ctx->Complete(Buffer{});
    return HandlerVerdict::kDone;
  });
  ASSERT_TRUE(client_->Call(4, kNoHeader, {}).ok());
  EXPECT_EQ(second.code(), ErrorCode::kFailedPrecondition);
  EXPECT_EQ(server_.requests_served(), 1u) << "double Complete must not "
                                              "double-count";
}

TEST_P(RpcPipelineTest, SynchronousCallStillWorksThroughThePipeline) {
  // The preserved public contract: Call == CallAsync + Await, including
  // bulk in both directions.
  server_.Register(6, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    Buffer data(bulk.in_size());
    ROS2_RETURN_IF_ERROR(bulk.Pull(data));
    for (auto& b : data) b ^= std::byte(0xFF);
    ROS2_RETURN_IF_ERROR(bulk.Push(data));
    return Buffer{};
  });
  Buffer out = MakePatternBuffer(4096, 9);
  Buffer in(4096);
  CallOptions options;
  options.send_bulk = out;
  options.recv_bulk = in;
  ASSERT_TRUE(client_->Call(6, kNoHeader, options).ok());
  for (std::size_t i = 0; i < in.size(); ++i) {
    ASSERT_EQ(in[i], out[i] ^ std::byte(0xFF));
  }
  EXPECT_EQ(client_->in_flight(), 0u);
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
}

TEST_P(RpcPipelineTest, UnmatchedRepliesAreDroppedNotMisdelivered) {
  // A stray frame with an unknown tag (a reply for an abandoned call)
  // must not complete anyone else's call or scribble on a window.
  server_.Register(8, [](ByteView, BulkIo&) -> Result<Buffer> {
    return Buffer{};
  });
  Encoder stray;
  stray.U64(0xDEAD);  // tag the client never issued
  stray.U16(std::uint16_t(ErrorCode::kOk)).Str("").Bytes({});
  if (tcp()) stray.Bytes({});
  stray.U64(0);
  ASSERT_TRUE(qp_->peer()->Send(stray.buffer()).ok());
  auto reply = client_->Call(8, kNoHeader, {});
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(client_->unmatched_replies(), 1u);
}

// One server progress call over a poll set services every connected
// client — no per-QP scan, no starvation.
TEST_P(RpcPipelineTest, PollSetProgressServicesAllClients) {
  net::PollSet set;
  server_ep_->set_accept_poll_set(&set);
  server_.Register(9, [](ByteView header, BulkIo&) -> Result<Buffer> {
    return Buffer(header.begin(), header.end());
  });
  constexpr int kClients = 5;
  std::vector<std::unique_ptr<RpcClient>> clients;
  std::vector<net::Qp*> qps;
  for (int c = 0; c < kClients; ++c) {
    auto ep = fabric_.CreateEndpoint("fabric://pipeline-client-" +
                                     std::to_string(c));
    ASSERT_TRUE(ep.ok());
    auto qp = (*ep)->Connect(server_ep_, GetParam(), (*ep)->AllocPd(),
                             server_ep_->AllocPd());
    ASSERT_TRUE(qp.ok());
    qps.push_back(*qp);
    clients.push_back(std::make_unique<RpcClient>(
        *qp, *ep, [this, &set] { (void)server_.Progress(&set); }));
  }
  EXPECT_EQ(set.member_count(), std::size_t(kClients));
  // Interleaved outstanding requests from every client...
  std::vector<std::vector<RpcClient::CallId>> ids(kClients);
  for (int round = 0; round < 3; ++round) {
    for (int c = 0; c < kClients; ++c) {
      Encoder header;
      header.U32(std::uint32_t(c * 100 + round));
      auto id = clients[std::size_t(c)]->CallAsync(9, header);
      ASSERT_TRUE(id.ok());
      ids[std::size_t(c)].push_back(*id);
    }
  }
  // ...all served by ONE progress drain.
  ASSERT_TRUE(server_.Progress(&set).ok());
  EXPECT_EQ(server_.requests_served(), std::uint64_t(kClients) * 3);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(clients[std::size_t(c)]->Poll(), 3u) << "client " << c;
    for (int round = 0; round < 3; ++round) {
      auto reply =
          clients[std::size_t(c)]->Take(ids[std::size_t(c)][round]);
      ASSERT_TRUE(reply.ok());
      Decoder dec(reply->header);
      EXPECT_EQ(dec.U32().value_or(0), std::uint32_t(c * 100 + round));
    }
  }
  server_ep_->set_accept_poll_set(nullptr);
}

TEST_P(RpcPipelineTest, FullWindowWaitsOutASlowServer) {
  // The threaded-engine contract: a full in-flight window with a server
  // that IS making progress (just slowly) must block-and-pump until a
  // slot frees — the stall deadline resets on every completed reply, so
  // only a genuine stall errors. The slow server here answers at most
  // one parked request per client pump.
  std::deque<RpcContextPtr> parked;
  server_.RegisterAsync(11, [&](RpcContextPtr ctx) {
    parked.push_back(std::move(ctx));
    return HandlerVerdict::kDeferred;
  });
  RpcClient slow(qp_, client_ep_, [&] {
    (void)server_.Progress(qp_->peer());
    if (!parked.empty()) {
      RpcContextPtr ctx = std::move(parked.front());
      parked.pop_front();
      Encoder reply;
      reply.U32(7);
      (void)ctx->Complete(reply.Take());
    }
  });
  slow.set_max_in_flight(2);
  std::vector<RpcClient::CallId> ids;
  for (int i = 0; i < 6; ++i) {
    auto id = slow.CallAsync(11, kNoHeader);
    ASSERT_TRUE(id.ok())
        << "call " << i
        << " must ride out backpressure, not fail: "
        << id.status().ToString();
    ids.push_back(*id);
  }
  ASSERT_TRUE(slow.Flush().ok());
  for (auto id : ids) {
    auto reply = slow.Take(id);
    ASSERT_TRUE(reply.ok());
    Decoder dec(reply->header);
    EXPECT_EQ(dec.U32().value_or(0), 7u);
  }
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
}

TEST_P(RpcPipelineTest, StallDeadlineExpiresOnlyWithoutProgress) {
  // A nonzero deadline against a server that never answers: the blocked
  // CallAsync spins the real clock down and reports exhaustion — the
  // wait is bounded, not forever.
  std::vector<RpcContextPtr> parked;
  server_.RegisterAsync(12, [&](RpcContextPtr ctx) {
    parked.push_back(std::move(ctx));
    return HandlerVerdict::kDeferred;
  });
  client_->set_max_in_flight(1);
  client_->set_stall_timeout_ms(5.0);
  ASSERT_TRUE(client_->CallAsync(12, kNoHeader).ok());
  EXPECT_EQ(client_->CallAsync(12, kNoHeader).status().code(),
            ErrorCode::kResourceExhausted);
  // Cleanup: answer the parked request so leases and the window drain.
  ASSERT_EQ(parked.size(), 1u);
  ASSERT_TRUE(parked.front()->Complete(Buffer{}).ok());
  parked.clear();
  ASSERT_TRUE(client_->Flush().ok());
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
}

/// Issues one call on opcode 13 with a send and a receive window (two MR
/// leases on RDMA, none on TCP); the call's buffers live in `bufs`.
RpcClient::CallId IssueWithBulk(RpcClient& client, std::deque<Buffer>& bufs,
                                std::uint64_t seed) {
  bufs.push_back(MakePatternBuffer(256, seed));
  const Buffer& send = bufs.back();
  bufs.emplace_back(256);
  CallOptions options;
  options.send_bulk = send;
  options.recv_bulk = bufs.back();
  auto id = client.CallAsync(13, kNoHeader, options);
  EXPECT_TRUE(id.ok()) << id.status().ToString();
  return id.value_or(0);
}

TEST_P(RpcPipelineTest, StalledAwaitAbandonsOnlyItsOwnCall) {
  // Three calls park on the server and only the first is answered. A
  // stalled Await on the second abandons that call alone: the answered
  // result stays Take-able and the third call stays in flight with its
  // leases.
  std::vector<RpcContextPtr> parked;
  server_.RegisterAsync(13, [&](RpcContextPtr ctx) {
    parked.push_back(std::move(ctx));
    return HandlerVerdict::kDeferred;
  });
  client_->set_stall_timeout_ms(0.0);
  const std::uint32_t per_call = tcp() ? 0 : 2;
  std::deque<Buffer> bufs;
  const RpcClient::CallId a = IssueWithBulk(*client_, bufs, 1);
  const RpcClient::CallId b = IssueWithBulk(*client_, bufs, 2);
  const RpcClient::CallId c = IssueWithBulk(*client_, bufs, 3);
  ASSERT_TRUE(server_.Progress(qp_->peer()).ok());
  ASSERT_EQ(parked.size(), 3u);
  Encoder reply;
  reply.U32(41);
  ASSERT_TRUE(parked[0]->Complete(reply.Take()).ok());
  EXPECT_EQ(client_->Poll(), 1u);
  ASSERT_TRUE(client_->Done(a));
  EXPECT_EQ(client_->in_flight(), 2u);
  EXPECT_EQ(client_ep_->mr_cache().leased(), 2 * per_call);

  EXPECT_EQ(client_->Await(b).status().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(client_->in_flight(), 1u);
  EXPECT_EQ(client_ep_->mr_cache().leased(), per_call);
  EXPECT_EQ(client_->Take(b).status().code(), ErrorCode::kNotFound);
  EXPECT_FALSE(client_->Done(c));
  auto taken = client_->Take(a);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  Decoder dec(taken->header);
  EXPECT_EQ(dec.U32().value_or(0), 41u);

  // The surviving call still completes normally.
  ASSERT_TRUE(parked[2]->Complete(Buffer{}).ok());
  EXPECT_TRUE(client_->Await(c).ok());
  EXPECT_EQ(client_->in_flight(), 0u);
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
  // b's context answers late: its reply matches nothing.
  ASSERT_TRUE(parked[1]->Complete(Buffer{}).ok());
  EXPECT_EQ(client_->Poll(), 0u);
  EXPECT_EQ(client_->unmatched_replies(), 1u);
}

TEST_P(RpcPipelineTest, StalledFlushAbandonsEveryPendingCallButKeepsResults) {
  std::vector<RpcContextPtr> parked;
  server_.RegisterAsync(13, [&](RpcContextPtr ctx) {
    parked.push_back(std::move(ctx));
    return HandlerVerdict::kDeferred;
  });
  client_->set_stall_timeout_ms(0.0);
  std::deque<Buffer> bufs;
  const RpcClient::CallId a = IssueWithBulk(*client_, bufs, 1);
  const RpcClient::CallId b = IssueWithBulk(*client_, bufs, 2);
  const RpcClient::CallId c = IssueWithBulk(*client_, bufs, 3);
  ASSERT_TRUE(server_.Progress(qp_->peer()).ok());
  ASSERT_EQ(parked.size(), 3u);
  ASSERT_TRUE(parked[0]->bulk().Push(MakePatternBuffer(256, 9)).ok());
  ASSERT_TRUE(parked[0]->Complete(Buffer{}).ok());

  // Flush completes a on its way to the stall, then abandons b and c.
  EXPECT_EQ(client_->Flush().code(), ErrorCode::kUnavailable);
  EXPECT_EQ(client_->in_flight(), 0u);
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u);
  EXPECT_EQ(client_->Take(b).status().code(), ErrorCode::kNotFound);
  EXPECT_EQ(client_->Take(c).status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(client_->Done(a));
  auto taken = client_->Take(a);
  ASSERT_TRUE(taken.ok()) << taken.status().ToString();
  EXPECT_EQ(taken->bulk_received, 256u);
  EXPECT_EQ(VerifyPattern(bufs[1], 9, 0), -1);
  for (std::size_t i = 1; i < parked.size(); ++i) {
    ASSERT_TRUE(parked[i]->Complete(Buffer{}).ok());
  }
  EXPECT_EQ(client_->Poll(), 0u);
  EXPECT_EQ(client_->unmatched_replies(), 2u);
}

TEST_P(RpcPipelineTest, TraceIdRoundTripsThroughTheWire) {
  // The trace ID rides the request frame, is echoed in the reply, and
  // keys the server's TraceRecord ring — a request's engine-side timing
  // breakdown stays recoverable per call.
  telemetry::Telemetry tree;
  telemetry::TraceRing traces(8);
  server_.EnableTelemetry(&tree, {}, &traces);
  std::deque<RpcContextPtr> parked;
  server_.RegisterAsync(21, [&](RpcContextPtr ctx) {
    parked.push_back(std::move(ctx));
    return HandlerVerdict::kDeferred;
  });

  // Explicit trace ID.
  CallOptions options;
  options.trace_id = 0xDEADBEEFCAFEull;
  auto id = client_->CallAsync(21, kNoHeader, options);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  ASSERT_TRUE(server_.Progress(qp_->peer()).ok());
  ASSERT_EQ(parked.size(), 1u);
  EXPECT_EQ(parked.front()->trace_id(), options.trace_id);
  ASSERT_TRUE(parked.front()->Complete(Buffer{}).ok());
  parked.pop_front();
  ASSERT_TRUE(client_->Flush().ok());
  auto reply = client_->Take(*id);
  ASSERT_TRUE(reply.ok());
  EXPECT_EQ(reply->trace_id, options.trace_id);

  // Default: derived from the sequence tag — nonzero and echoed too.
  auto id2 = client_->CallAsync(21, kNoHeader);
  ASSERT_TRUE(id2.ok());
  ASSERT_TRUE(server_.Progress(qp_->peer()).ok());
  ASSERT_EQ(parked.size(), 1u);
  const std::uint64_t derived = parked.front()->trace_id();
  EXPECT_NE(derived, 0u);
  ASSERT_TRUE(parked.front()->Complete(Buffer{}).ok());
  parked.pop_front();
  ASSERT_TRUE(client_->Flush().ok());
  auto reply2 = client_->Take(*id2);
  ASSERT_TRUE(reply2.ok());
  EXPECT_EQ(reply2->trace_id, derived);

  // Both requests landed in the trace ring, oldest first, with a
  // consistent breakdown (total covers exec).
  auto records = traces.Snapshot();
  ASSERT_EQ(records.size(), 2u);
  EXPECT_EQ(records[0].trace_id, options.trace_id);
  EXPECT_EQ(records[1].trace_id, derived);
  for (const auto& rec : records) {
    EXPECT_EQ(rec.opcode, 21u);
    EXPECT_GE(rec.total_ns, rec.exec_ns);
  }
}

INSTANTIATE_TEST_SUITE_P(Transports, RpcPipelineTest,
                         ::testing::Values(net::Transport::kTcp,
                                           net::Transport::kRdma),
                         [](const auto& info) {
                           return std::string(
                               perf::TransportName(info.param));
                         });

}  // namespace
}  // namespace ros2::rpc
