// RPC frame fuzzing: truncated, bit-flipped, and length-inflated request
// and reply frames fed through Decoder, RpcServer::Progress, and
// RpcClient::Call. Every mutated input must come back as a Status (or a
// harmlessly-garbled success) — never a crash, hang, or out-of-bounds
// read. Seeds are TEST_P params so ctest shards them (same pattern as
// vos_fuzz/dfs_fuzz).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "net/fabric.h"
#include "rpc/data_rpc.h"
#include "rpc/wire.h"

namespace ros2::rpc {
namespace {

constexpr std::span<const std::byte> kNoHeader{};

/// One of the three mutation classes from the issue; `kTruncate` may also
/// drop the frame to zero bytes.
void Mutate(Rng& rng, Buffer* frame) {
  if (frame->empty()) return;
  switch (rng.Below(3)) {
    case 0:  // truncate
      frame->resize(rng.Below(frame->size()));
      break;
    case 1: {  // single bit flip
      (*frame)[rng.Below(frame->size())] ^=
          std::byte(1u << rng.Below(8));
      break;
    }
    default: {  // length-inflate: stamp 0xFFFFFFFF over a random window
      const std::size_t at = rng.Below(frame->size());
      const std::size_t end = std::min(frame->size(), at + 4);
      for (std::size_t i = at; i < end; ++i) {
        (*frame)[i] = std::byte(0xFF);
      }
      break;
    }
  }
}

class RpcFuzzTest : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  void SetUp() override {
    auto server_ep = fabric_.CreateEndpoint("fabric://fuzz-server");
    auto client_ep = fabric_.CreateEndpoint("fabric://fuzz-client");
    ASSERT_TRUE(server_ep.ok() && client_ep.ok());
    server_ep_ = *server_ep;
    client_ep_ = *client_ep;
    server_pd_ = server_ep_->AllocPd();
    client_pd_ = client_ep_->AllocPd();

    // Opcode 1: echo as much of the input as fits the client window. Like
    // any real rendezvous handler, it refuses absurd client-claimed bulk
    // sizes BEFORE allocating (a length-inflated descriptor is a resource
    // attack; the fabric's bounds check would reject the Pull anyway).
    server_.Register(1, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
      if (bulk.in_size() > (1u << 20)) {
        return Status(InvalidArgument("bulk too large"));
      }
      Buffer data(bulk.in_size());
      ROS2_RETURN_IF_ERROR(bulk.Pull(data));
      const std::size_t n =
          std::min<std::size_t>(data.size(), bulk.out_capacity());
      ROS2_RETURN_IF_ERROR(
          bulk.Push(std::span<const std::byte>(data.data(), n)));
      return Buffer{};
    });
    // Opcode 2: push a little, then fail.
    server_.Register(2, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
      Buffer partial(std::min<std::uint64_t>(16, bulk.out_capacity()));
      ROS2_RETURN_IF_ERROR(bulk.Push(partial));
      return Status(Internal("fuzz handler failure"));
    });

    payload_ = MakePatternBuffer(4096, 0xF);
    window_.resize(4096);
  }

  net::Qp* Connect(net::Transport transport) {
    auto qp = client_ep_->Connect(server_ep_, transport, client_pd_,
                                  server_pd_);
    EXPECT_TRUE(qp.ok());
    return qp.value_or(nullptr);
  }

  /// Builds the exact frame RpcClient::CallAsync would send, using REAL
  /// registered descriptors on RDMA so mutations of addr/len/rkey exercise
  /// the fabric's capability and bounds validation against live MRs.
  Buffer BuildRequest(Rng& rng, bool tcp) {
    Encoder req;
    req.U32(std::uint32_t(rng.Below(4)));  // 0/3 unknown, 1 echo, 2 fail
    req.U64(rng.Next());                   // sequence tag (echoed in reply)
    req.U64(rng.Next());                   // trace id (echoed in reply)
    Buffer header = MakePatternBuffer(rng.Below(48), rng.Next());
    req.Bytes(header);
    if (rng.Below(2) != 0) {
      req.U8(1);
      if (tcp) {
        req.Bytes(payload_);
      } else {
        req.U64(reinterpret_cast<std::uintptr_t>(payload_.data()))
            .U64(payload_.size())
            .U64(payload_rkey_);
      }
    } else {
      req.U8(0);
    }
    if (rng.Below(2) != 0) {
      req.U8(1);
      if (tcp) {
        req.U64(window_.size());
      } else {
        req.U64(reinterpret_cast<std::uintptr_t>(window_.data()))
            .U64(window_.size())
            .U64(window_rkey_);
      }
    } else {
      req.U8(0);
    }
    return req.Take();
  }

  /// Builds the exact reply RpcContext::Complete would send: the frame
  /// and, on TCP, the inline payload the message carries beside it
  /// (returned in `*inline_out`, whose size the frame's pushed count
  /// states). `seq` is the tag the client under test expects next, so
  /// unmutated frames match a pending call and mutated ones exercise the
  /// unmatched-drop path.
  Buffer BuildReply(Rng& rng, bool tcp, std::uint64_t seq,
                    Buffer* inline_out) {
    Encoder reply;
    reply.U64(seq);
    reply.U64(rng.Next());  // trace id
    reply.U16(std::uint16_t(rng.Below(14)));
    reply.Str(rng.Below(2) != 0 ? "fuzz error" : "");
    Buffer header = MakePatternBuffer(rng.Below(48), rng.Next());
    reply.Bytes(header);
    *inline_out =
        tcp ? MakePatternBuffer(rng.Below(256), rng.Next()) : Buffer{};
    reply.U64(tcp ? inline_out->size() : rng.Below(1 << 20));
    return reply.Take();
  }

  void RegisterFuzzWindows() {
    auto in = client_ep_->RegisterMemory(client_pd_, payload_,
                                         net::kRemoteRead);
    auto out = client_ep_->RegisterMemory(client_pd_, window_,
                                          net::kRemoteWrite);
    ASSERT_TRUE(in.ok() && out.ok());
    payload_rkey_ = in->rkey;
    window_rkey_ = out->rkey;
  }

  net::Fabric fabric_;
  net::Endpoint* server_ep_ = nullptr;
  net::Endpoint* client_ep_ = nullptr;
  net::PdId server_pd_ = 0;
  net::PdId client_pd_ = 0;
  RpcServer server_;
  Buffer payload_;
  Buffer window_;
  net::RKey payload_rkey_ = 0;
  net::RKey window_rkey_ = 0;
};

TEST_P(RpcFuzzTest, DecoderSurvivesRandomBytes) {
  Rng rng(GetParam());
  for (int iter = 0; iter < 400; ++iter) {
    Buffer junk(rng.Below(96));
    for (auto& b : junk) b = std::byte(rng.Below(256));
    Decoder dec(junk);
    // Random walk over the accessors; every step either yields a value,
    // consuming within bounds, or a DATA_LOSS status.
    for (int op = 0; op < 12 && !dec.Done(); ++op) {
      switch (rng.Below(6)) {
        case 0: (void)dec.U8(); break;
        case 1: (void)dec.U16(); break;
        case 2: (void)dec.U32(); break;
        case 3: (void)dec.U64(); break;
        case 4: (void)dec.Str(); break;
        default: (void)dec.Bytes(); break;
      }
      ASSERT_LE(dec.remaining(), junk.size());
    }
  }
}

TEST_P(RpcFuzzTest, ServerSurvivesMutatedRequests) {
  Rng rng(GetParam() ^ 0x5EED);
  RegisterFuzzWindows();
  for (net::Transport transport :
       {net::Transport::kTcp, net::Transport::kRdma}) {
    net::Qp* qp = Connect(transport);
    ASSERT_NE(qp, nullptr);
    const bool tcp = transport == net::Transport::kTcp;
    for (int iter = 0; iter < 300; ++iter) {
      Buffer frame = BuildRequest(rng, tcp);
      Mutate(rng, &frame);
      ASSERT_TRUE(qp->Send(frame).ok());
      // Progress must return — ok or error — never crash or read OOB.
      (void)server_.Progress(qp->peer());
      while (qp->HasMessage()) (void)qp->Recv();   // drop replies
      while (qp->peer()->HasMessage()) (void)qp->peer()->Recv();
    }
  }
}

// The deferred-reply path under mutation: an async handler parks every
// request it gets; contexts are completed only AFTER the next frame has
// been decoded (interleaving deferral with decode, as the engine's
// xstream drain does), sometimes dropped without a reply (the dtor must
// auto-complete with an error), always without crashes or OOB reads.
TEST_P(RpcFuzzTest, DeferredServerSurvivesMutatedRequests) {
  Rng rng(GetParam() ^ 0xDEFE);
  RegisterFuzzWindows();
  std::vector<RpcContextPtr> parked;
  RpcServer deferring;
  deferring.RegisterAsync(1, [&](RpcContextPtr ctx) {
    parked.push_back(std::move(ctx));
    return HandlerVerdict::kDeferred;
  });
  // Opcode 2 stays synchronous so decode interleaves both handler kinds.
  deferring.Register(2, [](ByteView, BulkIo& bulk) -> Result<Buffer> {
    Buffer partial(std::min<std::uint64_t>(16, bulk.out_capacity()));
    ROS2_RETURN_IF_ERROR(bulk.Push(partial));
    return Status(Internal("fuzz handler failure"));
  });
  for (net::Transport transport :
       {net::Transport::kTcp, net::Transport::kRdma}) {
    net::Qp* qp = Connect(transport);
    ASSERT_NE(qp, nullptr);
    const bool tcp = transport == net::Transport::kTcp;
    for (int iter = 0; iter < 300; ++iter) {
      Buffer frame = BuildRequest(rng, tcp);
      Mutate(rng, &frame);
      ASSERT_TRUE(qp->Send(frame).ok());
      (void)deferring.Progress(qp->peer());
      // Contexts deferred by PREVIOUS frames complete here — after the
      // decode of the next frame, the ordering the engine pipeline
      // produces. A third of them are dropped instead: destroying an
      // uncompleted context must auto-reply, never hang or crash.
      if (iter % 2 == 1) {
        for (auto& ctx : parked) {
          switch (rng.Below(3)) {
            case 0: {
              // Like any real rendezvous handler: refuse absurd
              // client-claimed bulk sizes BEFORE allocating.
              if (ctx->bulk().in_size() > (1u << 20)) {
                (void)ctx->Complete(
                    Status(InvalidArgument("bulk too large")));
                break;
              }
              Buffer data(ctx->bulk().in_size());
              Status pull = ctx->bulk().Pull(data);
              (void)ctx->Complete(pull.ok() ? Result<Buffer>(Buffer{})
                                            : Result<Buffer>(pull));
              break;
            }
            case 1:
              (void)ctx->Complete(Status(Internal("deferred failure")));
              break;
            default:
              ctx.reset();  // dropped: dtor sends the INTERNAL reply
              break;
          }
        }
        parked.clear();
      }
      while (qp->HasMessage()) (void)qp->Recv();   // drop replies
    }
    parked.clear();
    while (qp->HasMessage()) (void)qp->Recv();
    while (qp->peer()->HasMessage()) (void)qp->peer()->Recv();
  }
  // Every deferred context was eventually answered (Complete or the
  // dtor's auto-reply), so none is missing from the served count.
  EXPECT_GE(deferring.requests_served(), deferring.requests_deferred());
}

TEST_P(RpcFuzzTest, ClientSurvivesMutatedReplies) {
  Rng rng(GetParam() ^ 0xCA11);
  for (net::Transport transport :
       {net::Transport::kTcp, net::Transport::kRdma}) {
    net::Qp* qp = Connect(transport);
    ASSERT_NE(qp, nullptr);
    const bool tcp = transport == net::Transport::kTcp;
    // No progress hook: the "server" is the mutated reply we pre-queue.
    RpcClient client(qp, client_ep_, nullptr);
    for (int iter = 0; iter < 300; ++iter) {
      // The client's next CallAsync takes sequence tag iter + 1.
      Buffer inline_out;
      Buffer reply =
          BuildReply(rng, tcp, std::uint64_t(iter) + 1, &inline_out);
      // Either part may arrive damaged: a TCP reply's inline segment can
      // be corrupted or cut short of the count its frame states.
      Mutate(rng, tcp && rng.Below(2) != 0 ? &inline_out : &reply);
      RawBuffer tail(inline_out.size());
      if (!inline_out.empty()) {
        std::memcpy(tail.data(), inline_out.data(), inline_out.size());
      }
      ASSERT_TRUE(qp->peer()->Send(std::move(reply), std::move(tail)).ok());
      CallOptions options;
      options.recv_bulk = window_;
      // Any Status (or a garbled-but-bounded success) is acceptable.
      (void)client.Call(1, kNoHeader, options);
      while (qp->peer()->HasMessage()) (void)qp->peer()->Recv();
      while (qp->HasMessage()) (void)qp->Recv();
    }
  }
  EXPECT_EQ(client_ep_->mr_cache().leased(), 0u)
      << "mutated replies leaked bulk-window leases";
}

INSTANTIATE_TEST_SUITE_P(Seeds, RpcFuzzTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// ------------------------------------------- pinned malformed TCP frames
// The server keeps a TCP request's frame and hands its handler views into
// it, so every length the frame claims must lie inside the frame; the
// client copies a reply's inline segment into the caller's window, so that
// segment must fit the window. These run under ASan with the fuzz seeds.

class MalformedTcpFrameTest : public ::testing::Test {
 protected:
  /// Offset of the inline payload's u32 length prefix in Request():
  /// opcode, sequence tag, trace id, empty header, has-payload flag.
  static constexpr std::size_t kInlineLengthAt = 4 + 8 + 8 + 4 + 1;

  void SetUp() override {
    auto server_ep = fabric_.CreateEndpoint("fabric://frame-server");
    auto client_ep = fabric_.CreateEndpoint("fabric://frame-client");
    ASSERT_TRUE(server_ep.ok() && client_ep.ok());
    client_ep_ = *client_ep;
    auto qp = client_ep_->Connect(*server_ep, net::Transport::kTcp,
                                  client_ep_->AllocPd(),
                                  (*server_ep)->AllocPd());
    ASSERT_TRUE(qp.ok());
    qp_ = *qp;
    server_.Register(1, [this](ByteView, BulkIo& bulk) -> Result<Buffer> {
      ++handled_;
      Buffer data(bulk.in_size());
      ROS2_RETURN_IF_ERROR(bulk.Pull(data));
      return data;
    });
  }

  /// A well-formed request for opcode 1 carrying `payload` inline and no
  /// receive window, as RpcClient::CallAsync encodes it.
  static Buffer Request(std::span<const std::byte> payload) {
    Encoder req;
    req.U32(1).U64(1).U64(1).Bytes({}).U8(1).Bytes(payload).U8(0);
    return req.Take();
  }

  /// Sends `frame` and pumps the server once.
  Status Serve(Buffer frame) {
    EXPECT_TRUE(qp_->Send(std::move(frame)).ok());
    return server_.Progress(qp_->peer());
  }

  /// Drops a malformed request without a reply or a handler call, then
  /// still serves a well-formed one on the same QP.
  void ExpectRejectedThenServed(Buffer malformed) {
    EXPECT_EQ(Serve(std::move(malformed)).code(), ErrorCode::kDataLoss);
    EXPECT_EQ(handled_, 0);
    EXPECT_FALSE(qp_->HasMessage());
    EXPECT_TRUE(Serve(Request(payload_)).ok());
    EXPECT_EQ(handled_, 1);
    EXPECT_TRUE(qp_->HasMessage());
  }

  net::Fabric fabric_;
  net::Endpoint* client_ep_ = nullptr;
  net::Qp* qp_ = nullptr;
  RpcServer server_;
  int handled_ = 0;
  const Buffer payload_ = MakePatternBuffer(64, 1);
};

TEST_F(MalformedTcpFrameTest, InlineLengthPastTheFrameIsDataLoss) {
  for (std::uint32_t claimed : {std::uint32_t(payload_.size() + 2),
                                std::uint32_t(0xFFFFFFFF)}) {
    Buffer frame = Request(payload_);
    for (std::size_t i = 0; i < 4; ++i) {
      frame[kInlineLengthAt + i] = std::byte(claimed >> (8 * i));
    }
    handled_ = 0;
    while (qp_->HasMessage()) (void)qp_->Recv();
    ExpectRejectedThenServed(std::move(frame));
  }
}

TEST_F(MalformedTcpFrameTest, TrailingBytesAfterTheInlinePayloadAreDataLoss) {
  Buffer frame = Request(payload_);
  frame.push_back(std::byte(0));
  ExpectRejectedThenServed(std::move(frame));
}

TEST_F(MalformedTcpFrameTest, ReplyInlineLargerThanTheWindowIsRejected) {
  RpcClient client(qp_, client_ep_, nullptr);
  Buffer window = MakePatternBuffer(256, 2);
  const Buffer before = window;
  // What a server that ignored the window would send for the client's
  // first call (sequence tag 1): a successful reply whose inline segment
  // is one byte larger than the window, its count agreeing.
  Encoder reply;
  reply.U64(1).U64(1).U16(0).Str("").Bytes({}).U64(window.size() + 1);
  RawBuffer inline_out(window.size() + 1);
  FillPattern(inline_out.span(), 3, 0);
  ASSERT_TRUE(qp_->peer()->Send(reply.Take(), std::move(inline_out)).ok());
  CallOptions options;
  options.recv_bulk = window;
  EXPECT_EQ(client.Call(1, kNoHeader, options).status().code(),
            ErrorCode::kOutOfRange);
  EXPECT_EQ(window, before);
}

}  // namespace
}  // namespace ros2::rpc
