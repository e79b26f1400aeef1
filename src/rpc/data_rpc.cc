#include "rpc/data_rpc.h"

#include <chrono>
#include <cstring>
#include <thread>

namespace ros2::rpc {
namespace {

/// Stall deadlines are wall-clock (steady), not round-count: with a
/// threaded server the number of no-progress pump rounds before a reply
/// lands depends on scheduling, so "one empty round = dead" misfires.
std::chrono::steady_clock::time_point StallDeadline(double ms) {
  return std::chrono::steady_clock::now() +
         std::chrono::duration_cast<std::chrono::steady_clock::duration>(
             std::chrono::duration<double, std::milli>(ms));
}

Status DecodeBulkDesc(Decoder& dec, BulkDesc* out) {
  ROS2_ASSIGN_OR_RETURN(out->addr, dec.U64());
  ROS2_ASSIGN_OR_RETURN(out->len, dec.U64());
  ROS2_ASSIGN_OR_RETURN(out->rkey, dec.U64());
  return Status::Ok();
}

void EncodeBulkDesc(Encoder& enc, const BulkDesc& desc) {
  enc.U64(desc.addr).U64(desc.len).U64(desc.rkey);
}

}  // namespace

// ---------------------------------------------------------------- BulkIo

Status BulkIo::Pull(std::span<std::byte> dst) {
  if (dst.size() != in_size_) {
    return InvalidArgument("bulk pull size mismatch");
  }
  if (in_size_ == 0) return Status::Ok();
  if (tcp_) {
    std::memcpy(dst.data(), inline_in_.data(), dst.size());
    return Status::Ok();
  }
  return server_qp_->RdmaRead(dst, in_desc_.addr, in_desc_.rkey);
}

Status BulkIo::PullInPlace(FunctionRef<Status(ByteView)> consume) {
  if (tcp_) return consume(inline_in_);
  // Uninitialized: the one-sided read writes every byte first.
  RawBuffer staging(in_size_);
  ROS2_RETURN_IF_ERROR(Pull(staging.span()));
  return consume(staging.span());
}

Status BulkIo::Push(std::span<const std::byte> src) {
  // A zero-byte push is a no-op on every transport. (It used to reach
  // RdmaWrite against the zero-initialized descriptor when the client
  // exposed no window — rkey 0 -> PermissionDenied on RDMA while TCP
  // succeeded.)
  if (src.empty()) return Status::Ok();
  if (tcp_) {
    return PushInPlace(src.size(), [src](std::span<std::byte> dst) {
      std::memcpy(dst.data(), src.data(), src.size());
      return Status::Ok();
    });
  }
  if (src.size() > out_capacity_ - pushed_) {
    return OutOfRange("bulk push exceeds client window");
  }
  // Bound-state one-sided push: writes through this request's decoded
  // out-descriptor at the running offset. out_capacity_ > 0 implies a
  // valid descriptor, so this is unreachable without a client window.
  ROS2_RETURN_IF_ERROR(
      server_qp_->RdmaWrite(src, out_desc_.addr + pushed_, out_desc_.rkey));
  pushed_ += src.size();
  return Status::Ok();
}

Status BulkIo::PushInPlace(std::size_t size,
                           FunctionRef<Status(std::span<std::byte>)> fill) {
  if (size > out_capacity_ - pushed_) {
    return OutOfRange("bulk push exceeds client window");
  }
  if (!tcp_) {
    RawBuffer staging(size);
    ROS2_RETURN_IF_ERROR(fill(staging.span()));
    return Push(staging.span());
  }
  // The reply's inline segment, sized exactly: one push allocates it
  // once, and a further push moves the earlier bytes into a larger one.
  RawBuffer grown(pushed_ + size);
  if (pushed_ > 0) std::memcpy(grown.data(), inline_out_.data(), pushed_);
  ROS2_RETURN_IF_ERROR(fill(grown.span().subspan(pushed_)));
  inline_out_ = std::move(grown);
  pushed_ += size;
  return Status::Ok();
}

// ------------------------------------------------------------ RpcContext

RpcContext::~RpcContext() {
  // A context that was decoded but never answered (handler dropped it on
  // an error path) must not strand the client: fail loudly.
  if (server_ != nullptr && !completed_.load(std::memory_order_acquire)) {
    (void)Complete(Status(Internal("request dropped without a reply")));
  }
}

Status RpcContext::Complete(Result<Buffer> reply) {
  // Atomic exchange: exactly one caller wins even if a worker thread and
  // the teardown path race to complete the same context.
  if (completed_.exchange(true, std::memory_order_acq_rel)) {
    return FailedPrecondition("rpc context already completed");
  }

  // Reply tag + echoed trace ID: the tag lets the client match
  // out-of-order replies, the trace ID correlates the reply with the
  // engine-side TraceRecord for this request.
  bool handler_ok = reply.ok();
  Encoder enc(Encoder::kInlineReserve +
              (handler_ok ? reply->size() : reply.status().message().size()));
  enc.U64(seq_).U64(trace_id_);
  if (handler_ok) {
    enc.U16(std::uint16_t(ErrorCode::kOk)).Str("").Bytes(*reply);
  } else {
    enc.U16(std::uint16_t(reply.status().code()))
        .Str(reply.status().message())
        .Bytes({});
  }
  // Error replies carry no bulk and report pushed = 0: a failed handler
  // must not hand the client partial output to copy into its buffer.
  // (RDMA pushes that already landed one-sided can't be unwritten, but
  // the reply tells the client to treat the window as undefined.)
  enc.U64(handler_ok ? bulk_.pushed_ : 0);
  if (!enc.ok()) {
    // A handler produced output too large for the wire's length
    // prefixes; send a well-formed error frame instead of a torn one.
    Encoder oversize;
    oversize.U64(seq_).U64(trace_id_);
    oversize.U16(std::uint16_t(ErrorCode::kOutOfRange))
        .Str("reply exceeds wire limits")
        .Bytes({})
        .U64(0);
    enc = std::move(oversize);
    handler_ok = false;
  }

  server_->served_.Add(1);
  server_->bulk_in_.Add(bulk_.in_size_);
  server_->bulk_out_.Add(handler_ok ? bulk_.pushed_ : 0);

  if (op_stats_ != nullptr && decode_ns_ != 0) {
    // Latency breakdown, recorded by whichever thread completes (the
    // progress thread or a target worker; the stats are thread-safe).
    // Inline handlers never saw the scheduler: their queue wait is zero
    // and the whole span counts as execution.
    const std::uint64_t now = telemetry::NowNs();
    const std::uint64_t total = now > decode_ns_ ? now - decode_ns_ : 0;
    std::uint64_t queue = 0;
    std::uint64_t exec = total;
    if (exec_start_ns_ >= decode_ns_) {
      queue = exec_start_ns_ - decode_ns_;
      if (exec_end_ns_ >= exec_start_ns_) {
        exec = exec_end_ns_ - exec_start_ns_;
      }
    }
    op_stats_->queue_latency.Record(double(queue) * 1e-9);
    op_stats_->exec_latency.Record(double(exec) * 1e-9);
    op_stats_->total_latency.Record(double(total) * 1e-9);
    if (!handler_ok) op_stats_->errors.Add(1);
    if (server_->trace_ring_ != nullptr) {
      server_->trace_ring_->Push(
          {trace_id_, opcode_, queue, exec, total});
    }
  }
  // A TCP reply's inline payload rides as the message's second segment,
  // so the frame is never assembled around it.
  return qp_->Send(enc.Take(), handler_ok ? std::move(bulk_.inline_out_)
                                          : RawBuffer{});
}

// -------------------------------------------------------------- RpcServer

void RpcServer::Register(std::uint32_t opcode, Handler handler) {
  RegisterAsync(opcode,
                [handler = std::move(handler)](RpcContextPtr ctx) {
                  Result<Buffer> result = handler(ctx->header(), ctx->bulk());
                  (void)ctx->Complete(std::move(result));
                  return HandlerVerdict::kDone;
                });
}

void RpcServer::RegisterAsync(std::uint32_t opcode, AsyncHandler handler) {
  Registration& reg = handlers_[opcode];
  reg.fn = std::move(handler);
  if (tree_ != nullptr && reg.stats == nullptr) {
    InstrumentOpcode(opcode, reg);
  }
}

void RpcServer::EnableTelemetry(telemetry::Telemetry* tree, OpcodeNamer namer,
                                telemetry::TraceRing* traces) {
  tree_ = tree;
  namer_ = std::move(namer);
  trace_ring_ = traces;
  if (tree_ == nullptr) return;
  tree_->LinkCounter("rpc/requests_served", &served_);
  tree_->LinkCounter("rpc/requests_deferred", &deferred_);
  tree_->LinkCounter("rpc/bulk_bytes_in", &bulk_in_);
  tree_->LinkCounter("rpc/bulk_bytes_out", &bulk_out_);
  tree_->LinkCounter("rpc/unknown_opcodes", &unknown_);
  for (auto& [opcode, reg] : handlers_) {
    if (reg.stats == nullptr) InstrumentOpcode(opcode, reg);
  }
}

void RpcServer::InstrumentOpcode(std::uint32_t opcode, Registration& reg) {
  reg.stats = std::make_unique<RpcOpStats>();
  std::string name =
      namer_ ? namer_(opcode) : "op" + std::to_string(opcode);
  const std::string base = "rpc/op/" + name + "/";
  tree_->LinkCounter(base + "requests", &reg.stats->requests);
  tree_->LinkCounter(base + "errors", &reg.stats->errors);
  tree_->LinkHistogram(base + "latency/queue", &reg.stats->queue_latency);
  tree_->LinkHistogram(base + "latency/exec", &reg.stats->exec_latency);
  tree_->LinkHistogram(base + "latency/total", &reg.stats->total_latency);
}

Result<RpcContextPtr> RpcServer::Decode(net::Qp* qp, Buffer frame) {
  auto ctx = RpcContextPtr(new RpcContext());
  ctx->qp_ = qp;
  // The context keeps the frame; the header and a TCP inline payload are
  // views into it (moving a vector keeps its bytes in place).
  ctx->frame_ = std::move(frame);
  Decoder dec(ctx->frame_);
  ROS2_ASSIGN_OR_RETURN(ctx->opcode_, dec.U32());
  ROS2_ASSIGN_OR_RETURN(ctx->seq_, dec.U64());
  ROS2_ASSIGN_OR_RETURN(ctx->trace_id_, dec.U64());
  ROS2_ASSIGN_OR_RETURN(ctx->header_, dec.BytesView());
  if (tree_ != nullptr) ctx->decode_ns_ = telemetry::NowNs();

  const bool tcp = qp->transport() == net::Transport::kTcp;
  BulkIo& bulk = ctx->bulk_;
  bulk.tcp_ = tcp;
  bulk.server_qp_ = qp;

  ROS2_ASSIGN_OR_RETURN(std::uint8_t has_in, dec.U8());
  if (has_in != 0) {
    if (tcp) {
      ROS2_ASSIGN_OR_RETURN(bulk.inline_in_, dec.BytesView());
      bulk.in_size_ = bulk.inline_in_.size();
    } else {
      ROS2_RETURN_IF_ERROR(DecodeBulkDesc(dec, &bulk.in_desc_));
      bulk.in_size_ = bulk.in_desc_.len;
    }
  }
  ROS2_ASSIGN_OR_RETURN(std::uint8_t has_out, dec.U8());
  if (has_out != 0) {
    if (tcp) {
      ROS2_ASSIGN_OR_RETURN(bulk.out_capacity_, dec.U64());
    } else {
      ROS2_RETURN_IF_ERROR(DecodeBulkDesc(dec, &bulk.out_desc_));
      bulk.out_capacity_ = bulk.out_desc_.len;
    }
  }
  if (!dec.Done()) return DataLoss("trailing bytes after rpc request");
  // Armed last: only a fully-decoded context owes the client a reply (a
  // decode failure above destroys the partial context silently, as the
  // pre-pipeline server did).
  ctx->server_ = this;
  return ctx;
}

void RpcServer::Dispatch(RpcContextPtr ctx) {
  if (fault_plan_ != nullptr) {
    // Delay first (a slow server still answers), then drop: a dropped
    // request completes with UNAVAILABLE rather than vanishing, so the
    // client's pipeline drains deterministically instead of hanging on a
    // reply that never comes.
    const common::FaultDecision delay =
        fault_plan_->Evaluate(common::FaultPoint::kRpcDelay);
    if (delay.fire && delay.delay_us > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(delay.delay_us));
    }
    if (fault_plan_->Evaluate(common::FaultPoint::kRpcDrop).fire) {
      dropped_.Add(1);
      (void)ctx->Complete(
          Status(Unavailable("fault injection: request dropped")));
      return;
    }
  }
  auto it = handlers_.find(ctx->opcode());
  if (it == handlers_.end()) {
    unknown_.Add(1);
    (void)ctx->Complete(Status(NotFound("unknown opcode")));
    return;
  }
  Registration& reg = it->second;
  if (reg.stats != nullptr) {
    reg.stats->requests.Add(1);
    ctx->op_stats_ = reg.stats.get();
  }
  if (reg.fn(std::move(ctx)) == HandlerVerdict::kDeferred) {
    deferred_.Add(1);
  }
}

Status RpcServer::Progress(net::Qp* qp) {
  while (qp->HasMessage()) {
    ROS2_ASSIGN_OR_RETURN(net::Message msg, qp->Recv());
    ROS2_ASSIGN_OR_RETURN(RpcContextPtr ctx,
                          Decode(qp, std::move(msg.payload)));
    Dispatch(std::move(ctx));
  }
  return Status::Ok();
}

Status RpcServer::Progress(net::PollSet* set) {
  Status first = Status::Ok();
  set->Drain([&](net::Qp* qp) {
    Status s = Progress(qp);
    if (first.ok() && !s.ok()) first = s;
  });
  return first;
}

// -------------------------------------------------------------- RpcClient

Result<net::MrLease> RpcClient::AcquireMr(std::span<std::byte> region,
                                          std::uint32_t access) {
  if (mr_pooling_) {
    return local_->mr_cache().Acquire(qp_->local_pd(), region, access);
  }
  return net::MrLease::Register(local_, qp_->local_pd(), region, access);
}

Result<RpcClient::CallId> RpcClient::CallAsync(std::uint32_t opcode,
                                               const Encoder& header,
                                               const CallOptions& options) {
  if (!header.ok()) return Status(header.status());
  return CallAsync(opcode, header.buffer(), options);
}

Result<RpcClient::CallId> RpcClient::CallAsync(
    std::uint32_t opcode, std::span<const std::byte> header,
    const CallOptions& options) {
  if (qp_ == nullptr || !qp_->connected()) {
    return Status(Unavailable("rpc client not connected"));
  }
  // Backpressure: with a threaded server, replies arrive whenever its
  // progress thread drains completions, so a full window is normally
  // transient. Wait for a slot; a stall abandons nothing.
  if (in_flight_ >= max_in_flight_ &&
      !WaitFor([this] { return in_flight_ < max_in_flight_; })) {
    return Status(ResourceExhausted("rpc in-flight window full"));
  }
  const bool tcp = qp_->transport() == net::Transport::kTcp;

  const CallId id = next_seq_++;
  const std::uint64_t trace = options.trace_id != 0 ? options.trace_id : id;
  // Sized once: a TCP payload is copied into the frame exactly once and
  // the frame moves into the send queue.
  Encoder req(Encoder::kInlineReserve + header.size() +
              (tcp ? options.send_bulk.size() : 0));
  req.U32(opcode).U64(id).U64(trace).Bytes(header);

  // Leases on this call's bulk windows (RDMA rendezvous). Pooled by
  // default — the MrCache amortizes the page-pin cost across calls — and
  // RAII either way: every return below releases both registrations, and
  // a successfully issued call parks them in its pending entry until the
  // reply is matched or the call abandoned.
  PendingCall call;

  if (!options.send_bulk.empty()) {
    req.U8(1);
    if (tcp) {
      req.Bytes(options.send_bulk);
    } else {
      // Verbs registration is access-controlled but not const-aware; the
      // server only reads through kRemoteRead.
      auto lease = AcquireMr(
          std::span<std::byte>(
              const_cast<std::byte*>(options.send_bulk.data()),
              options.send_bulk.size()),
          net::kRemoteRead);
      if (!lease.ok()) return lease.status();
      call.send_lease = std::move(*lease);
      EncodeBulkDesc(req, {call.send_lease.addr(), call.send_lease.length(),
                           call.send_lease.rkey()});
    }
  } else {
    req.U8(0);
  }

  if (!options.recv_bulk.empty()) {
    req.U8(1);
    if (tcp) {
      req.U64(options.recv_bulk.size());
    } else {
      auto lease = AcquireMr(options.recv_bulk, net::kRemoteWrite);
      if (!lease.ok()) return lease.status();
      call.recv_lease = std::move(*lease);
      EncodeBulkDesc(req, {call.recv_lease.addr(), call.recv_lease.length(),
                           call.recv_lease.rkey()});
    }
  } else {
    req.U8(0);
  }

  if (!req.ok()) return Status(req.status());
  ROS2_RETURN_IF_ERROR(qp_->Send(req.Take()));
  call.id = id;
  call.recv_bulk = options.recv_bulk;
  pending_.push_back(std::move(call));
  ++in_flight_;
  return id;
}

RpcClient::PendingCall* RpcClient::FindPending(CallId id) {
  for (PendingCall& call : pending_) {
    if (call.id == id) return &call;
  }
  return nullptr;
}

const RpcClient::PendingCall* RpcClient::FindPending(CallId id) const {
  for (const PendingCall& call : pending_) {
    if (call.id == id) return &call;
  }
  return nullptr;
}

void RpcClient::ErasePending(CallId id) {
  for (std::size_t i = 0; i < pending_.size(); ++i) {
    if (pending_[i].id == id) {
      if (i + 1 != pending_.size()) {
        pending_[i] = std::move(pending_.back());
      }
      pending_.pop_back();
      return;
    }
  }
}

void RpcClient::CompletePending(PendingCall& call, Result<RpcReply> result) {
  call.done = true;
  call.result = std::move(result);
  // The server is finished with this call's windows; hand the leases back
  // now rather than at Take() so batch pipelines recycle registrations.
  call.send_lease.Release();
  call.recv_lease.Release();
  call.recv_bulk = {};
  --in_flight_;
}

void RpcClient::MatchReply(const net::Message& reply) {
  Decoder dec(reply.payload);
  auto seq = dec.U64();
  auto trace = dec.U64();
  if (!seq.ok() || !trace.ok()) {
    ++unmatched_replies_;
    return;
  }
  PendingCall* found = FindPending(*seq);
  if (found == nullptr || found->done) {
    // A tag we never issued (or already answered): drop the frame — the
    // call it might have been meant for will surface as a stall, never as
    // bytes landing in the wrong buffer.
    ++unmatched_replies_;
    return;
  }
  PendingCall& call = *found;

  auto code = dec.U16();
  auto err = dec.Str();
  auto reply_header = dec.Bytes();
  auto pushed = dec.U64();
  if (!code.ok() || !err.ok() || !reply_header.ok() || !pushed.ok() ||
      !dec.Done()) {
    CompletePending(call, Status(DataLoss("malformed rpc reply")));
    return;
  }
  if (ErrorCode(*code) != ErrorCode::kOk) {
    // Error replies land no bytes in the caller's window (any inline
    // segment one carries is ignored).
    CompletePending(call, Status(ErrorCode(*code), *err));
    return;
  }
  if (qp_->transport() == net::Transport::kTcp) {
    const RawBuffer& inline_out = reply.tail;
    if (inline_out.size() > call.recv_bulk.size()) {
      CompletePending(
          call, Status(OutOfRange("server pushed more than the recv "
                                  "window")));
      return;
    }
    if (*pushed != inline_out.size()) {
      CompletePending(call, Status(DataLoss("malformed rpc reply")));
      return;
    }
    // Skip the copy entirely when the reply carries no inline bulk:
    // with no recv window both pointers are null, and memcpy's
    // arguments are declared nonnull even for length 0 (UBSan-fatal;
    // any zero-bulk TCP unary call reproduces it).
    if (!inline_out.empty()) {
      std::memcpy(call.recv_bulk.data(), inline_out.data(),
                  inline_out.size());
    }
  }
  RpcReply out;
  out.header = std::move(*reply_header);
  out.trace_id = *trace;
  out.bulk_received = *pushed;
  CompletePending(call, std::move(out));
}

std::size_t RpcClient::Poll() {
  std::size_t completed = 0;
  while (qp_ != nullptr && qp_->HasMessage()) {
    auto msg = qp_->Recv();
    if (!msg.ok()) break;
    const std::size_t before = in_flight_;
    MatchReply(*msg);
    if (in_flight_ < before) ++completed;
  }
  return completed;
}

bool RpcClient::Done(CallId id) const {
  const PendingCall* call = FindPending(id);
  return call != nullptr && call->done;
}

Result<RpcReply> RpcClient::Take(CallId id) {
  PendingCall* call = FindPending(id);
  if (call == nullptr) return Status(NotFound("unknown call handle"));
  if (!call->done) {
    return Status(Unavailable("call still in flight; Poll or Flush first"));
  }
  Result<RpcReply> result = std::move(call->result);
  ErasePending(id);
  return result;
}

bool RpcClient::WaitFor(FunctionRef<bool()> done) {
  auto deadline = StallDeadline(stall_timeout_ms_);
  while (!done()) {
    const std::size_t completed = Poll();
    if (done()) return true;
    if (progress_) progress_();
    if (completed + Poll() > 0) {
      deadline = StallDeadline(stall_timeout_ms_);  // server is live
    } else if (std::chrono::steady_clock::now() >= deadline) {
      return false;
    } else {
      std::this_thread::yield();
    }
  }
  return true;
}

Result<RpcReply> RpcClient::Await(CallId id) {
  if (FindPending(id) == nullptr) {
    return Status(NotFound("unknown call handle"));
  }
  // Look the call up each round: the window table may reshuffle.
  if (!WaitFor([&] {
        const PendingCall* call = FindPending(id);
        return call == nullptr || call->done;
      })) {
    // Zero completions for a full stall window: the server will never
    // answer (dead hook, swallowed frame). Abandon this call alone,
    // releasing its leases.
    ErasePending(id);
    --in_flight_;
    return Status(Unavailable("no reply from server"));
  }
  return Take(id);
}

Status RpcClient::Flush() {
  if (!WaitFor([this] { return in_flight_ == 0; })) {
    // Completed-not-taken results stay available to Take.
    in_flight_ -= std::size_t(std::erase_if(
        pending_, [](const PendingCall& call) { return !call.done; }));
    return Status(Unavailable("no reply from server"));
  }
  return Status::Ok();
}

Result<RpcReply> RpcClient::Call(std::uint32_t opcode, const Encoder& header,
                                 const CallOptions& options) {
  if (!header.ok()) return Status(header.status());
  return Call(opcode, header.buffer(), options);
}

Result<RpcReply> RpcClient::Call(std::uint32_t opcode,
                                 std::span<const std::byte> header,
                                 const CallOptions& options) {
  ROS2_ASSIGN_OR_RETURN(CallId id, CallAsync(opcode, header, options));
  return Await(id);
}

}  // namespace ros2::rpc
