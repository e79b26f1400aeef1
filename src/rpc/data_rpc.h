// CaRT/Mercury-like data-plane RPC over fabric queue pairs (§3.3).
//
// Unary RPCs carry an opcode + small header. Bulk payloads move
// transport-appropriately:
//
//  - RDMA: the client registers its buffers and ships {addr, len, rkey}
//    descriptors; the SERVER drives one-sided RdmaRead (pull client data)
//    or RdmaWrite (push results) — rendezvous, zero client-side copies.
//  - TCP: payloads are carried inline in the send/recv stream in both
//    directions — the path the paper measures against — and pay exactly
//    a socket's copies: the sender copies each payload byte once into
//    the message it sends, the receiver copies it once out. A request
//    frame is built once at its final size with the payload inside; the
//    server keeps the received frame and its BulkIo reads the header and
//    inline payload as views into it. A reply's inline payload travels
//    as the message's second segment (Message::tail), which a handler
//    fills in place (BulkIo::PushInPlace); the client copies it once into
//    the caller's window.
//
// The request path is an async pipeline, both sides:
//
//  - SERVER: Progress() splits into decode -> dispatch. Every request
//    becomes a first-class RpcContext owning the received frame (its
//    header is a view into it), the request's BulkIo, and the reply slot. A handler may reply inline
//    (RpcContext::Complete) or return kDeferred and park the context on a
//    run queue (daos::EngineScheduler) to complete later — the CaRT
//    ULT-per-request model. Requests are matched to replies by a per-call
//    sequence tag on the wire, so deferred contexts may complete in any
//    order.
//  - CLIENT: CallAsync() returns a completion handle and keeps up to
//    max_in_flight() calls outstanding; Poll() drains arrived replies,
//    Flush() pumps until everything pending completed. The full-window
//    wait, Await and Flush share one pump-and-deadline loop. The
//    synchronous Call() is CallAsync + Await — same contract as before.
//
// The in-process client pumps the server synchronously through a hook
// installed at connection time (stands in for network + progress thread).
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "common/bytes.h"
#include "common/fault.h"
#include "common/function_ref.h"
#include "common/status.h"
#include "net/fabric.h"
#include "net/mr_cache.h"
#include "rpc/wire.h"
#include "telemetry/metrics.h"

namespace ros2::rpc {

class RpcServer;

/// Per-opcode server-side telemetry: request/error counts plus the
/// decode->dispatch->execute->reply latency breakdown. One instance per
/// registered opcode, linked into the engine's telemetry tree under
/// rpc/op/<name>/. Complete records from whichever thread sends the reply
/// (the progress thread, or a threaded engine's target workers); the
/// counters are atomic and each histogram shard has its own mutex, so one
/// shard stays correct under concurrent workers.
struct RpcOpStats {
  telemetry::Counter requests{1};
  telemetry::Counter errors{1};
  telemetry::Histogram queue_latency{1};  ///< decode -> execution start
  telemetry::Histogram exec_latency{1};   ///< handler body
  telemetry::Histogram total_latency{1};  ///< decode -> reply sent
};

/// Bulk descriptor conveyed in RDMA requests (client-registered MR window).
struct BulkDesc {
  std::uintptr_t addr = 0;
  std::uint64_t len = 0;
  net::RKey rkey = 0;
  bool valid() const { return len > 0; }
};

/// Server-side handle for moving bulk data for one request, hiding the
/// transport (one-sided RDMA vs inline TCP bytes). Push/Pull bind directly
/// to the request's decoded descriptors. The in-place forms let a handler
/// read or write the payload where the transport has it: on TCP the
/// request frame and the reply's inline segment, on RDMA a staging buffer
/// moved one-sided.
class BulkIo {
 public:
  /// Bytes the client is offering (update/write payload). Size 0 if none.
  std::uint64_t in_size() const { return in_size_; }
  /// Capacity the client exposed for results (fetch/read payload).
  std::uint64_t out_capacity() const { return out_capacity_; }

  /// Pulls the client's payload into `dst` (must be exactly in_size()).
  Status Pull(std::span<std::byte> dst);
  /// Hands the client's in_size() payload bytes to `consume`: on TCP a
  /// view into the request frame, on RDMA a staging buffer read
  /// one-sided. The span is valid only during the call.
  Status PullInPlace(FunctionRef<Status(ByteView)> consume);

  /// Pushes `src` to the client's result buffer (<= out_capacity()).
  Status Push(std::span<const std::byte> src);
  /// Pushes `size` bytes that `fill` writes, every one of them: on TCP
  /// straight into the reply's inline segment, on RDMA into a staging
  /// buffer then written one-sided. A failed fill pushes nothing.
  Status PushInPlace(std::size_t size,
                     FunctionRef<Status(std::span<std::byte>)> fill);

  /// Bytes actually pushed (the client's count of landed bytes).
  std::uint64_t pushed() const { return pushed_; }

 private:
  friend class RpcServer;
  friend class RpcContext;
  net::Qp* server_qp_ = nullptr;  // RDMA: server side of the connection
  BulkDesc in_desc_;
  BulkDesc out_desc_;
  ByteView inline_in_;    // TCP: view into the request frame
  RawBuffer inline_out_;  // TCP: the reply's second segment
  std::uint64_t in_size_ = 0;
  std::uint64_t out_capacity_ = 0;
  std::uint64_t pushed_ = 0;
  bool tcp_ = false;
};

/// What a handler did with its request.
enum class HandlerVerdict : std::uint8_t {
  kDone,      ///< replied inline (RpcContext::Complete already ran)
  kDeferred,  ///< context parked; someone completes it later
};

/// One in-flight request on the server: decoded header, bulk handle, and
/// the reply slot. Owns everything needed to answer the client — a handler
/// that defers moves the context onto its run queue and completes it from
/// the progress loop. Destroying an uncompleted context sends an INTERNAL
/// error reply (a dropped request must never hang the client).
class RpcContext {
 public:
  ~RpcContext();
  RpcContext(const RpcContext&) = delete;
  RpcContext& operator=(const RpcContext&) = delete;

  std::uint32_t opcode() const { return opcode_; }
  std::uint64_t seq() const { return seq_; }
  /// Trace ID from the request frame: the client's correlation handle for
  /// this request's engine-side timing breakdown (echoed in the reply).
  std::uint64_t trace_id() const { return trace_id_; }
  /// The request header: a view into the received frame, which the
  /// context owns until it is destroyed.
  ByteView header() const { return header_; }
  BulkIo& bulk() { return bulk_; }
  net::Qp* qp() const { return qp_; }
  bool completed() const {
    return completed_.load(std::memory_order_acquire);
  }

  /// Timing stamps for the latency breakdown, set by the scheduler around
  /// handler execution (monotonic ns from telemetry::NowNs). The thread
  /// that executes the op writes them and then reads them in Complete().
  void MarkExecStart(std::uint64_t ns) { exec_start_ns_ = ns; }
  void MarkExecEnd(std::uint64_t ns) { exec_end_ns_ = ns; }

  /// Encodes and sends the reply frame for this request (exactly once;
  /// FAILED_PRECONDITION on a second call — the guard is an atomic
  /// exchange, so a worker thread and the progress/teardown path racing
  /// to complete cannot double-send) and updates the server's served/bulk
  /// counters. An error `reply` reports pushed = 0 and ships no partial
  /// bulk.
  Status Complete(Result<Buffer> reply);

 private:
  friend class RpcServer;
  RpcContext() = default;

  RpcServer* server_ = nullptr;
  net::Qp* qp_ = nullptr;
  std::uint32_t opcode_ = 0;
  std::uint64_t seq_ = 0;
  std::uint64_t trace_id_ = 0;
  std::uint64_t decode_ns_ = 0;  ///< nonzero only when telemetry is enabled
  std::uint64_t exec_start_ns_ = 0;
  std::uint64_t exec_end_ns_ = 0;
  RpcOpStats* op_stats_ = nullptr;  ///< owned by the server's registration
  Buffer frame_;  ///< the request as received; header_ and bulk_ view it
  ByteView header_;
  BulkIo bulk_;
  std::atomic<bool> completed_{false};
};

using RpcContextPtr = std::unique_ptr<RpcContext>;

/// Server: opcode registry + decode->dispatch progress loop over accepted
/// QPs (single poll-set drain or per-QP).
class RpcServer {
 public:
  /// Synchronous handler (run-to-completion): the return value is the
  /// reply. Kept as the simple registration surface.
  using Handler =
      std::function<Result<Buffer>(ByteView header, BulkIo& bulk)>;
  /// Async handler: receives ownership of the context. Reply inline via
  /// ctx->Complete(...) and return kDone, or move the context somewhere
  /// and return kDeferred.
  using AsyncHandler = std::function<HandlerVerdict(RpcContextPtr ctx)>;

  void Register(std::uint32_t opcode, Handler handler);
  void RegisterAsync(std::uint32_t opcode, AsyncHandler handler);

  /// Names an opcode for metric paths ("single_update"); fallback is
  /// "op<number>".
  using OpcodeNamer = std::function<std::string(std::uint32_t)>;

  /// Links the server's counters and per-opcode latency stats into `tree`
  /// (paths under rpc/) and starts stamping decode timestamps so the
  /// decode->dispatch->execute->reply breakdown is recorded per request.
  /// Opcodes already registered are instrumented retroactively; later
  /// registrations pick it up automatically. `traces`, when set, receives
  /// one TraceRecord per completed request keyed by its wire trace ID.
  /// Call before serving traffic (registration is not thread-safe).
  void EnableTelemetry(telemetry::Telemetry* tree, OpcodeNamer namer = {},
                       telemetry::TraceRing* traces = nullptr);
  bool telemetry_enabled() const { return tree_ != nullptr; }

  /// Decodes and dispatches every queued request on `qp`. Inline handlers
  /// reply before this returns; deferred contexts reply whenever their
  /// owner completes them.
  Status Progress(net::Qp* qp);

  /// Poll-set form: one call services every ready accepted Qp (no per-QP
  /// scan); returns the first per-QP error but keeps draining.
  Status Progress(net::PollSet* set);

  /// Completed requests (replies sent), including deferred ones. The
  /// counters are telemetry counters now — the same objects the telemetry
  /// tree links, so there is exactly one source of truth — and stay safe
  /// to read while deferred contexts complete on worker threads and the
  /// progress thread keeps decoding.
  std::uint64_t requests_served() const { return served_.value(); }
  /// Requests whose handler returned kDeferred.
  std::uint64_t requests_deferred() const { return deferred_.value(); }
  std::uint64_t bulk_bytes_in() const { return bulk_in_.value(); }
  std::uint64_t bulk_bytes_out() const { return bulk_out_.value(); }
  /// Requests whose opcode had no registered handler.
  std::uint64_t unknown_opcodes() const { return unknown_.value(); }

  /// Fault injection: the plan is consulted at the dispatch step —
  /// kRpcDelay sleeps delay_us before dispatching (a slow server),
  /// kRpcDrop answers UNAVAILABLE instead of executing (a deterministic
  /// "lost" request: the client sees an error reply, never a hang, so the
  /// pipeline stays drainable). nullptr (default) disables both.
  void set_fault_plan(common::FaultPlan* plan) { fault_plan_ = plan; }
  common::FaultPlan* fault_plan() const { return fault_plan_; }
  /// Requests answered UNAVAILABLE by an armed kRpcDrop point.
  std::uint64_t requests_dropped() const { return dropped_.value(); }

 private:
  friend class RpcContext;

  struct Registration {
    AsyncHandler fn;
    std::unique_ptr<RpcOpStats> stats;  // non-null once telemetry enabled
  };

  /// Decode step: one wire frame -> an owned, dispatchable context that
  /// keeps the frame and views its header and inline payload. A frame
  /// with bytes past its last field is malformed (DATA_LOSS).
  Result<RpcContextPtr> Decode(net::Qp* qp, Buffer frame);
  /// Dispatch step: routes to the opcode's handler (NOT_FOUND reply for
  /// unknown opcodes).
  void Dispatch(RpcContextPtr ctx);
  /// Creates + tree-links the per-opcode stats for one registration.
  void InstrumentOpcode(std::uint32_t opcode, Registration& reg);

  std::map<std::uint32_t, Registration> handlers_;
  telemetry::Counter served_{1};
  telemetry::Counter deferred_{1};
  telemetry::Counter bulk_in_{1};
  telemetry::Counter bulk_out_{1};
  telemetry::Counter unknown_{1};
  telemetry::Counter dropped_{1};
  common::FaultPlan* fault_plan_ = nullptr;
  telemetry::Telemetry* tree_ = nullptr;
  telemetry::TraceRing* trace_ring_ = nullptr;
  OpcodeNamer namer_;
};

/// Client call options: at most one send payload and one receive window.
struct CallOptions {
  std::span<const std::byte> send_bulk;  ///< client -> server payload
  std::span<std::byte> recv_bulk;        ///< server -> client window
  /// Correlation tag carried in the wire header and echoed in the reply;
  /// the engine keys its per-request timing breakdown (TraceRecord) by it.
  /// 0 = derive from the call's sequence tag.
  std::uint64_t trace_id = 0;
};

struct RpcReply {
  Buffer header;             ///< handler's reply header
  std::uint64_t bulk_received = 0;  ///< bytes landed in recv_bulk
  std::uint64_t trace_id = 0;       ///< echoed from the request frame
};

/// Client bound to one connected Qp. `progress` is invoked while pumping
/// to drive the in-process server (stands in for network+poll).
///
/// RDMA bulk windows are registered through the endpoint's MrCache by
/// default (pooled, DAOS-style); set_mr_pooling(false) selects per-call
/// ad-hoc registrations (still leak-free via owned leases). Every pending
/// call owns its leases until its reply is matched or the call is
/// abandoned, so no path leaks a registration.
class RpcClient {
 public:
  /// Completion handle for one async call (the wire sequence tag).
  using CallId = std::uint64_t;

  RpcClient(net::Qp* qp, net::Endpoint* local,
            std::function<void()> progress)
      : qp_(qp), local_(local), progress_(std::move(progress)) {}

  /// Synchronous call: CallAsync + Await. Public contract unchanged.
  Result<RpcReply> Call(std::uint32_t opcode,
                        std::span<const std::byte> header,
                        const CallOptions& options = {});

  /// Overload for callers that just built the header with an Encoder:
  /// refuses to send a frame whose encode overflowed the wire's length
  /// prefixes (the bounds-checked-encode contract, threaded through every
  /// consumer).
  Result<RpcReply> Call(std::uint32_t opcode, const Encoder& header,
                        const CallOptions& options = {});

  /// Issues the request and returns immediately with a completion handle.
  /// If the in-flight window is full, blocks pumping progress until a slot
  /// frees; RESOURCE_EXHAUSTED (nothing abandoned) only on a stall. With
  /// a threaded server the replies arrive from the progress thread, so a
  /// momentarily-full window is normal backpressure, not an error. The
  /// caller's bulk buffers must stay alive until the call completes or is
  /// abandoned.
  Result<CallId> CallAsync(std::uint32_t opcode,
                           std::span<const std::byte> header,
                           const CallOptions& options = {});
  Result<CallId> CallAsync(std::uint32_t opcode, const Encoder& header,
                           const CallOptions& options = {});

  /// Drains every reply already queued on the Qp (no progress pump),
  /// matching replies to pending calls by sequence tag — out-of-order
  /// completion is expected. Returns how many calls newly completed.
  std::size_t Poll();

  /// True once `id`'s reply arrived (result ready for Take).
  bool Done(CallId id) const;

  /// Takes the completed result (NOT_FOUND for an unknown/taken handle,
  /// UNAVAILABLE if still pending — Poll/Flush first).
  Result<RpcReply> Take(CallId id);

  /// Pumps progress until `id` completes, then takes its result. On a
  /// stall only this call is abandoned (leases released) and UNAVAILABLE
  /// returned.
  Result<RpcReply> Await(CallId id);

  /// Pumps progress until every pending call completed (results remain
  /// available via Take). On a stall every call not yet completed is
  /// abandoned and UNAVAILABLE returned.
  Status Flush();

  /// Max calls outstanding before CallAsync applies backpressure.
  void set_max_in_flight(std::uint32_t n) { max_in_flight_ = n ? n : 1; }
  std::uint32_t max_in_flight() const { return max_in_flight_; }
  /// Calls issued but not yet completed (excludes completed-not-taken).
  std::size_t in_flight() const { return in_flight_; }
  /// Replies whose sequence tag matched no pending call (dropped).
  std::uint64_t unmatched_replies() const { return unmatched_replies_; }

  void set_mr_pooling(bool pooled) { mr_pooling_ = pooled; }
  bool mr_pooling() const { return mr_pooling_; }

  /// How long a wait (CallAsync window-full, Await, Flush) tolerates zero
  /// progress before declaring a stall. The deadline RESETS whenever a
  /// reply completes, so a slow-but-live server never trips it. 0 = fail
  /// after one no-progress round (the pre-threading behavior).
  void set_stall_timeout_ms(double ms) {
    stall_timeout_ms_ = ms < 0.0 ? 0.0 : ms;
  }
  double stall_timeout_ms() const { return stall_timeout_ms_; }

  net::Qp* qp() const { return qp_; }

 private:
  struct PendingCall {
    CallId id = 0;
    std::span<std::byte> recv_bulk;
    net::MrLease send_lease;
    net::MrLease recv_lease;
    bool done = false;
    Result<RpcReply> result = Status(Internal("call still in flight"));
  };

  /// The one wait loop: each round polls, pumps progress_ and polls
  /// again until `done()` holds. True once it does; false after
  /// stall_timeout_ms() with zero completions. The caller picks the
  /// stall action.
  bool WaitFor(FunctionRef<bool()> done);
  Result<net::MrLease> AcquireMr(std::span<std::byte> region,
                                 std::uint32_t access);
  /// Parses one reply and completes the matching pending call, copying
  /// a TCP reply's inline segment once into the call's window.
  void MatchReply(const net::Message& reply);
  void CompletePending(PendingCall& call, Result<RpcReply> result);
  PendingCall* FindPending(CallId id);
  const PendingCall* FindPending(CallId id) const;
  void ErasePending(CallId id);

  net::Qp* qp_;
  net::Endpoint* local_;
  std::function<void()> progress_;
  bool mr_pooling_ = true;
  double stall_timeout_ms_ = 100.0;
  std::uint32_t max_in_flight_ = 32;
  std::uint64_t next_seq_ = 1;
  std::size_t in_flight_ = 0;
  std::uint64_t unmatched_replies_ = 0;
  // Flat window table, not a map: the in-flight window bounds the scan,
  // linear find beats per-call node allocations on the hot path, and the
  // vector's capacity is reused across calls.
  std::vector<PendingCall> pending_;
};

}  // namespace ros2::rpc
