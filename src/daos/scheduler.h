// Per-target execution streams ("xstreams") for the DAOS engine (§3.3).
//
// "The engine spawns one xstream per target; the CaRT progress loop
// decodes incoming RPCs and hands each one to the xstream owning its
// dkey." This scheduler is that structure, in two modes:
//
//  - SERIAL (default): every target owns a FIFO run queue of deferred
//    requests (rpc::RpcContext + the bound VOS operation), and
//    ProgressAll() drains the queues in round-robin passes — one op per
//    target per pass — so one hot target cannot starve the others, while
//    ops on the SAME target (and therefore the same dkey, since placement
//    is by dkey) execute strictly in arrival order. Deterministic; what
//    the single-threaded tests and the perf model pin.
//
//  - THREADED: every target owns a real worker thread (daos::Xstream)
//    with a bounded MPSC submit queue — the Argobots-xstream-per-target
//    shape. Enqueue() hands the op to the target's worker; the op body
//    (VOS access, bulk movement) runs on that thread, preserving per-dkey
//    FIFO order because one thread drains one FIFO queue, and the worker
//    sends the reply itself (upstream DAOS calls crt_reply_send from the
//    ULT that ran the handler) — no hop back through the progress thread.
//
// Both modes run an op through one Execute step: stamp, run, reply, count.
//
// The engine's dispatch step decodes only a request's routing prefix
// (cont, oid, dkey, akey) to pick the target; the op body that runs here
// decodes its own tail, looks up the container, stamps epochs and moves
// bulk — all at execution time on the target's stream, exactly like a ULT
// body. The barrier ops (object punch, dkey listing, rebuild scan) call
// Quiesce() first and then run on the dispatch thread.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "daos/xstream.h"
#include "rpc/data_rpc.h"
#include "telemetry/metrics.h"

namespace ros2::daos {

struct EngineSchedulerOptions {
  /// false: single-threaded round-robin drain (deterministic).
  /// true: one worker thread per target; workers send their replies.
  bool threaded = false;
  /// Stamp execution start/end on each context and accumulate per-target
  /// busy time (two clock reads per op). The engine wires this to
  /// EngineConfig::telemetry so an uninstrumented engine pays nothing.
  bool time_ops = true;
};

class EngineScheduler {
 public:
  /// The deferred body: runs on the target's stream, returns the reply
  /// (or error) for its context. Receives the context for bulk access.
  using OpFn = std::function<Result<Buffer>(rpc::RpcContext& ctx)>;

  explicit EngineScheduler(std::uint32_t targets,
                           EngineSchedulerOptions options = {});
  ~EngineScheduler();
  EngineScheduler(const EngineScheduler&) = delete;
  EngineScheduler& operator=(const EngineScheduler&) = delete;

  /// Parks `ctx` on `target`'s run queue. FIFO per target. In threaded
  /// mode this blocks while the target's submit queue is full; after
  /// Shutdown() the context is completed with UNAVAILABLE instead.
  void Enqueue(std::uint32_t target, rpc::RpcContextPtr ctx, OpFn op);

  /// Serial: one round-robin pass — at most one queued op per target (the
  /// pass's start target rotates so draining is fair under load).
  /// Threaded: nothing to do (workers reply on their own); returns 0.
  /// Returns ops completed.
  std::size_t ProgressOnce();

  /// Serial: round-robin passes until every queue is empty. Threaded:
  /// returns 0 at once. Returns ops completed.
  std::size_t ProgressAll();

  /// BARRIER: every op enqueued before this call has executed AND its
  /// reply has been sent when it returns. Serial: ProgressAll. Threaded:
  /// waits for every worker to go idle. Callers must not Enqueue
  /// concurrently with a Quiesce they depend on.
  void Quiesce();

  /// Threaded: stops every worker (queued ops still execute and reply — a
  /// clean shutdown loses no requests). Serial: no-op. Idempotent; the
  /// destructor calls it.
  void Shutdown();

  bool threaded() const { return threaded_; }
  bool idle() const {
    return queued_total_.load(std::memory_order_acquire) == 0;
  }
  std::uint32_t num_targets() const { return num_targets_; }
  /// Ops accepted but not yet replied to.
  std::size_t queued() const {
    return queued_total_.load(std::memory_order_acquire);
  }
  std::size_t queued(std::uint32_t target) const;
  std::uint64_t executed() const { return executed_.value(); }
  /// Ops executed on one target (its counter shard).
  std::uint64_t executed(std::uint32_t target) const {
    return executed_.shard_value(target);
  }
  /// Time spent executing op bodies, total and per target (0 unless
  /// time_ops; accumulated by the executing thread into its own shard).
  std::uint64_t busy_ns() const { return busy_ns_.value(); }
  std::uint64_t busy_ns(std::uint32_t target) const {
    return busy_ns_.shard_value(target);
  }
  /// Time a target's worker spent parked waiting for work (threaded mode
  /// only; 0 in serial mode, where idleness belongs to the progress loop).
  std::uint64_t idle_ns(std::uint32_t target) const;
  bool time_ops() const { return time_ops_; }
  /// High-water mark of total queued ops (pipeline depth telemetry).
  std::size_t max_queue_depth() const {
    return high_water_.load(std::memory_order_acquire);
  }

 private:
  struct QueuedOp {
    rpc::RpcContextPtr ctx;
    OpFn op;
  };

  void NoteQueued();
  /// Runs `op` on the calling thread, sends its reply and ticks the
  /// counters — the one body both drive modes share.
  void Execute(std::uint32_t target, rpc::RpcContext& ctx, const OpFn& op);

  const bool threaded_;
  const std::uint32_t num_targets_;
  const bool time_ops_;

  // Serial mode state (owner: the single progress thread — single-owner
  // by contract, so unguarded on purpose; threaded mode never touches it).
  std::vector<std::deque<QueuedOp>> queues_;
  std::uint32_t cursor_ = 0;  // rotating start target for fairness

  // Threaded mode state.
  std::vector<std::unique_ptr<Xstream>> xstreams_;
  std::atomic<bool> shut_down_{false};

  std::atomic<std::size_t> queued_total_{0};
  std::atomic<std::size_t> high_water_{0};
  // One shard per target: workers tick their own shard, snapshots fold.
  telemetry::Counter executed_;
  telemetry::Counter busy_ns_;
};

}  // namespace ros2::daos
