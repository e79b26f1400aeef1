#include "daos/scheduler.h"

#include <cassert>
#include <utility>

namespace ros2::daos {

EngineScheduler::EngineScheduler(std::uint32_t targets,
                                 EngineSchedulerOptions options)
    : threaded_(options.threaded),
      num_targets_(targets),
      time_ops_(options.time_ops),
      executed_(targets),
      busy_ns_(targets) {
  assert(targets != 0 && "scheduler needs at least one target xstream");
  if (threaded_) {
    xstreams_.reserve(targets);
    for (std::uint32_t t = 0; t < targets; ++t) {
      xstreams_.push_back(std::make_unique<Xstream>());
    }
  } else {
    queues_.resize(targets);
  }
}

EngineScheduler::~EngineScheduler() { Shutdown(); }

void EngineScheduler::NoteQueued() {
  const std::size_t depth =
      queued_total_.fetch_add(1, std::memory_order_acq_rel) + 1;
  std::size_t seen = high_water_.load(std::memory_order_relaxed);
  while (depth > seen &&
         !high_water_.compare_exchange_weak(seen, depth,
                                            std::memory_order_relaxed)) {
  }
}

void EngineScheduler::Execute(std::uint32_t target, rpc::RpcContext& ctx,
                              const OpFn& op) {
  std::uint64_t t0 = 0;
  if (time_ops_) {
    t0 = telemetry::NowNs();
    ctx.MarkExecStart(t0);
  }
  Result<Buffer> reply = op(ctx);
  if (time_ops_) {
    const std::uint64_t t1 = telemetry::NowNs();
    ctx.MarkExecEnd(t1);
    busy_ns_.Add(t1 - t0, target);
  }
  // A failed Complete (dead QP) is the transport's problem; the op ran.
  (void)ctx.Complete(std::move(reply));
  executed_.Add(1, target);
  queued_total_.fetch_sub(1, std::memory_order_acq_rel);
}

void EngineScheduler::Enqueue(std::uint32_t target, rpc::RpcContextPtr ctx,
                              OpFn op) {
  assert(target < num_targets_ && "target out of range");
  NoteQueued();
  if (!threaded_) {
    queues_[target].push_back(QueuedOp{std::move(ctx), std::move(op)});
    return;
  }
  // Workers need a copyable task closure (std::function), so ownership of
  // the context goes shared at the submit boundary.
  auto shared = std::shared_ptr<rpc::RpcContext>(ctx.release());
  const bool accepted = xstreams_[target]->Submit(
      [this, target, shared, op = std::move(op)] {
        Execute(target, *shared, op);
      });
  if (!accepted) {
    // Stream already stopping: answer instead of dropping the request.
    queued_total_.fetch_sub(1, std::memory_order_acq_rel);
    (void)shared->Complete(Status(Unavailable("engine shutting down")));
  }
}

std::size_t EngineScheduler::ProgressOnce() {
  if (threaded_) return 0;
  const std::uint32_t n = num_targets_;
  std::size_t ran = 0;
  for (std::uint32_t i = 0; i < n; ++i) {
    const std::uint32_t t = (cursor_ + i) % n;
    auto& queue = queues_[t];
    if (queue.empty()) continue;
    QueuedOp item = std::move(queue.front());
    queue.pop_front();
    Execute(t, *item.ctx, item.op);
    ++ran;
  }
  // Rotate the pass's start so target `cursor_` is not structurally first
  // every pass.
  if (n > 0) cursor_ = (cursor_ + 1) % n;
  return ran;
}

std::size_t EngineScheduler::ProgressAll() {
  std::size_t total = 0;
  while (std::size_t ran = ProgressOnce()) total += ran;
  return total;
}

void EngineScheduler::Quiesce() {
  if (!threaded_) {
    ProgressAll();
    return;
  }
  // Workers send their own replies, so an idle worker has answered every
  // op submitted to it.
  for (auto& xs : xstreams_) xs->Quiesce();
}

void EngineScheduler::Shutdown() {
  if (!threaded_) return;
  if (shut_down_.exchange(true)) return;
  // Stop() runs everything still queued before joining, so no accepted
  // request is lost and every one of them is answered.
  for (auto& xs : xstreams_) xs->Stop();
}

std::size_t EngineScheduler::queued(std::uint32_t target) const {
  if (target >= num_targets_) return 0;
  if (threaded_) return xstreams_[target]->queued();
  return queues_[target].size();
}

std::uint64_t EngineScheduler::idle_ns(std::uint32_t target) const {
  if (!threaded_ || target >= num_targets_) return 0;
  return xstreams_[target]->idle_ns();
}

}  // namespace ros2::daos
