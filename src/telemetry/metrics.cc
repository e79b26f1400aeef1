#include "telemetry/metrics.h"

#include <chrono>

#if defined(__x86_64__)
#include <x86intrin.h>
#endif

namespace ros2::telemetry {

namespace {

std::uint64_t SteadyNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

#if defined(__x86_64__)
/// ns per TSC tick, calibrated once per process against steady_clock over
/// a ~1 ms window (invariant TSC: constant rate, synchronized across
/// cores on every x86-64 this project targets). Telemetry's constructor
/// warms this up so the millisecond never lands inside a request.
double TscNsPerTick() {
  static const double ns_per_tick = [] {
    const std::uint64_t ns0 = SteadyNs();
    const std::uint64_t c0 = __rdtsc();
    for (;;) {
      const std::uint64_t ns1 = SteadyNs();
      if (ns1 - ns0 >= 1000000) {
        const std::uint64_t c1 = __rdtsc();
        return double(ns1 - ns0) / double(c1 - c0);
      }
    }
  }();
  return ns_per_tick;
}
#endif

}  // namespace

std::uint64_t NowNs() {
#if defined(__x86_64__)
  // double holds the product exactly enough: at a ~3 GHz tick rate the
  // 53-bit mantissa keeps sub-ns precision for decades of uptime.
  return std::uint64_t(double(__rdtsc()) * TscNsPerTick());
#else
  return SteadyNs();
#endif
}

std::uint64_t WallNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::system_clock::now().time_since_epoch())
                           .count());
}

TraceRing::TraceRing(std::size_t capacity)
    : capacity_(capacity == 0 ? 1 : capacity),
      slots_(std::make_unique<Slot[]>(capacity == 0 ? 1 : capacity)) {}

void TraceRing::Push(const TraceRecord& rec) {
  const std::uint64_t index = pushed_.fetch_add(1, std::memory_order_relaxed);
  Slot& slot = slots_[std::size_t(index % capacity_)];
  slot.trace_id.store(rec.trace_id, std::memory_order_relaxed);
  slot.opcode.store(rec.opcode, std::memory_order_relaxed);
  slot.queue_ns.store(rec.queue_ns, std::memory_order_relaxed);
  slot.exec_ns.store(rec.exec_ns, std::memory_order_relaxed);
  slot.total_ns.store(rec.total_ns, std::memory_order_relaxed);
}

std::vector<TraceRecord> TraceRing::Snapshot() const {
  const std::uint64_t pushed = pushed_.load(std::memory_order_acquire);
  const std::size_t n = std::size_t(pushed < capacity_ ? pushed : capacity_);
  const std::uint64_t oldest = pushed - n;
  std::vector<TraceRecord> out;
  out.reserve(n);
  for (std::uint64_t i = 0; i < n; ++i) {
    const Slot& slot = slots_[std::size_t((oldest + i) % capacity_)];
    TraceRecord rec;
    rec.trace_id = slot.trace_id.load(std::memory_order_relaxed);
    rec.opcode = slot.opcode.load(std::memory_order_relaxed);
    rec.queue_ns = slot.queue_ns.load(std::memory_order_relaxed);
    rec.exec_ns = slot.exec_ns.load(std::memory_order_relaxed);
    rec.total_ns = slot.total_ns.load(std::memory_order_relaxed);
    out.push_back(rec);
  }
  return out;
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kTimestamp:
      return "timestamp";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

Counter* Telemetry::RegisterCounter(const std::string& path,
                                    std::uint32_t shards) {
  common::MutexLock lk(mu_);
  auto it = nodes_.find(path);
  if (it != nodes_.end()) {
    if (it->second.kind != MetricKind::kCounter) return nullptr;
    return it->second.counter.get();  // nullptr for a linked counter
  }
  Node node;
  node.kind = MetricKind::kCounter;
  node.counter =
      std::make_unique<Counter>(shards == 0 ? default_shards_ : shards);
  Counter* out = node.counter.get();
  nodes_.emplace(path, std::move(node));
  return out;
}

Timestamp* Telemetry::RegisterTimestamp(const std::string& path) {
  common::MutexLock lk(mu_);
  auto it = nodes_.find(path);
  if (it != nodes_.end()) {
    if (it->second.kind != MetricKind::kTimestamp) return nullptr;
    return it->second.timestamp.get();
  }
  Node node;
  node.kind = MetricKind::kTimestamp;
  node.timestamp = std::make_unique<Timestamp>();
  Timestamp* out = node.timestamp.get();
  nodes_.emplace(path, std::move(node));
  return out;
}

bool Telemetry::LinkCounter(const std::string& path, const Counter* counter) {
  if (counter == nullptr) return false;
  common::MutexLock lk(mu_);
  auto it = nodes_.find(path);
  if (it != nodes_.end()) {
    return it->second.kind == MetricKind::kCounter &&
           it->second.linked_counter == counter;
  }
  Node node;
  node.kind = MetricKind::kCounter;
  node.linked_counter = counter;
  nodes_.emplace(path, std::move(node));
  return true;
}

bool Telemetry::LinkHistogram(const std::string& path,
                              const Histogram* histogram) {
  if (histogram == nullptr) return false;
  common::MutexLock lk(mu_);
  auto it = nodes_.find(path);
  if (it != nodes_.end()) {
    return it->second.kind == MetricKind::kHistogram &&
           it->second.linked_histogram == histogram;
  }
  Node node;
  node.kind = MetricKind::kHistogram;
  node.linked_histogram = histogram;
  nodes_.emplace(path, std::move(node));
  return true;
}

bool Telemetry::RegisterCallback(const std::string& path,
                                 std::function<std::int64_t()> fn) {
  if (!fn) return false;
  common::MutexLock lk(mu_);
  auto it = nodes_.find(path);
  if (it != nodes_.end()) return false;  // callbacks are never re-bound
  Node node;
  node.kind = MetricKind::kGauge;
  node.callback = std::move(fn);
  nodes_.emplace(path, std::move(node));
  return true;
}

bool Telemetry::Contains(const std::string& path) const {
  common::MutexLock lk(mu_);
  return nodes_.find(path) != nodes_.end();
}

Counter* Telemetry::FindCounter(const std::string& path) const {
  common::MutexLock lk(mu_);
  auto it = nodes_.find(path);
  if (it == nodes_.end() || it->second.kind != MetricKind::kCounter) {
    return nullptr;
  }
  return it->second.counter.get();
}

std::size_t Telemetry::size() const {
  common::MutexLock lk(mu_);
  return nodes_.size();
}

}  // namespace ros2::telemetry
