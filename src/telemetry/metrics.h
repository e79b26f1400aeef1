// Telemetry metric primitives and the hierarchical metric tree.
//
// Modeled on the DAOS d_tm telemetry tree: every observable in the engine
// registers under a slash-separated path ("rpc/op/single_update/requests"),
// and a snapshot walks the tree in path order. The hot path is lock-free:
// counters are cache-line-sharded atomics (one shard per xstream) updated
// with relaxed fetch_add and folded only at snapshot time; histograms keep
// one LatencyHistogram per shard behind a per-shard mutex that is
// uncontended by construction (each shard has a single writer thread) and
// folded via LatencyHistogram::Merge.
//
// The tree supports two ownership modes so existing stat structs stay the
// single source of truth instead of being double-counted:
//   - RegisterCounter / RegisterTimestamp: the tree owns the metric and
//     hands back a stable pointer.
//   - LinkCounter / LinkHistogram / RegisterCallback: the tree holds a
//     read-only view over a metric (or accessor) owned elsewhere;
//     snapshots read through it. A callback is the one gauge mechanism.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/thread_annotations.h"

namespace ros2::telemetry {

/// Monotonic clock in nanoseconds, for latency spans. On x86-64 this reads
/// the invariant TSC (~3x cheaper than clock_gettime) scaled by a
/// once-per-process calibration against steady_clock; elsewhere it falls
/// back to steady_clock. Instrumented request paths take four stamps per
/// request, so the clock IS the telemetry hot path.
std::uint64_t NowNs();

/// Wall clock in nanoseconds since the Unix epoch, for Timestamp metrics.
std::uint64_t WallNs();

/// Monotonically increasing count, sharded across cache lines so concurrent
/// writers (one shard per xstream) never bounce a line. Add() is a single
/// relaxed fetch_add; value() folds all shards.
class Counter {
 public:
  explicit Counter(std::uint32_t shards = 1)
      : shards_(shards == 0 ? 1 : shards) {}
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Add(std::uint64_t n = 1, std::uint32_t shard = 0) {
    shards_[shard < shards_.size() ? shard : 0].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  std::uint64_t value() const {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t shard_value(std::uint32_t shard) const {
    if (shard >= shards_.size()) return 0;
    return shards_[shard].v.load(std::memory_order_relaxed);
  }
  std::uint32_t shards() const { return std::uint32_t(shards_.size()); }

 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  std::vector<Shard> shards_;
};

/// Wall-clock instant of a named event (engine start, last snapshot).
class Timestamp {
 public:
  Timestamp() = default;
  Timestamp(const Timestamp&) = delete;
  Timestamp& operator=(const Timestamp&) = delete;

  void Stamp() { ns_.store(WallNs(), std::memory_order_relaxed); }
  void StampAt(std::uint64_t ns) { ns_.store(ns, std::memory_order_relaxed); }
  std::uint64_t value_ns() const { return ns_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> ns_{0};
};

/// Latency distribution, one LatencyHistogram per shard. Each shard is
/// written by exactly one thread in practice, so its mutex is uncontended
/// on the hot path and only fought over at fold time; Fold() merges the
/// shards with LatencyHistogram::Merge (bit-exact against a single
/// histogram fed the same samples — pinned by histogram_test).
class Histogram {
 public:
  explicit Histogram(std::uint32_t shards = 1) {
    if (shards == 0) shards = 1;
    shards_.reserve(shards);
    for (std::uint32_t i = 0; i < shards; ++i) {
      shards_.push_back(std::make_unique<Shard>());
    }
  }
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void Record(double value, std::uint32_t shard = 0) {
    Shard& s = *shards_[shard < shards_.size() ? shard : 0];
    common::MutexLock lk(s.mu);
    s.h.Record(value);
  }

  LatencyHistogram Fold() const {
    LatencyHistogram out;
    for (const auto& s : shards_) {
      common::MutexLock lk(s->mu);
      out.Merge(s->h);
    }
    return out;
  }

  std::uint64_t count() const {
    std::uint64_t total = 0;
    for (const auto& s : shards_) {
      common::MutexLock lk(s->mu);
      total += s->h.count();
    }
    return total;
  }
  std::uint32_t shards() const { return std::uint32_t(shards_.size()); }

 private:
  struct Shard {
    mutable common::Mutex mu;
    LatencyHistogram h ROS2_GUARDED_BY(mu);
  };
  std::vector<std::unique_ptr<Shard>> shards_;
};

/// One request's engine-side timing breakdown, keyed by the trace ID that
/// rode the wire header. queue_ns is decode -> execution start (zero for
/// inline handlers), exec_ns the handler body, total_ns decode -> reply.
struct TraceRecord {
  std::uint64_t trace_id = 0;
  std::uint32_t opcode = 0;
  std::uint64_t queue_ns = 0;
  std::uint64_t exec_ns = 0;
  std::uint64_t total_ns = 0;
};

/// Fixed-capacity ring of the most recent TraceRecords, lock-free on the
/// push path: the slot index is claimed with one relaxed fetch_add and the
/// record fields are relaxed atomic stores, so a reply never takes a lock
/// to leave its trace. Snapshot() returns oldest-to-newest; a snapshot
/// racing a wrap-around overwrite may read a record whose fields mix two
/// pushes — traces are diagnostic samples, and that trade buys a lock-free
/// reply path.
class TraceRing {
 public:
  explicit TraceRing(std::size_t capacity = 256);
  TraceRing(const TraceRing&) = delete;
  TraceRing& operator=(const TraceRing&) = delete;

  void Push(const TraceRecord& rec);
  std::vector<TraceRecord> Snapshot() const;
  std::uint64_t pushed() const {
    return pushed_.load(std::memory_order_relaxed);
  }
  std::size_t capacity() const { return capacity_; }

 private:
  struct Slot {
    std::atomic<std::uint64_t> trace_id{0};
    std::atomic<std::uint32_t> opcode{0};
    std::atomic<std::uint64_t> queue_ns{0};
    std::atomic<std::uint64_t> exec_ns{0};
    std::atomic<std::uint64_t> total_ns{0};
  };

  std::size_t capacity_;
  std::unique_ptr<Slot[]> slots_;
  std::atomic<std::uint64_t> pushed_{0};
};

enum class MetricKind : std::uint8_t {
  kCounter = 0,
  kGauge = 1,
  kTimestamp = 2,
  kHistogram = 3,
};

const char* MetricKindName(MetricKind kind);

struct TelemetrySnapshot;  // snapshot.h

/// The metric tree. Registration and snapshotting take the tree mutex;
/// metric updates never do (they go straight to the metric object).
/// Re-registering an existing path with the same kind is idempotent and
/// returns the existing metric; a kind clash returns nullptr (Register*)
/// or false (Link*/RegisterCallback).
class Telemetry {
 public:
  /// default_shards sizes counters/histograms registered with shards == 0;
  /// engines pass targets + 1 (one shard per xstream plus the progress
  /// thread).
  explicit Telemetry(std::uint32_t default_shards = 1)
      : default_shards_(default_shards == 0 ? 1 : default_shards) {
    (void)NowNs();  // warm the TSC calibration off the request path
  }
  Telemetry(const Telemetry&) = delete;
  Telemetry& operator=(const Telemetry&) = delete;

  Counter* RegisterCounter(const std::string& path, std::uint32_t shards = 0);
  Timestamp* RegisterTimestamp(const std::string& path);

  /// Views over metrics owned elsewhere (single source of truth stays with
  /// the owner; the snapshot reads through the pointer, which must outlive
  /// this tree or be unlinked by destroying the tree first).
  bool LinkCounter(const std::string& path, const Counter* counter);
  bool LinkHistogram(const std::string& path, const Histogram* histogram);
  /// Gauge-kind metric computed on demand at snapshot time.
  bool RegisterCallback(const std::string& path,
                        std::function<std::int64_t()> fn);

  bool Contains(const std::string& path) const;
  /// Owned counters only (links return nullptr): the lookup hands out a
  /// mutable pointer, which a view does not grant.
  Counter* FindCounter(const std::string& path) const;

  std::size_t size() const;
  std::uint32_t default_shards() const { return default_shards_; }

  /// Path-ordered snapshot of every metric whose path starts with prefix
  /// (empty prefix = everything). Defined in snapshot.cc.
  TelemetrySnapshot Snapshot(const std::string& prefix = std::string()) const;

 private:
  struct Node {
    MetricKind kind = MetricKind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Timestamp> timestamp;
    const Counter* linked_counter = nullptr;
    const Histogram* linked_histogram = nullptr;
    std::function<std::int64_t()> callback;
  };

  mutable common::Mutex mu_;
  std::map<std::string, Node> nodes_ ROS2_GUARDED_BY(mu_);
  std::uint32_t default_shards_;
};

}  // namespace ros2::telemetry
