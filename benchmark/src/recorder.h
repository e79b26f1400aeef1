// Fixed-capacity recording for the timed phase: per-class latency
// samples, throughput per fifth of the run, and the traced run's spans.
//
// Everything here is sized and touched before the timed phase starts and
// never grows inside it. Growing a record vector mid-run is not free: once
// it passes about 1 MiB, its reallocations change how glibc serves the two
// 1 MiB temporaries each VOS array read allocates, and dataloader_4k's
// read path slows ~3x for the rest of the run (see README.md, Findings).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace wallbench {

inline std::uint64_t NowNs() {
  return std::uint64_t(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           std::chrono::steady_clock::now().time_since_epoch())
                           .count());
}

/// Median of `v` (0 when empty).
double Median(std::vector<double> v);

/// Client-call classes with their own latency distributions.
enum class OpClass : std::uint8_t { kRead, kWrite, kMeta, kReaddir, kCount };
const char* OpClassName(OpClass c);

/// Latency samples (ns) with a capacity fixed at construction.
class Samples {
 public:
  explicit Samples(std::size_t capacity);

  bool full() const { return size_ == ns_.size(); }
  std::size_t size() const { return size_; }
  /// Caller checks full() first.
  void Add(std::uint64_t ns) {
    ns_[size_++] = ns > 0xFFFFFFFFull ? 0xFFFFFFFFu : std::uint32_t(ns);
  }
  /// Nearest-rank quantile, in microseconds, of samples [begin, end) in
  /// recording order (the whole set by default); 0 when the range is
  /// empty. Works on a copy, so the recording order is kept.
  double QuantileUs(double q, std::size_t begin = 0,
                    std::size_t end = ~std::size_t(0)) const;

 private:
  std::vector<std::uint32_t> ns_;
  std::size_t size_ = 0;
};

/// The timed phase as a sequence of work units, each one step, round or
/// fixed batch of its workload. Throughput and the read median are
/// reported as medians over complete units: on a shared host another
/// tenant's burst slows a second or two of a run, and a median over units
/// ignores it where a whole-run total does not. Units follow the
/// workload's own structure, so every unit holds the same mix of ops (a
/// time slice could catch one phase of a round and miss the other).
class Units {
 public:
  explicit Units(std::size_t capacity) : units_(capacity) {}

  void Add(std::uint64_t op_ns, std::uint64_t bytes) {
    open_.ops += 1;
    open_.busy_ns += op_ns;
    open_.bytes += bytes;
  }
  /// Closes the open unit at `since_start_ns` into the timed phase, with
  /// `reads` read samples recorded so far.
  void End(std::uint64_t since_start_ns, std::size_t reads);
  /// Closes the unit still open at the deadline: it counts only when no
  /// unit completed.
  void Finish(std::uint64_t since_start_ns, std::size_t reads);

  /// Median over units of ops (MiB) per second of busy time.
  double MedianOpsPerSec() const;
  double MedianMiBPerSec() const;
  /// Median over units of each unit's read latency quantile q (µs).
  double MedianReadQuantileUs(const Samples& reads, double q) const;
  /// ops/s of busy time over the units that ended in fifth `i` of a timed
  /// phase `duration_ns` long (0 when none did).
  double FifthOpsPerSec(int i, std::uint64_t duration_ns) const;
  /// (max - min) / median of the non-empty fifths' rates.
  double Drift(std::uint64_t duration_ns) const;
  std::size_t size() const { return n_; }

 private:
  struct Unit {
    std::uint64_t ops = 0;
    std::uint64_t busy_ns = 0;
    std::uint64_t bytes = 0;
    std::size_t reads_begin = 0;  ///< read-sample range of the unit
    std::size_t reads_end = 0;
    std::uint64_t end_ns = 0;     ///< since the start of the timed phase
  };
  std::vector<Unit> units_;
  std::size_t n_ = 0;
  Unit open_;
};

/// Spans recorded by the traced run, one per layer boundary the harness
/// crosses. Top-level spans have parent kNone.
enum class Span : std::uint8_t {
  kNone,
  // A client op issued through Ros2Client.
  kCorePread,
  kCorePwrite,
  kCoreStat,
  kCoreOpen,
  kCoreClose,
  kCoreUnlink,
  kCoreReaddir,
  // A Ros2Client op rebuilt from its parts (the grant probe).
  kCorePreadParts,
  kCorePwriteParts,
  kGrant,
  kCrypto,
  kStaging,
  kDfsRead,
  kDfsWrite,
  kDfsStat,
  kDfsOpen,
  kDfsClose,
  kDfsUnlink,
  kDfsReaddir,
  kDaosFetch,
  kDaosUpdate,
  kVosFetch,
  kCount
};
const char* SpanName(Span s);

class SpanLog {
 public:
  /// Keeps up to `max_records` individual spans for the JSON dump; means
  /// and counts cover every span recorded.
  explicit SpanLog(std::size_t max_records);

  void Record(std::uint64_t op, Span name, Span parent, std::uint64_t start_ns,
              std::uint64_t end_ns) {
    const std::uint64_t dur = end_ns - start_ns;
    Agg& a = agg_[std::size_t(name)];
    a.count += 1;
    a.sum_ns += dur;
    if (kept_ < records_.size()) {
      records_[kept_++] = {op, start_ns, dur, name, parent};
    } else {
      ++dropped_;
    }
  }
  std::uint64_t count(Span s) const { return agg_[std::size_t(s)].count; }
  /// Mean duration in microseconds; 0 when the span never occurred.
  double MeanUs(Span s) const;

  /// Writes the kept spans as a JSON document; start times are relative
  /// to `origin_ns`.
  bool WriteJson(const std::string& path, std::uint64_t origin_ns) const;

 private:
  struct Entry {
    std::uint64_t op;
    std::uint64_t start_ns;
    std::uint64_t dur_ns;
    Span name;
    Span parent;
  };
  struct Agg {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
  };
  std::vector<Entry> records_;
  std::size_t kept_ = 0;
  std::uint64_t dropped_ = 0;
  std::array<Agg, std::size_t(Span::kCount)> agg_{};
};

}  // namespace wallbench
